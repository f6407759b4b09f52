// net/server.h + net/service.h over a real loopback socket: endpoint
// round trips, machine-readable error JSON, framing rejects (400/413),
// keep-alive connection reuse, concurrent clients hammering reads and
// writes (under the `concurrency` ctest label, TSan in CI), and clean
// idempotent shutdown with connections in flight.

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "sqlnf/engine/catalog.h"
#include "sqlnf/engine/session.h"
#include "sqlnf/net/client.h"
#include "sqlnf/net/server.h"
#include "sqlnf/net/service.h"
#include "sqlnf/util/json.h"
#include "test_util.h"

namespace sqlnf {
namespace {

/// A database + service + listening server on an ephemeral port.
struct TestServer {
  Database db;
  SessionRegistry registry{&db};
  SqlnfService service{&registry};
  HttpServer server;

  explicit TestServer(HttpServerOptions options = {})
      : server([this](const HttpRequest& r) { return service.Handle(r); },
               options) {
    Status started = server.Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }
};

TEST(ServerTest, EndpointsRoundTrip) {
  TestServer ts;
  ASSERT_OK_AND_ASSIGN(HttpConnection conn,
                       HttpConnection::Open(ts.server.port()));

  ASSERT_OK_AND_ASSIGN(
      HttpClientResponse r,
      conn.Post("/query",
                R"({"sql":"CREATE TABLE t (a TEXT, b TEXT);)"
                R"(INSERT INTO t VALUES ('1', 'x'), ('1', 'y');"})"));
  EXPECT_EQ(r.status, 200);
  ASSERT_OK_AND_ASSIGN(JsonValue v, ParseJson(r.body));
  EXPECT_TRUE(v.Find("ok")->bool_value());

  ASSERT_OK_AND_ASSIGN(
      r, conn.Post("/query", R"({"sql":"SELECT a, b FROM t;"})"));
  EXPECT_EQ(r.status, 200);
  ASSERT_OK_AND_ASSIGN(v, ParseJson(r.body));
  const JsonValue& stmt = v.Find("statements")->items()[0];
  EXPECT_EQ(stmt.Find("affected")->int_value(), 2);
  EXPECT_EQ(stmt.Find("rows")->Find("data")->items().size(), 2u);

  ASSERT_OK_AND_ASSIGN(
      r, conn.Post("/validate",
                   R"({"table":"t","constraints":"a ->w b"})"));
  EXPECT_EQ(r.status, 200);
  ASSERT_OK_AND_ASSIGN(v, ParseJson(r.body));
  EXPECT_EQ(v.Find("violated")->int_value(), 1);

  ASSERT_OK_AND_ASSIGN(
      r, conn.Post("/discover", R"({"table":"t"})"));
  EXPECT_EQ(r.status, 200);
  ASSERT_OK_AND_ASSIGN(v, ParseJson(r.body));
  EXPECT_EQ(v.Find("rows")->int_value(), 2);

  ASSERT_OK_AND_ASSIGN(
      r, conn.Post("/normalize", R"({"table":"t"})"));
  EXPECT_EQ(r.status, 200);
  ASSERT_OK_AND_ASSIGN(v, ParseJson(r.body));
  EXPECT_NE(v.Find("design"), nullptr);

  ASSERT_OK_AND_ASSIGN(r, conn.Get("/health"));
  EXPECT_EQ(r.status, 200);
  ASSERT_OK_AND_ASSIGN(v, ParseJson(r.body));
  EXPECT_EQ(v.Find("tables")->int_value(), 1);
}

// A service's one thread count is clamped into [1, 16] whatever
// `sqlnf serve --threads` says, and /validate reports it. A request
// cannot pick its own: a body's "threads" field is ignored, still with
// a 200.
TEST(ServerTest, ValidateReportsTheServiceThreadCountClampedTo16) {
  Database db;
  SessionRegistry registry(&db);
  SqlnfServiceOptions options;
  options.threads = 64;
  SqlnfService service(&registry, options);
  auto post = [&](const std::string& path, const std::string& body) {
    HttpRequest request;
    request.method = "POST";
    request.path = path;
    request.target = path;
    request.body = body;
    return service.Handle(request);
  };
  ASSERT_EQ(post("/query", R"({"sql":"CREATE TABLE t (a TEXT, b TEXT);)"
                           R"(INSERT INTO t VALUES ('1', 'x');"})")
                .status,
            200);
  for (const char* body : {R"({"table":"t","constraints":"a ->w b"})",
                           R"({"table":"t","constraints":"a ->w b",)"
                           R"("threads":1})"}) {
    const HttpResponse r = post("/validate", body);
    ASSERT_EQ(r.status, 200) << body;
    ASSERT_OK_AND_ASSIGN(JsonValue v, ParseJson(r.body));
    EXPECT_EQ(v.Find("threads")->int_value(), 16) << body;
    EXPECT_EQ(v.Find("violated")->int_value(), 0) << body;
  }
}

// GET /health only counts tables. Publishing a snapshot there would
// make the next write clone every column it touches, since the fresh
// epoch shares them; the write after /health must land in the same
// epoch as the write before it.
TEST(ServerTest, HealthPublishesNoSnapshot) {
  TestServer ts;
  ASSERT_OK_AND_ASSIGN(HttpConnection conn,
                       HttpConnection::Open(ts.server.port()));
  ASSERT_OK_AND_ASSIGN(
      HttpClientResponse r,
      conn.Post("/query", R"({"sql":"CREATE TABLE t (a TEXT);"})"));
  ASSERT_EQ(r.status, 200);
  ASSERT_OK_AND_ASSIGN(const TableSnapshot before, ts.db.GetSnapshot("t"));

  ASSERT_OK_AND_ASSIGN(
      r, conn.Post("/query", R"({"sql":"INSERT INTO t VALUES ('1');"})"));
  ASSERT_EQ(r.status, 200);
  ASSERT_OK_AND_ASSIGN(r, conn.Get("/health"));
  ASSERT_EQ(r.status, 200);
  ASSERT_OK_AND_ASSIGN(JsonValue v, ParseJson(r.body));
  EXPECT_EQ(v.Find("tables")->int_value(), 1);
  ASSERT_OK_AND_ASSIGN(
      r, conn.Post("/query", R"({"sql":"INSERT INTO t VALUES ('2');"})"));
  ASSERT_EQ(r.status, 200);

  ASSERT_OK_AND_ASSIGN(const TableSnapshot after, ts.db.GetSnapshot("t"));
  EXPECT_EQ(after.epoch, before.epoch + 1);
  EXPECT_EQ(after.num_rows(), 2);
}

TEST(ServerTest, ErrorsAreMachineReadable) {
  TestServer ts;
  ASSERT_OK_AND_ASSIGN(HttpConnection conn,
                       HttpConnection::Open(ts.server.port()));

  // SQL parse error → 400 with position fields.
  ASSERT_OK_AND_ASSIGN(HttpClientResponse r,
                       conn.Post("/query", R"({"sql":"SELEC nope;"})"));
  EXPECT_EQ(r.status, 400);
  ASSERT_OK_AND_ASSIGN(JsonValue v, ParseJson(r.body));
  EXPECT_FALSE(v.Find("ok")->bool_value());
  const JsonValue* error = v.Find("error");
  EXPECT_EQ(error->Find("code")->str_value(), "ParseError");
  EXPECT_EQ(error->Find("statement_index")->int_value(), 0);
  EXPECT_EQ(error->Find("line")->int_value(), 1);

  // Unknown table → 404; unknown endpoint → 404; wrong method → 405;
  // body not JSON → 400; missing field → 400.
  ASSERT_OK_AND_ASSIGN(r,
                       conn.Post("/normalize", R"({"table":"nope"})"));
  EXPECT_EQ(r.status, 404);
  ASSERT_OK_AND_ASSIGN(r, conn.Post("/frobnicate", "{}"));
  EXPECT_EQ(r.status, 404);
  ASSERT_OK_AND_ASSIGN(r, conn.Get("/query"));
  EXPECT_EQ(r.status, 405);
  ASSERT_OK_AND_ASSIGN(r, conn.Post("/query", "not json"));
  EXPECT_EQ(r.status, 400);
  ASSERT_OK_AND_ASSIGN(r, conn.Post("/query", R"({"nosql":true})"));
  EXPECT_EQ(r.status, 400);

  // A transaction left open is rolled back and reported as 409.
  ASSERT_OK_AND_ASSIGN(
      r, conn.Post("/query",
                   R"({"sql":"CREATE TABLE u (a TEXT); BEGIN; )"
                   R"(INSERT INTO u VALUES ('z');"})"));
  EXPECT_EQ(r.status, 409);
  ASSERT_OK_AND_ASSIGN(
      r, conn.Post("/query", R"({"sql":"SELECT * FROM u;"})"));
  ASSERT_OK_AND_ASSIGN(v, ParseJson(r.body));
  EXPECT_EQ(v.Find("statements")
                ->items()[0]
                .Find("affected")
                ->int_value(),
            0);
}

// A literal outside int64 is a ParseError at the literal, and the
// server keeps serving: the parser never throws out of a request.
TEST(ServerTest, OutOfRangeLiteralIsAParseError) {
  TestServer ts;
  ASSERT_OK_AND_ASSIGN(HttpConnection conn,
                       HttpConnection::Open(ts.server.port()));
  ASSERT_OK_AND_ASSIGN(
      HttpClientResponse r,
      conn.Post("/query", R"({"sql":"CREATE TABLE t (a INTEGER);"})"));
  EXPECT_EQ(r.status, 200);

  for (const char* sql :
       {"SELECT * FROM t WHERE a = 99999999999999999999;",
        "INSERT INTO t VALUES (-9223372036854775809);"}) {
    ASSERT_OK_AND_ASSIGN(
        r, conn.Post("/query", std::string(R"({"sql":")") + sql + R"("})"));
    EXPECT_EQ(r.status, 400) << sql;
    ASSERT_OK_AND_ASSIGN(JsonValue v, ParseJson(r.body));
    const JsonValue* error = v.Find("error");
    ASSERT_NE(error, nullptr) << r.body;
    EXPECT_EQ(error->Find("code")->str_value(), "ParseError");
    EXPECT_EQ(error->Find("byte_offset")->int_value(),
              std::string(sql).find_first_of("-9")) << sql;
  }

  ASSERT_OK_AND_ASSIGN(HttpConnection fresh,
                       HttpConnection::Open(ts.server.port()));
  ASSERT_OK_AND_ASSIGN(r, fresh.Get("/health"));
  EXPECT_EQ(r.status, 200);
  ASSERT_OK_AND_ASSIGN(
      r, conn.Post("/query", R"({"sql":"SELECT * FROM t;"})"));
  EXPECT_EQ(r.status, 200);
}

TEST(ServerTest, OversizedBodyRejectedWith413) {
  HttpServerOptions options;
  options.limits.max_body_bytes = 256;
  TestServer ts(options);
  ASSERT_OK_AND_ASSIGN(HttpConnection conn,
                       HttpConnection::Open(ts.server.port()));
  const std::string big(1024, 'x');
  ASSERT_OK_AND_ASSIGN(
      HttpClientResponse r,
      conn.Post("/query", R"({"sql":")" + big + R"("})"));
  EXPECT_EQ(r.status, 413);
  EXPECT_EQ(r.headers.at("connection"), "close");
}

TEST(ServerTest, MalformedRequestLineRejectedWith400) {
  TestServer ts;
  ASSERT_OK_AND_ASSIGN(HttpConnection conn,
                       HttpConnection::Open(ts.server.port()));
  ASSERT_OK_AND_ASSIGN(HttpClientResponse r,
                       conn.RoundTrip("GARBAGE\r\n\r\n"));
  EXPECT_EQ(r.status, 400);
}

TEST(ServerTest, KeepAliveServesManyRequestsPerConnection) {
  TestServer ts;
  ASSERT_OK_AND_ASSIGN(HttpConnection conn,
                       HttpConnection::Open(ts.server.port()));
  ASSERT_OK_AND_ASSIGN(
      HttpClientResponse r,
      conn.Post("/query", R"({"sql":"CREATE TABLE t (a TEXT);"})"));
  ASSERT_EQ(r.status, 200);
  for (int i = 0; i < 32; ++i) {
    ASSERT_OK_AND_ASSIGN(r, conn.Get("/health"));
    ASSERT_EQ(r.status, 200);
  }
}

// Many clients race reads and writes through the one service; every
// write lands exactly once and readers always get a committed count.
TEST(ServerTest, ConcurrentClientsSerializeCorrectly) {
  TestServer ts;
  {
    ASSERT_OK_AND_ASSIGN(HttpConnection conn,
                         HttpConnection::Open(ts.server.port()));
    ASSERT_OK_AND_ASSIGN(
        HttpClientResponse r,
        conn.Post("/query", R"({"sql":"CREATE TABLE t (a TEXT);"})"));
    ASSERT_EQ(r.status, 200);
  }
  constexpr int kClients = 4;
  constexpr int kWritesEach = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto conn = HttpConnection::Open(ts.server.port());
      if (!conn.ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < kWritesEach; ++i) {
        const std::string value = std::to_string(c * 100 + i);
        auto w = conn->Post(
            "/query",
            R"({"sql":"INSERT INTO t VALUES (')" + value + R"(');"})");
        if (!w.ok() || w->status != 200) ++failures;
        auto read =
            conn->Post("/query", R"({"sql":"SELECT * FROM t;"})");
        if (!read.ok() || read->status != 200) ++failures;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  ASSERT_OK_AND_ASSIGN(HttpConnection conn,
                       HttpConnection::Open(ts.server.port()));
  ASSERT_OK_AND_ASSIGN(
      HttpClientResponse r,
      conn.Post("/query", R"({"sql":"SELECT * FROM t;"})"));
  ASSERT_OK_AND_ASSIGN(JsonValue v, ParseJson(r.body));
  EXPECT_EQ(v.Find("statements")
                ->items()[0]
                .Find("affected")
                ->int_value(),
            kClients * kWritesEach);
}

TEST(ServerTest, StopIsCleanAndIdempotentWithConnectionsOpen) {
  TestServer ts;
  ASSERT_OK_AND_ASSIGN(HttpConnection idle,
                       HttpConnection::Open(ts.server.port()));
  ASSERT_OK_AND_ASSIGN(HttpClientResponse r, idle.Get("/health"));
  EXPECT_EQ(r.status, 200);

  ts.server.Stop();  // with `idle` still connected
  EXPECT_FALSE(idle.Get("/health").ok());
  ts.server.Stop();  // second stop is a no-op
}

}  // namespace
}  // namespace sqlnf

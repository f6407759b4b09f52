// net/http.h: the incremental request reader yields identical parses
// regardless of how the byte stream is fragmented, enforces its
// framing limits with the right status codes (400/413/431/501), and
// re-arms cleanly across keep-alive requests — all without a socket.

#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "sqlnf/net/http.h"

namespace sqlnf {
namespace {

using State = HttpRequestReader::State;

TEST(HttpReaderTest, ParsesPostWithBody) {
  HttpRequestReader reader;
  EXPECT_EQ(reader.Feed("POST /query?x=1 HTTP/1.1\r\n"
                        "Host: localhost\r\n"
                        "Content-Type: application/json\r\n"
                        "Content-Length: 11\r\n"
                        "\r\n"
                        "{\"sql\":\"a\"}"),
            State::kReady);
  const HttpRequest& req = reader.request();
  EXPECT_EQ(req.method, "POST");
  EXPECT_EQ(req.target, "/query?x=1");
  EXPECT_EQ(req.path, "/query");
  EXPECT_EQ(req.headers.at("host"), "localhost");
  EXPECT_EQ(req.body, "{\"sql\":\"a\"}");
  EXPECT_TRUE(req.keep_alive);
}

TEST(HttpReaderTest, ByteAtATimeMatchesOneShot) {
  const std::string wire =
      "POST /q HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
  HttpRequestReader reader;
  for (size_t i = 0; i + 1 < wire.size(); ++i) {
    ASSERT_EQ(reader.Feed(std::string_view(&wire[i], 1)),
              State::kNeedMore)
        << "byte " << i;
  }
  ASSERT_EQ(reader.Feed(std::string_view(&wire.back(), 1)), State::kReady);
  EXPECT_EQ(reader.request().body, "hello");
}

TEST(HttpReaderTest, KeepAliveReArmsAndHandlesPipelining) {
  HttpRequestReader reader;
  // Two pipelined requests in one feed.
  ASSERT_EQ(reader.Feed("GET /a HTTP/1.1\r\n\r\n"
                        "GET /b HTTP/1.1\r\nConnection: close\r\n\r\n"),
            State::kReady);
  EXPECT_EQ(reader.request().path, "/a");
  EXPECT_TRUE(reader.request().keep_alive);
  ASSERT_EQ(reader.ConsumeRequest(), State::kReady);
  EXPECT_EQ(reader.request().path, "/b");
  EXPECT_FALSE(reader.request().keep_alive);
  EXPECT_EQ(reader.ConsumeRequest(), State::kNeedMore);
}

TEST(HttpReaderTest, Http10DefaultsToClose) {
  HttpRequestReader reader;
  ASSERT_EQ(reader.Feed("GET / HTTP/1.0\r\n\r\n"), State::kReady);
  EXPECT_FALSE(reader.request().keep_alive);
  HttpRequestReader reader2;
  ASSERT_EQ(reader2.Feed("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"),
            State::kReady);
  EXPECT_TRUE(reader2.request().keep_alive);
}

TEST(HttpReaderTest, ToleratesBareLfFraming) {
  HttpRequestReader reader;
  ASSERT_EQ(reader.Feed("GET /x HTTP/1.1\nHost: h\n\n"), State::kReady);
  EXPECT_EQ(reader.request().path, "/x");
  EXPECT_EQ(reader.request().headers.at("host"), "h");
}

// A head holding both terminators ends at the one complete first, in
// one feed as when the second has not arrived yet: where the body
// starts must not depend on how recv() split the stream.
TEST(HttpReaderTest, HeadEndsAtTheFirstCompleteTerminator) {
  const std::string wire =
      "POST /x HTTP/1.1\nContent-Length: 2\n\nab\r\n\r\n";
  HttpRequestReader whole;
  ASSERT_EQ(whole.Feed(wire), State::kReady);
  EXPECT_EQ(whole.request().body, "ab");
  HttpRequestReader split;
  ASSERT_EQ(split.Feed(wire.substr(0, 38)), State::kReady);
  EXPECT_EQ(split.request().body, "ab");
  EXPECT_EQ(split.Feed(wire.substr(38)), State::kReady);
  // The CRLF CRLF left over is the next request's empty request line.
  EXPECT_EQ(whole.ConsumeRequest(), State::kError);
  EXPECT_EQ(split.ConsumeRequest(), State::kError);
  EXPECT_EQ(whole.error_status(), split.error_status());
}

// The head limit holds whatever the split: a head within the limit is
// accepted even when the bytes stop inside its CRLF CRLF.
TEST(HttpReaderTest, HeadLimitDoesNotDependOnTheSplit) {
  HttpReaderLimits limits;
  limits.max_head_bytes = 40;
  const std::string wire = "GET /" + std::string(24, 'a') + " HTTP/1.1\r\n\r\n";
  ASSERT_EQ(wire.find("\r\n\r\n"), 38u);
  HttpRequestReader whole(limits);
  EXPECT_EQ(whole.Feed(wire), State::kReady);
  HttpRequestReader split(limits);
  EXPECT_EQ(split.Feed(wire.substr(0, wire.size() - 1)), State::kNeedMore);
  EXPECT_EQ(split.Feed(wire.substr(wire.size() - 1)), State::kReady);
}

TEST(HttpReaderTest, MalformedRequestLineIs400) {
  for (const char* wire :
       {"\r\n\r\n",                       // empty request line
        "GET\r\n\r\n",                    // one token
        "GET /\r\n\r\n",                  // two tokens
        "GET / HTTP/1.1 extra\r\n\r\n",   // four tokens
        "GET / SMTP/1.0\r\n\r\n",         // wrong protocol
        "GET / HTTP/2.0\r\n\r\n"}) {      // unsupported version
    HttpRequestReader reader;
    EXPECT_EQ(reader.Feed(wire), State::kError) << wire;
    EXPECT_EQ(reader.error_status(), 400) << wire;
  }
}

TEST(HttpReaderTest, MalformedHeadersAre400) {
  for (const char* wire :
       {"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
        "GET / HTTP/1.1\r\n: empty-name\r\n\r\n",
        "GET / HTTP/1.1\r\nContent-Length: 12x\r\n\r\n",
        "GET / HTTP/1.1\r\nContent-Length: \r\n\r\n"}) {
    HttpRequestReader reader;
    EXPECT_EQ(reader.Feed(wire), State::kError) << wire;
    EXPECT_EQ(reader.error_status(), 400) << wire;
  }
}

// The one Content-Length check the request reader and the client
// share: plain decimal digits, at most 12 of them, never a throw.
TEST(HttpReaderTest, ContentLengthIsDigitsOnly) {
  size_t length = 7;
  EXPECT_TRUE(ParseContentLength("0", &length));
  EXPECT_EQ(length, 0u);
  EXPECT_TRUE(ParseContentLength("999999999999", &length));
  EXPECT_EQ(length, 999999999999u);
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "1e3", "0x10",
                          "9999999999999", "99999999999999999999"}) {
    EXPECT_FALSE(ParseContentLength(bad, &length)) << '"' << bad << '"';
  }
}

TEST(HttpReaderTest, OversizedHeadIs431) {
  HttpRequestReader::Limits limits;
  limits.max_head_bytes = 128;
  // Incomplete head already past the cap must be rejected without
  // waiting for the blank line (a drip-feed attacker never sends one).
  HttpRequestReader reader(limits);
  const std::string junk = "GET / HTTP/1.1\r\nX: " + std::string(200, 'a');
  EXPECT_EQ(reader.Feed(junk), State::kError);
  EXPECT_EQ(reader.error_status(), 431);

  // A complete-but-oversized head is rejected too.
  HttpRequestReader reader2(limits);
  const std::string complete = "GET / HTTP/1.1\r\nX: " +
                               std::string(200, 'a') + "\r\n\r\n";
  EXPECT_EQ(reader2.Feed(complete), State::kError);
  EXPECT_EQ(reader2.error_status(), 431);
}

TEST(HttpReaderTest, TooManyHeadersIs400) {
  HttpRequestReader::Limits limits;
  limits.max_headers = 4;
  limits.max_head_bytes = 1 << 20;
  std::string wire = "GET / HTTP/1.1\r\n";
  for (int i = 0; i < 6; ++i) {
    wire += "h" + std::to_string(i) + ": v\r\n";
  }
  wire += "\r\n";
  HttpRequestReader reader(limits);
  EXPECT_EQ(reader.Feed(wire), State::kError);
  EXPECT_EQ(reader.error_status(), 400);
}

TEST(HttpReaderTest, OversizedBodyIs413BeforeTheBodyArrives) {
  HttpRequestReader::Limits limits;
  limits.max_body_bytes = 64;
  HttpRequestReader reader(limits);
  // The reject happens on the declared length alone — no need to
  // receive (or buffer) a single body byte.
  EXPECT_EQ(reader.Feed("POST /q HTTP/1.1\r\nContent-Length: 100000\r\n\r\n"),
            State::kError);
  EXPECT_EQ(reader.error_status(), 413);
}

TEST(HttpReaderTest, TransferEncodingIs501) {
  HttpRequestReader reader;
  EXPECT_EQ(reader.Feed("POST /q HTTP/1.1\r\n"
                        "Transfer-Encoding: chunked\r\n\r\n"),
            State::kError);
  EXPECT_EQ(reader.error_status(), 501);
}

TEST(HttpResponseTest, SerializesStatusHeadersBody) {
  HttpResponse r;
  r.status = 404;
  r.body = "{\"ok\":false}";
  r.close = true;
  const std::string wire = SerializeHttpResponse(r);
  EXPECT_EQ(wire,
            "HTTP/1.1 404 Not Found\r\n"
            "Content-Length: 12\r\n"
            "Content-Type: application/json\r\n"
            "Connection: close\r\n"
            "\r\n"
            "{\"ok\":false}");
  // Empty body: no Content-Type, explicit zero length.
  HttpResponse empty;
  EXPECT_EQ(SerializeHttpResponse(empty),
            "HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n");
}

}  // namespace
}  // namespace sqlnf

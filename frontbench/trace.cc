// Traced half: an in-process replay of all three workloads against the
// library, for the per-layer numbers. The dataset is loaded with the
// same SQL batches through Session::Execute; then each workload's
// seeded light and heavy streams run on two threads, so the lock
// contention of `rw` is reproduced. Every request is rebuilt from the
// public layer functions the server runs (HttpRequestReader, ParseJson,
// SnapshotAll/GetSnapshot, ExecuteReadOnly, EqualityJoinEncoded,
// CompiledPredicate, SelectRowsEncoded, ParsedConstraints,
// ValidateConstraints, SqlSession::Execute, Database DML, RenderJson,
// SerializeHttpResponse), and every call is wrapped in a span
// {name, start, end, parent, request}. Counts are taken at the same
// boundaries. Spans stay in memory and are written out at exit.
//
// Two paths alternate request by request, because the library offers
// no hook inside ExecuteReadOnly or SqlSession::Execute:
//   * even requests take the server's own entry point (sql.read =
//     ExecuteReadOnly; sql.write_stmt = SqlSession::Execute per
//     statement), timing the SQL layer inclusive of what it calls;
//   * odd requests run the same statement through the layer functions
//     underneath (join, predicate.compile, relops.select, decode;
//     catalog.begin/update/insert/delete/commit), timing each layer.
// relops.select includes the compile SelectRowsEncoded does itself;
// predicate.compile times one more compile on its own. A layer's self
// time is its span minus its child spans; a request's self time is the
// time no layer accounts for.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "sqlnf/decomposition/encoded_ops.h"
#include "sqlnf/engine/catalog.h"
#include "sqlnf/engine/predicate.h"
#include "sqlnf/engine/relops.h"
#include "sqlnf/engine/result.h"
#include "sqlnf/engine/session.h"
#include "sqlnf/engine/sql.h"
#include "sqlnf/engine/writer_role.h"
#include "sqlnf/net/http.h"
#include "sqlnf/net/service.h"
#include "sqlnf/util/json.h"
#include "sqlnf/util/mutex.h"

namespace frontbench {
namespace {

using Clock = std::chrono::steady_clock;
using sqlnf::Database;
using sqlnf::QueryResult;
using sqlnf::ResultSet;

constexpr const char* kWorkloads[] = {"query", "validate", "rw"};
constexpr int kMinWarmups = 3;  // warm-up requests per stream, at least

struct Span {
  const char* name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  // index in the same tracer; -1 for a request root
  int64_t request = 0;
  int64_t count_a = -1;  // work counts recorded at the span's end
  int64_t count_b = -1;
};

// One thread's spans, in memory until the run ends.
class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  int Begin(const char* name, int parent, int64_t request) {
    spans_.push_back(Span{name, Now(), 0, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id, int64_t count_a = -1, int64_t count_b = -1) {
    Span& s = spans_[id];
    s.end_ns = Now();
    s.count_a = count_a;
    s.count_b = count_b;
  }
  const std::vector<Span>& spans() const { return spans_; }
  void Clear() { spans_.clear(); }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// Root span names, one per request class (span names must outlive the
// tracer, so they are literals).
const char* RootName(const std::string& cls) {
  static constexpr const char* kRoots[] = {
      "req.point", "req.range", "req.in",     "req.or", "req.join",
      "req.key",   "req.fd",    "req.lookup", "req.txn"};
  for (const char* root : kRoots) {
    if (cls == root + 4) return root;
  }
  return "req.other";
}

std::string RawHttp(const Request& r) {
  return "POST " + r.path +
         " HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json"
         "\r\nContent-Length: " +
         std::to_string(r.body.size()) + "\r\n\r\n" + r.body;
}

sqlnf::Result<sqlnf::Predicate> Bind(const Dnf& where,
                                     const sqlnf::TableSchema& schema) {
  if (where.empty()) return sqlnf::Predicate::True();
  sqlnf::Predicate pred;
  for (const std::vector<Atom>& conj : where) {
    sqlnf::Conjunction bound;
    for (const Atom& a : conj) {
      SQLNF_ASSIGN_OR_RETURN(sqlnf::AttributeId id,
                             schema.FindAttribute(a.column));
      switch (a.op) {
        case Atom::Op::kEq:
          bound.push_back(sqlnf::Cmp(id, sqlnf::CompareOp::kEq, a.values[0]));
          break;
        case Atom::Op::kBetween:
          bound.push_back(sqlnf::Between(id, a.values[0], a.values[1]));
          break;
        case Atom::Op::kIn:
          bound.push_back(sqlnf::In(id, a.values));
          break;
      }
    }
    pred.disjuncts.push_back(std::move(bound));
  }
  return pred;
}

int64_t DictEntries(Database* db) {
  int64_t n = 0;
  for (const auto& [name, snap] : db->SnapshotAll()) {
    for (int d : snap.columns->DictionarySizes()) n += d;
  }
  return n;
}

class Replayer {
 public:
  Replayer(Database* db, sqlnf::SessionRegistry* registry)
      : db_(db), registry_(registry) {}

  // Serves one request through the layers; returns the HTTP status and
  // fills `body` with the JSON answer.
  int Execute(const Request& req, bool layered, Tracer* tr, int64_t rid,
              uint64_t* last_epoch, std::string* body) {
    const std::string raw = RawHttp(req);
    const int root = tr->Begin(RootName(req.cls), -1, rid);
    int s = tr->Begin("net.parse", root, rid);
    sqlnf::HttpRequestReader reader;
    const bool framed =
        reader.Feed(raw) == sqlnf::HttpRequestReader::State::kReady;
    tr->End(s, static_cast<int64_t>(raw.size()));
    int status = 200;
    if (!framed) {
      status = 400;
      *body = "unframed request";
    } else {
      s = tr->Begin("json.parse", root, rid);
      sqlnf::Result<sqlnf::JsonValue> json =
          sqlnf::ParseJson(reader.request().body);
      tr->End(s);
      if (!json.ok()) {
        status = 400;
        *body = json.status().ToString();
      } else if (req.path == "/validate") {
        status = Validate(*json, tr, root, rid, body);
      } else if (req.txn.empty()) {
        status = Select(req, *json, layered, tr, root, rid, last_epoch, body);
      } else {
        status = Txn(req, layered, tr, root, rid, body);
      }
    }
    s = tr->Begin("net.serialize", root, rid);
    sqlnf::HttpResponse response;
    response.status = status;
    response.body = *body;
    const std::string wire = sqlnf::SerializeHttpResponse(response);
    tr->End(s, static_cast<int64_t>(wire.size()));
    tr->End(root);
    return status;
  }

 private:
  int Render(const ResultSet& rs, Tracer* tr, int root, int64_t rid,
             std::string* body) {
    const int s = tr->Begin("result.render", root, rid);
    *body = sqlnf::RenderJson(rs);
    tr->End(s, static_cast<int64_t>(body->size()));
    return rs.ok() ? 200 : sqlnf::HttpStatusFor(rs.status.code());
  }

  static int Error(const sqlnf::Status& st, std::string* body) {
    *body = st.ToString();
    return 500;
  }

  int Validate(const sqlnf::JsonValue& json, Tracer* tr, int root,
               int64_t rid, std::string* body) {
    sqlnf::Result<std::string> table = json.GetString("table");
    sqlnf::Result<std::string> text = json.GetString("constraints");
    if (!table.ok() || !text.ok()) return Error(table.status(), body);
    int s = tr->Begin("catalog.snapshot", root, rid);
    sqlnf::Result<sqlnf::TableSnapshot> snap = db_->GetSnapshot(*table);
    tr->End(s, 0);
    if (!snap.ok()) return Error(snap.status(), body);
    s = tr->Begin("constraints.parse", root, rid);
    auto sigma = registry_->ParsedConstraints(snap->schema, *text);
    tr->End(s);
    if (!sigma.ok()) return Error(sigma.status(), body);
    s = tr->Begin("validate", root, rid);
    const sqlnf::ValidationReport report = sqlnf::ValidateConstraints(
        snap->schema, *snap->columns, **sigma, /*threads=*/1);
    tr->End(s, report.rows);
    s = tr->Begin("result.render", root, rid);
    *body = report.RenderJson();
    tr->End(s, static_cast<int64_t>(body->size()));
    return 200;
  }

  int Select(const Request& req, const sqlnf::JsonValue& json, bool layered,
             Tracer* tr, int root, int64_t rid, uint64_t* last_epoch,
             std::string* body) {
    sqlnf::Result<std::string> sql = json.GetString("sql");
    if (!sql.ok()) return Error(sql.status(), body);
    int s = tr->Begin("catalog.snapshot", root, rid);
    const std::map<std::string, sqlnf::TableSnapshot> snaps =
        db_->SnapshotAll();
    auto first = snaps.find(req.select.tables[0]);
    const uint64_t epoch = first != snaps.end() ? first->second.epoch : 0;
    tr->End(s, static_cast<int64_t>(epoch - *last_epoch));
    *last_epoch = epoch;

    ResultSet rs;
    if (!layered) {
      s = tr->Begin("sql.read", root, rid);
      sqlnf::Result<QueryResult> r = sqlnf::ExecuteReadOnly(snaps, *sql);
      tr->End(s);
      if (!r.ok()) return Error(r.status(), body);
      rs.statements.push_back(std::move(*r));
      return Render(rs, tr, root, rid, body);
    }

    // The same SELECT through the layers under ExecuteReadOnly.
    const sqlnf::TableSchema* schema = &first->second.schema;
    const sqlnf::EncodedTable* cols = first->second.columns.get();
    std::optional<sqlnf::EncodedRelation> joined;
    for (size_t i = 1; i < req.select.tables.size(); ++i) {
      const sqlnf::TableSnapshot& right = snaps.at(req.select.tables[i]);
      s = tr->Begin("join", root, rid);
      auto next = sqlnf::EqualityJoinEncoded(*schema, *cols, right.schema,
                                             *right.columns,
                                             req.select.tables[0] + "_join");
      tr->End(s, right.num_rows(), next.ok() ? next->columns.num_rows() : -1);
      if (!next.ok()) return Error(next.status(), body);
      joined = std::move(*next);
      schema = &joined->schema;
      cols = &joined->columns;
    }
    sqlnf::Result<sqlnf::Predicate> pred = Bind(req.select.where, *schema);
    if (!pred.ok()) return Error(pred.status(), body);
    s = tr->Begin("predicate.compile", root, rid);
    {
      const sqlnf::CompiledPredicate compiled(*cols, *pred);
      (void)compiled.never_matches();
    }
    tr->End(s);
    s = tr->Begin("relops.select", root, rid);
    const std::vector<int> sel = sqlnf::SelectRowsEncoded(*cols, *pred);
    tr->End(s, cols->num_rows(), static_cast<int64_t>(sel.size()));

    s = tr->Begin("decode", root, rid);
    std::vector<sqlnf::AttributeId> ids;
    std::vector<std::string> names;
    for (sqlnf::AttributeId a = 0; a < schema->num_attributes(); ++a) {
      if (req.select.columns.empty()) {
        ids.push_back(a);
        names.push_back(schema->attribute_name(a));
      }
    }
    for (const std::string& c : req.select.columns) {
      ids.push_back(*schema->FindAttribute(c));
      names.push_back(c);
    }
    Table out(*sqlnf::TableSchema::Make("result", names));
    out.ReserveRows(static_cast<int>(sel.size()));
    for (int row : sel) {
      std::vector<Value> values;
      values.reserve(ids.size());
      for (sqlnf::AttributeId id : ids) {
        values.push_back(cols->DecodeCode(id, cols->code(id, row)));
      }
      (void)out.AddRow(sqlnf::Tuple(std::move(values)));
    }
    tr->End(s, static_cast<int64_t>(sel.size()));
    QueryResult qr;
    qr.affected = out.num_rows();
    qr.message = std::to_string(out.num_rows()) + " row(s)";
    qr.rows = std::move(out);
    rs.statements.push_back(std::move(qr));
    return Render(rs, tr, root, rid, body);
  }

  int Txn(const Request& req, bool layered, Tracer* tr, int root,
          int64_t rid, std::string* body) {
    ResultSet rs;
    {
      sqlnf::MutexLock lock(registry_->writer_mu());
      sqlnf::WriterScope writer;
      if (!layered) {
        sqlnf::SqlSession session(db_);
        for (const TxnStmt& st : req.txn) {
          const int s = tr->Begin("sql.write_stmt", root, rid);
          sqlnf::Result<QueryResult> r = session.Execute(st.sql);
          tr->End(s);
          if (!r.ok()) {
            rs.status = r.status();
            break;
          }
          rs.statements.push_back(std::move(*r));
        }
      } else {
        for (const TxnStmt& st : req.txn) {
          sqlnf::Status status = Apply(st, tr, root, rid, &rs);
          if (!status.ok()) {
            rs.status = status;
            break;
          }
        }
      }
      if (db_->InTransaction()) (void)db_->Rollback();
    }
    return Render(rs, tr, root, rid, body);
  }

  // One transaction statement straight through the Database API.
  sqlnf::Status Apply(const TxnStmt& st, Tracer* tr, int root, int64_t rid,
                      ResultSet* rs) SQLNF_REQUIRES(sqlnf::writer_thread_role) {
    if (!region_schema_) {
      SQLNF_ASSIGN_OR_RETURN(sqlnf::TableSnapshot snap,
                             db_->GetSnapshot("region"));
      region_schema_ = snap.schema;
    }
    QueryResult qr;
    int s = -1;
    switch (st.kind) {
      case TxnStmt::Kind::kBegin: {
        s = tr->Begin("catalog.begin", root, rid);
        const sqlnf::Status status = db_->Begin();
        tr->End(s);
        SQLNF_RETURN_NOT_OK(status);
        break;
      }
      case TxnStmt::Kind::kUpdate: {
        SQLNF_ASSIGN_OR_RETURN(sqlnf::Predicate pred,
                               Bind({st.where}, *region_schema_));
        SQLNF_ASSIGN_OR_RETURN(sqlnf::AttributeId col,
                               region_schema_->FindAttribute(st.set_column));
        s = tr->Begin("catalog.update", root, rid);
        sqlnf::Result<int> n = db_->Update("region", pred, col, st.set_value);
        tr->End(s, n.ok() ? *n : -1);
        SQLNF_RETURN_NOT_OK(n.status());
        qr.affected = *n;
        break;
      }
      case TxnStmt::Kind::kInsert: {
        s = tr->Begin("catalog.insert", root, rid);
        const sqlnf::Status status = db_->Insert("region", sqlnf::Tuple(st.row));
        tr->End(s, 1);
        SQLNF_RETURN_NOT_OK(status);
        qr.affected = 1;
        break;
      }
      case TxnStmt::Kind::kDelete: {
        SQLNF_ASSIGN_OR_RETURN(sqlnf::Predicate pred,
                               Bind({st.where}, *region_schema_));
        s = tr->Begin("catalog.delete", root, rid);
        sqlnf::Result<int> n = db_->Delete("region", pred);
        tr->End(s, n.ok() ? *n : -1);
        SQLNF_RETURN_NOT_OK(n.status());
        qr.affected = *n;
        break;
      }
      case TxnStmt::Kind::kCommit: {
        s = tr->Begin("catalog.commit", root, rid);
        const sqlnf::Status status = db_->Commit();
        tr->End(s);
        SQLNF_RETURN_NOT_OK(status);
        break;
      }
    }
    rs->statements.push_back(std::move(qr));
    return sqlnf::Status::OK();
  }

  Database* db_;
  sqlnf::SessionRegistry* registry_;
  std::optional<sqlnf::TableSchema> region_schema_;  // writer thread only
};

struct StreamRun {
  std::string workload;
  const char* stream;
  Tracer tracer;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string first_failure;
  int64_t dict_before = -1;  // rw heavy: dictionary entries at t0
};

// A closed loop like serve.cc's; requests before `measure_from` run on
// a scratch tracer whose spans are dropped.
void ReplayStream(Replayer* replayer, Database* db, Stream* stream,
                  int64_t stream_id, Clock::time_point epoch,
                  Clock::time_point measure_from, Clock::time_point until,
                  bool record_dict, StreamRun* run) {
  Tracer warm(epoch);
  int warmups = 0;
  uint64_t last_epoch = 0;
  for (int64_t seq = 0;; ++seq) {
    const Request request = stream->Next();
    std::this_thread::sleep_for(std::chrono::microseconds(request.think_us));
    const Clock::time_point t0 = Clock::now();
    const bool warmup = t0 < measure_from || warmups < kMinWarmups;
    if (!warmup && t0 >= until) break;
    if (!warmup && record_dict && run->dict_before < 0) {
      run->dict_before = DictEntries(db);
    }
    warm.Clear();
    std::string body;
    const int status =
        replayer->Execute(request, seq % 2 == 1, warmup ? &warm : &run->tracer,
                          (stream_id << 32) | seq, &last_epoch, &body);
    ++run->attempted;
    warmups += warmup ? 1 : 0;
    std::string why;
    if (!CheckResponse(request, status, body, &why)) {
      ++run->failed;
      if (run->first_failure.empty()) run->first_failure = why;
    }
  }
}

struct LayerStats {
  int64_t calls = 0;
  double self_ns = 0;
  double count_a = 0;
  double count_b = 0;
};

// Self time and counts per span name for one stream's spans.
std::map<std::string, LayerStats> Summarize(const std::vector<Span>& spans) {
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, LayerStats> stats;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    LayerStats& st = stats[s.name];
    ++st.calls;
    st.self_ns += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]);
    st.count_a += static_cast<double>(std::max<int64_t>(s.count_a, 0));
    st.count_b += static_cast<double>(std::max<int64_t>(s.count_b, 0));
  }
  return stats;
}

void WriteSpans(const std::string& path, const std::vector<StreamRun>& runs) {
  std::ofstream out(path);
  out << "workload\tstream\trequest\tspan\tname\tparent\tstart_ns\tend_ns"
         "\tcount_a\tcount_b\n";
  for (const StreamRun& run : runs) {
    const std::vector<Span>& spans = run.tracer.spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << run.workload << '\t' << run.stream << '\t' << s.request << '\t'
          << i << '\t' << s.name << '\t' << s.parent << '\t' << s.start_ns
          << '\t' << s.end_ns << '\t' << s.count_a << '\t' << s.count_b
          << '\n';
    }
  }
}

// The per-layer metrics, named <workload>.<stream>.<metric>. `us` is a
// span's mean self time per call; `a`/`b` are the mean counts it
// recorded.
struct Want {
  const char* stream;
  const char* span;
  char what;  // 't' self time, 'a' / 'b' count
  const char* metric;
};

const std::map<std::string, std::vector<Want>>& Wanted() {
  static const std::map<std::string, std::vector<Want>> wanted = {
      {"query",
       {
           {"light", "net.parse", 't', "net.parse_us"},
           {"light", "json.parse", 't', "json.parse_us"},
           {"light", "catalog.snapshot", 't', "catalog.snapshot_us"},
           {"light", "catalog.snapshot", 'a', "catalog.epochs_per_read"},
           {"light", "sql.read", 't', "sql.read_us"},
           {"light", "predicate.compile", 't', "predicate.compile_us"},
           {"light", "relops.select", 't', "relops.select_us"},
           {"light", "relops.select", 'a', "relops.rows_scanned"},
           {"light", "relops.select", 'b', "relops.rows_selected"},
           {"light", "decode", 't', "decode_us"},
           {"light", "result.render", 't', "result.render_us"},
           {"light", "result.render", 'a', "result.bytes"},
           {"light", "net.serialize", 't', "net.serialize_us"},
           {"heavy", "net.parse", 't', "net.parse_us"},
           {"heavy", "json.parse", 't', "json.parse_us"},
           {"heavy", "catalog.snapshot", 't', "catalog.snapshot_us"},
           {"heavy", "sql.read", 't', "sql.read_us"},
           {"heavy", "join", 't', "join_us"},
           {"heavy", "join", 'a', "join.build_rows"},
           {"heavy", "join", 'b', "join.out_rows"},
           {"heavy", "predicate.compile", 't', "predicate.compile_us"},
           {"heavy", "relops.select", 't', "relops.select_us"},
           {"heavy", "relops.select", 'b', "relops.rows_selected"},
           {"heavy", "decode", 't', "decode_us"},
           {"heavy", "result.render", 't', "result.render_us"},
           {"heavy", "result.render", 'a', "result.bytes"},
           {"heavy", "net.serialize", 't', "net.serialize_us"},
       }},
      {"validate",
       {
           {"light", "net.parse", 't', "net.parse_us"},
           {"light", "json.parse", 't', "json.parse_us"},
           {"light", "catalog.snapshot", 't', "catalog.snapshot_us"},
           {"light", "constraints.parse", 't', "constraints.parse_us"},
           {"light", "validate", 't', "validate_us"},
           {"light", "result.render", 't', "result.render_us"},
           {"light", "net.serialize", 't', "net.serialize_us"},
           {"heavy", "net.parse", 't', "net.parse_us"},
           {"heavy", "json.parse", 't', "json.parse_us"},
           {"heavy", "catalog.snapshot", 't', "catalog.snapshot_us"},
           {"heavy", "constraints.parse", 't', "constraints.parse_us"},
           {"heavy", "validate", 't', "validate_us"},
           {"heavy", "result.render", 't', "result.render_us"},
           {"heavy", "net.serialize", 't', "net.serialize_us"},
       }},
      {"rw",
       {
           {"light", "net.parse", 't', "net.parse_us"},
           {"light", "json.parse", 't', "json.parse_us"},
           {"light", "catalog.snapshot", 't', "catalog.snapshot_us"},
           {"light", "catalog.snapshot", 'a', "catalog.epochs_per_read"},
           {"light", "sql.read", 't', "sql.read_us"},
           {"light", "predicate.compile", 't', "predicate.compile_us"},
           {"light", "relops.select", 't', "relops.select_us"},
           {"light", "relops.select", 'a', "relops.rows_scanned"},
           {"light", "decode", 't', "decode_us"},
           {"light", "result.render", 't', "result.render_us"},
           {"light", "net.serialize", 't', "net.serialize_us"},
           {"heavy", "net.parse", 't', "net.parse_us"},
           {"heavy", "json.parse", 't', "json.parse_us"},
           {"heavy", "sql.write_stmt", 't', "sql.write_stmt_us"},
           {"heavy", "catalog.begin", 't', "catalog.begin_us"},
           {"heavy", "catalog.update", 't', "catalog.update_us"},
           {"heavy", "catalog.update", 'a', "catalog.rows_matched_per_update"},
           {"heavy", "catalog.insert", 't', "catalog.insert_us"},
           {"heavy", "catalog.delete", 't', "catalog.delete_us"},
           {"heavy", "catalog.commit", 't', "catalog.commit_us"},
           {"heavy", "result.render", 't', "result.render_us"},
           {"heavy", "net.serialize", 't', "net.serialize_us"},
       }},
  };
  return wanted;
}

std::string MetricUnit(char what, const std::string& metric) {
  if (what == 't') return "us";
  if (metric.find("bytes") != std::string::npos) return "bytes";
  return "count";
}

}  // namespace

int RunTrace(const Options& options, const Dataset& data, Outcome* outcome) {
  Database db;
  sqlnf::SessionRegistry registry(&db);
  {
    const Clock::time_point start = Clock::now();
    sqlnf::Session session(&registry);
    std::vector<std::string> load = {data.create_sql};
    for (std::string& batch : InsertBatches(data, 512 * 1024)) {
      load.push_back(std::move(batch));
    }
    for (const std::string& script : load) {
      const ResultSet rs = session.Execute(script);
      if (!rs.ok()) {
        std::fprintf(stderr, "trace load: %s\n",
                     rs.error.ToString().c_str());
        return 1;
      }
    }
    std::printf("trace: loaded %lld rows in %.3f s\n",
                static_cast<long long>(data.total_rows),
                std::chrono::duration<double>(Clock::now() - start).count());
  }

  // Each workload gets a third of the run; rw goes last because it
  // writes (its writes leave row counts and dictionaries flat anyway).
  const Clock::time_point epoch = Clock::now();
  const auto segment = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(options.seconds / 3));
  Replayer replayer(&db, &registry);
  std::vector<StreamRun> runs;
  runs.reserve(6);
  std::map<std::string, double> extra;
  for (const char* workload : kWorkloads) {
    const int64_t hits = registry.cache_hits();
    const int64_t misses = registry.cache_misses();
    runs.push_back(StreamRun{workload, "light", Tracer(epoch), 0, 0, "", -1});
    runs.push_back(StreamRun{workload, "heavy", Tracer(epoch), 0, 0, "", -1});
    StreamRun* light_run = &runs[runs.size() - 2];
    StreamRun* heavy_run = &runs.back();
    Stream light(&data, workload, StreamKind::kLight, options.seed);
    Stream heavy(&data, workload, StreamKind::kHeavy, options.seed);
    const Clock::time_point from =
        Clock::now() + std::chrono::milliseconds(300);
    const Clock::time_point until = from + segment;
    const bool rw = std::string(workload) == "rw";
    std::thread heavy_thread(ReplayStream, &replayer, &db, &heavy, 2, epoch,
                             from, until, rw, heavy_run);
    ReplayStream(&replayer, &db, &light, 1, epoch, from, until, false,
                 light_run);
    heavy_thread.join();
    if (rw) {
      extra["rw.encoded_table.dict_entries_before"] =
          static_cast<double>(heavy_run->dict_before);
      extra["rw.encoded_table.dict_entries_after"] =
          static_cast<double>(DictEntries(&db));
    }
    if (std::string(workload) == "validate") {
      const double h = static_cast<double>(registry.cache_hits() - hits);
      const double m = static_cast<double>(registry.cache_misses() - misses);
      extra["validate.session.cache_hit_ratio"] = h + m > 0 ? h / (h + m) : 0;
    }
  }
  if (!options.out_dir.empty()) {
    WriteSpans(options.out_dir + "/spans-" + options.workload + ".tsv", runs);
  }

  // Human-readable breakdown first, then the metrics.
  for (const StreamRun& run : runs) {
    outcome->attempted += run.attempted;
    outcome->failed += run.failed;
    if (!run.first_failure.empty()) {
      std::fprintf(stderr, "oracle: %s.%s %s\n", run.workload.c_str(),
                   run.stream, run.first_failure.c_str());
    }
    const std::map<std::string, LayerStats> stats =
        Summarize(run.tracer.spans());
    std::printf("%s.%s\n", run.workload.c_str(), run.stream);
    for (const auto& [name, st] : stats) {
      std::printf("  %-20s calls %7lld  self %10.2f us/call\n", name.c_str(),
                  static_cast<long long>(st.calls),
                  st.self_ns / 1e3 / static_cast<double>(st.calls));
      if (name.rfind("req.", 0) == 0) {
        // A request's self time is what no layer accounts for.
        outcome->metrics.push_back(
            {run.workload + "." + name.substr(4) + ".unaccounted_us",
             st.self_ns / 1e3 / static_cast<double>(st.calls), "us"});
      }
    }
    for (const Want& want : Wanted().at(run.workload)) {
      if (run.stream != std::string(want.stream)) continue;
      auto it = stats.find(want.span);
      double value = 0;
      if (it != stats.end() && it->second.calls > 0) {
        const LayerStats& st = it->second;
        const double per = 1.0 / static_cast<double>(st.calls);
        value = want.what == 't'   ? st.self_ns / 1e3 * per
                : want.what == 'a' ? st.count_a * per
                                   : st.count_b * per;
      }
      outcome->metrics.push_back(
          {run.workload + "." + run.stream + "." + want.metric, value,
           MetricUnit(want.what, want.metric)});
    }
  }
  for (const auto& [name, value] : extra) {
    outcome->metrics.push_back(
        {name, value, name.find("ratio") != std::string::npos ? "ratio"
                                                               : "count"});
  }
  return 0;
}

}  // namespace frontbench

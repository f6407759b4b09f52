// Shared by both halves of the front-door benchmark (serve.cc drives
// `sqlnf serve` over loopback HTTP; trace.cc replays the same requests
// in-process with spans): the dataset, its SQL load script, the seeded
// light/heavy request streams of each workload, and the response
// oracle that every answer is checked against.
//
// Dataset: the paper's Section-7 contractor replica crossed with
// new = 1..1000 (173,000 rows x 23 columns), declared with the three
// λ-FDs as CERTAIN FD clauses, next to its four Algorithm-3 components
// (region 38k x 5 with CERTAIN KEY (new, city, url), version 67k x 6,
// remainder 173k x 18, site 73k x 5). Nothing here depends on the seed;
// the seed only drives the streams.

#ifndef FRONTBENCH_WORKLOAD_H_
#define FRONTBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "sqlnf/core/table.h"
#include "sqlnf/util/status.h"

namespace frontbench {

using sqlnf::Table;
using sqlnf::Value;

struct Dataset {
  Table base;                 // the 173-row contractor replica
  std::vector<Table> tables;  // contractor, region, version, site, remainder
  std::string create_sql;     // every CREATE TABLE, one script
  int64_t total_rows = 0;     // rows over all tables (524k)
  std::vector<Value> status_pool;  // values the rw writer writes

  const Table& Find(const std::string& name) const;
};

sqlnf::Result<Dataset> BuildDataset();

/// INSERT scripts covering every row of every table, each at most
/// about `max_bytes` of SQL, in load order.
std::vector<std::string> InsertBatches(const Dataset& data,
                                       size_t max_bytes);

/// The POST /query body {"sql": ...} for a script.
std::string QueryBody(const std::string& sql);

/// SQL literal for a cell: 'quoted' strings, bare integers, NULL.
std::string SqlLiteral(const Value& v);

/// One WHERE atom, columns by name: col = v, col BETWEEN v0 AND v1, or
/// col IN (v...).
struct Atom {
  enum class Op { kEq, kBetween, kIn } op = Op::kEq;
  std::string column;
  std::vector<Value> values;
};
using Dnf = std::vector<std::vector<Atom>>;

/// A SELECT in structured form, so the traced replay can rebuild it
/// from the public layer functions instead of the SQL text.
struct Select {
  std::vector<std::string> tables;   // FROM, then NATURAL JOIN chain
  std::vector<std::string> columns;  // empty = *
  Dnf where;
};

/// One statement of the rw writer's transaction.
struct TxnStmt {
  enum class Kind { kBegin, kUpdate, kInsert, kDelete, kCommit } kind;
  std::string sql;
  std::vector<Atom> where;  // kUpdate / kDelete: the key
  std::string set_column;   // kUpdate
  Value set_value;          // kUpdate
  std::vector<Value> row;   // kInsert
  int expect_affected = 0;
};

struct Request {
  std::string cls;   // point, range, in, or, join, key, fd, lookup, txn
  int think_us = 0;  // pause between the previous reply and this request
  std::string path;  // /query or /validate
  std::string body;  // JSON request body
  // /query: either one SELECT or a transaction script.
  std::string sql;
  Select select;
  std::vector<TxnStmt> txn;
  int64_t expect_rows = 0;  // SELECT rows, or validated table rows
  // /validate
  std::string table;
  std::string constraints;
};

enum class StreamKind { kLight, kHeavy };

/// A workload's light or heavy request stream. Deterministic in
/// (workload, stream, seed); the rw heavy stream also tracks what it
/// has written, so its oracle knows every UPDATE changes one row.
class Stream {
 public:
  Stream(const Dataset* data, std::string workload, StreamKind kind,
         uint64_t seed);
  Request Next();

 private:
  Request NextQueryLight();
  Request NextQueryHeavy();
  Request NextLookup();
  Request NextTxn();

  const Dataset* data_;
  std::string workload_;
  StreamKind kind_;
  std::mt19937_64 rng_;
  std::vector<int> rotation_;  // seeded order of the query light mix
  size_t rotation_pos_ = 0;
  std::map<int, Value> status_;  // rw: region row -> status written
  int64_t txns_ = 0;
};

bool IsWorkload(const std::string& name);

/// The response oracle: checks an HTTP status and body against what
/// the request must return on this dataset. On mismatch returns false
/// and says why.
bool CheckResponse(const Request& request, int http_status,
                   const std::string& body, std::string* why);

}  // namespace frontbench

#endif  // FRONTBENCH_WORKLOAD_H_

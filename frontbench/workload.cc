#include "workload.h"

#include <algorithm>
#include <utility>

#include "sqlnf/constraints/parser.h"
#include "sqlnf/datagen/lmrp.h"
#include "sqlnf/decomposition/decomposition.h"
#include "sqlnf/decomposition/vrnf_decompose.h"
#include "sqlnf/engine/relops.h"
#include "sqlnf/util/json.h"

namespace frontbench {
namespace {

using sqlnf::AttributeSet;
using sqlnf::TableSchema;

constexpr int kNew = 1000;  // the paper's cross-product factor
constexpr int kFreshNew = kNew + 1;  // rw inserts new = 1001 / 1002

// The three λ-FDs of Section 7 on the crossed schema (`new` joins every
// LHS), as in bench/bench_validation_perf.cc.
constexpr char kLambdaFds[] =
    "new,city,url ->w new,city,url,dmerc_rgn,status; "
    "new,cmd_name,phone,url ->w "
    "new,cmd_name,phone,url,contractor_version,status_flag; "
    "new,address1,contractor_bus_name,contractor_type_id ->w "
    "new,address1,contractor_bus_name,contractor_type_id,url";

std::string ColumnList(const TableSchema& schema, const AttributeSet& set) {
  std::string out;
  for (sqlnf::AttributeId a : set) {
    if (!out.empty()) out += ", ";
    out += schema.attribute_name(a);
  }
  return out;
}

std::string CreateTable(const std::string& name, const TableSchema& schema,
                        const std::vector<std::string>& clauses) {
  std::string sql = "CREATE TABLE " + name + " (";
  for (sqlnf::AttributeId a = 0; a < schema.num_attributes(); ++a) {
    if (a > 0) sql += ", ";
    sql += schema.attribute_name(a) + " TEXT";
    if (schema.nfs().Contains(a)) sql += " NOT NULL";
  }
  for (const std::string& clause : clauses) sql += ", " + clause;
  return sql + ");\n";
}

std::string ComponentName(const TableSchema& schema, bool multiset) {
  auto has = [&](const char* column) {
    return schema.FindAttribute(column).ok();
  };
  if (multiset) return "remainder";
  if (has("dmerc_rgn")) return "region";
  if (has("contractor_version")) return "version";
  return "site";
}

int Col(const Table& t, const char* name) {
  return *t.schema().FindAttribute(name);
}

// Rows of the 173-row replica whose `column` equals `v` (marker
// equality, as the engine's WHERE uses). Every crossed row is one
// (new, replica row) pair, so per `new` the crossed table holds exactly
// this many matches.
int64_t CountBase(const Table& base, const char* column, const Value& v) {
  const int c = Col(base, column);
  int64_t n = 0;
  for (const sqlnf::Tuple& t : base.rows()) n += t[c] == v ? 1 : 0;
  return n;
}

Atom Eq(std::string column, Value v) {
  return Atom{Atom::Op::kEq, std::move(column), {std::move(v)}};
}

std::string WhereSql(const Dnf& where) {
  std::string sql;
  for (size_t d = 0; d < where.size(); ++d) {
    if (d > 0) sql += " OR ";
    for (size_t i = 0; i < where[d].size(); ++i) {
      const Atom& a = where[d][i];
      if (i > 0) sql += " AND ";
      sql += a.column;
      switch (a.op) {
        case Atom::Op::kEq:
          sql += " = " + SqlLiteral(a.values[0]);
          break;
        case Atom::Op::kBetween:
          sql += " BETWEEN " + SqlLiteral(a.values[0]) + " AND " +
                 SqlLiteral(a.values[1]);
          break;
        case Atom::Op::kIn:
          sql += " IN (";
          for (size_t j = 0; j < a.values.size(); ++j) {
            if (j > 0) sql += ", ";
            sql += SqlLiteral(a.values[j]);
          }
          sql += ")";
          break;
      }
    }
  }
  return sql;
}

std::string SelectSql(const Select& s) {
  std::string sql = "SELECT ";
  if (s.columns.empty()) sql += "*";
  for (size_t i = 0; i < s.columns.size(); ++i) {
    sql += (i > 0 ? ", " : "") + s.columns[i];
  }
  sql += " FROM " + s.tables[0];
  for (size_t i = 1; i < s.tables.size(); ++i) {
    sql += " NATURAL JOIN " + s.tables[i];
  }
  if (!s.where.empty()) sql += " WHERE " + WhereSql(s.where);
  return sql + ";";
}

Request SelectRequest(std::string cls, Select select, int64_t expect) {
  Request r;
  r.cls = std::move(cls);
  r.path = "/query";
  r.select = std::move(select);
  r.sql = SelectSql(r.select);
  r.body = QueryBody(r.sql);
  r.expect_rows = expect;
  return r;
}

Request ValidateRequest(std::string cls, std::string table,
                        std::string constraints, int64_t rows) {
  Request r;
  r.cls = std::move(cls);
  r.path = "/validate";
  r.table = std::move(table);
  r.constraints = std::move(constraints);
  sqlnf::JsonWriter w;
  w.BeginObject();
  w.Key("table");
  w.String(r.table);
  w.Key("constraints");
  w.String(r.constraints);
  w.EndObject();
  r.body = std::move(w).Take();
  r.expect_rows = rows;
  return r;
}

// The (new, city, url) key of a region row, as WHERE atoms.
std::vector<Atom> RegionKey(const Table& region, int row) {
  const sqlnf::Tuple& t = region.row(row);
  return {Eq("new", t[Col(region, "new")]),
          Eq("city", t[Col(region, "city")]),
          Eq("url", t[Col(region, "url")])};
}

const sqlnf::JsonValue* Member(const sqlnf::JsonValue& v, const char* key) {
  return v.is_object() ? v.Find(key) : nullptr;
}

}  // namespace

const Table& Dataset::Find(const std::string& name) const {
  for (const Table& t : tables) {
    if (t.schema().name() == name) return t;
  }
  return tables.front();
}

sqlnf::Result<Dataset> BuildDataset() {
  SQLNF_ASSIGN_OR_RETURN(Table base, sqlnf::Contractor());
  Dataset data{std::move(base), {}, {}, 0, {}};
  SQLNF_ASSIGN_OR_RETURN(Table crossed,
                         sqlnf::CrossWithSequence(data.base, kNew, "new"));
  SQLNF_ASSIGN_OR_RETURN(
      sqlnf::ConstraintSet sigma,
      sqlnf::ParseConstraintSet(crossed.schema(), kLambdaFds));
  const sqlnf::SchemaDesign design{crossed.schema(), sigma};
  SQLNF_ASSIGN_OR_RETURN(sqlnf::VrnfResult vrnf, sqlnf::VrnfDecompose(design));
  SQLNF_ASSIGN_OR_RETURN(std::vector<Table> components,
                         sqlnf::ProjectAll(crossed, vrnf.decomposition));

  std::vector<std::string> fd_clauses;
  for (const sqlnf::FunctionalDependency& fd : sigma.fds()) {
    fd_clauses.push_back("CERTAIN FD (" +
                         ColumnList(crossed.schema(), fd.lhs) + " -> " +
                         ColumnList(crossed.schema(), fd.rhs) + ")");
  }
  auto renamed = [](const Table& t, const std::string& name) {
    TableSchema schema = t.schema();
    std::vector<std::string> names, not_null;
    for (sqlnf::AttributeId a = 0; a < schema.num_attributes(); ++a) {
      names.push_back(schema.attribute_name(a));
      if (schema.nfs().Contains(a)) not_null.push_back(names.back());
    }
    Table out(*TableSchema::Make(name, names, not_null));
    out.ReserveRows(t.num_rows());
    for (const sqlnf::Tuple& row : t.rows()) (void)out.AddRow(row);
    return out;
  };
  data.tables.push_back(renamed(crossed, "contractor"));
  data.create_sql =
      CreateTable("contractor", crossed.schema(), fd_clauses);
  for (size_t i = 0; i < components.size(); ++i) {
    const std::string name =
        ComponentName(components[i].schema(),
                      vrnf.decomposition.components[i].multiset);
    std::vector<std::string> clauses;
    if (name == "region") clauses.push_back("CERTAIN KEY (new, city, url)");
    data.create_sql += CreateTable(name, components[i].schema(), clauses);
    data.tables.push_back(renamed(components[i], name));
  }
  for (const Table& t : data.tables) data.total_rows += t.num_rows();

  const int status = Col(data.base, "status");
  for (const sqlnf::Tuple& t : data.base.rows()) {
    const Value& v = t[status];
    if (v.is_null() || data.status_pool.size() == 3) continue;
    if (std::find(data.status_pool.begin(), data.status_pool.end(), v) ==
        data.status_pool.end()) {
      data.status_pool.push_back(v);
    }
  }
  if (data.status_pool.size() < 2) {
    return sqlnf::Status::Internal("replica has fewer than 2 statuses");
  }
  return data;
}

std::string SqlLiteral(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kNull:
      return "NULL";
    case Value::Kind::kInt:
      return std::to_string(v.int_value());
    case Value::Kind::kString:
      break;
  }
  std::string out = "'";
  for (char c : v.str_value()) {
    if (c == '\'') out += '\'';
    out += c;
  }
  return out + "'";
}

std::vector<std::string> InsertBatches(const Dataset& data,
                                       size_t max_bytes) {
  std::vector<std::string> batches;
  for (const Table& t : data.tables) {
    const std::string head = "INSERT INTO " + t.schema().name() + " VALUES ";
    std::string sql;
    for (const sqlnf::Tuple& row : t.rows()) {
      sql += sql.empty() ? head : ", ";
      sql += '(';
      for (int c = 0; c < row.size(); ++c) {
        if (c > 0) sql += ", ";
        sql += SqlLiteral(row[c]);
      }
      sql += ')';
      if (sql.size() >= max_bytes) {
        batches.push_back(sql + ";");
        sql.clear();
      }
    }
    if (!sql.empty()) batches.push_back(sql + ";");
  }
  return batches;
}

std::string QueryBody(const std::string& sql) {
  sqlnf::JsonWriter w;
  w.BeginObject();
  w.Key("sql");
  w.String(sql);
  w.EndObject();
  return std::move(w).Take();
}

bool IsWorkload(const std::string& name) {
  return name == "query" || name == "validate" || name == "rw";
}

Stream::Stream(const Dataset* data, std::string workload, StreamKind kind,
               uint64_t seed)
    : data_(data),
      workload_(std::move(workload)),
      kind_(kind),
      rng_(seed * 4 + (kind == StreamKind::kLight ? 1 : 2)),
      rotation_{0, 1, 2, 3} {}

Request Stream::Next() {
  const bool light = kind_ == StreamKind::kLight;
  if (workload_ == "query") return light ? NextQueryLight() : NextQueryHeavy();
  if (workload_ == "rw") return light ? NextLookup() : NextTxn();
  // validate: the paper's Section-7 pair.
  if (light) {
    return ValidateRequest("key", "region", "c<new,city,url>",
                           data_->Find("region").num_rows());
  }
  return ValidateRequest("fd", "contractor",
                         "new,city,url ->w dmerc_rgn,status",
                         data_->Find("contractor").num_rows());
}

Request Stream::NextQueryLight() {
  if (rotation_pos_ == 0) std::shuffle(rotation_.begin(), rotation_.end(), rng_);
  const int which = rotation_[rotation_pos_];
  rotation_pos_ = (rotation_pos_ + 1) % rotation_.size();

  const Table& base = data_->base;
  auto row = [&] { return static_cast<int>(rng_() % base.num_rows()); };
  auto cell = [&](int r, const char* c) { return base.row(r)[Col(base, c)]; };
  auto key = [&] { return Value::Int(1 + static_cast<int64_t>(rng_() % kNew)); };

  Select s;
  s.tables = {"contractor"};
  switch (which) {
    case 0: {  // point lookup on (new, city, url)
      const int r = row();
      s.columns = {"new", "city", "url", "status"};
      s.where = {{Eq("new", key()), Eq("city", cell(r, "city")),
                  Eq("url", cell(r, "url"))}};
      int64_t n = 0;
      for (const sqlnf::Tuple& t : base.rows()) {
        n += t[Col(base, "city")] == cell(r, "city") &&
                     t[Col(base, "url")] == cell(r, "url")
                 ? 1
                 : 0;
      }
      return SelectRequest("point", std::move(s), n);
    }
    case 1: {  // new BETWEEN k AND k+4
      const int64_t k = 1 + static_cast<int64_t>(rng_() % (kNew - 4));
      s.columns = {"new", "url"};
      s.where = {{Atom{Atom::Op::kBetween, "new",
                       {Value::Int(k), Value::Int(k + 4)}}}};
      return SelectRequest("range", std::move(s), 5 * base.num_rows());
    }
    case 2: {  // new IN (three keys) AND city = c
      std::vector<Value> keys;
      while (keys.size() < 3) {
        Value k = key();
        if (std::find(keys.begin(), keys.end(), k) == keys.end()) {
          keys.push_back(std::move(k));
        }
      }
      const Value city = cell(row(), "city");
      s.columns = {"new", "city", "phone"};
      s.where = {{Atom{Atom::Op::kIn, "new", keys}, Eq("city", city)}};
      return SelectRequest("in", std::move(s),
                           3 * CountBase(base, "city", city));
    }
    default: {  // new = k1 AND city = c OR new = k2 AND url = u
      const Value k1 = key();
      Value k2 = key();
      while (k2 == k1) k2 = key();
      const Value city = cell(row(), "city");
      const Value url = cell(row(), "url");
      s.columns = {"new", "city", "url"};
      s.where = {{Eq("new", k1), Eq("city", city)},
                 {Eq("new", k2), Eq("url", url)}};
      return SelectRequest("or", std::move(s),
                           CountBase(base, "city", city) +
                               CountBase(base, "url", url));
    }
  }
}

// version (67k x 6) NATURAL JOIN remainder (173k x 18) shares
// (new, cmd_name, phone): the engine hashes all of remainder and probes
// it with all of version before the WHERE keeps one `new` and one city.
// Both tables repeat the same rows for every `new`, so the expected
// count is the join of their new = 1 slices restricted to the city.
Request Stream::NextQueryHeavy() {
  const Table& base = data_->base;
  const Value k = Value::Int(1 + static_cast<int64_t>(rng_() % kNew));
  const Value city = base.row(static_cast<int>(rng_() % base.num_rows()))
                         [Col(base, "city")];
  const Table& left = data_->Find("version");
  const Table& right = data_->Find("remainder");
  std::vector<std::pair<int, int>> common;
  for (sqlnf::AttributeId a = 0; a < left.num_columns(); ++a) {
    auto b = right.schema().FindAttribute(left.schema().attribute_name(a));
    if (b.ok()) common.emplace_back(a, *b);
  }
  const Value one = Value::Int(1);
  int64_t expect = 0;
  for (const sqlnf::Tuple& r : right.rows()) {
    if (!(r[Col(right, "new")] == one && r[Col(right, "city")] == city)) {
      continue;
    }
    for (const sqlnf::Tuple& l : left.rows()) {
      bool match = true;
      for (const auto& [a, b] : common) match = match && l[a] == r[b];
      expect += match ? 1 : 0;
    }
  }
  Select s;
  s.tables = {"version", "remainder"};
  s.where = {{Eq("new", k), Eq("city", city)}};
  return SelectRequest("join", std::move(s), expect);
}

// A point read by the certain key, sent after a seeded pause of
// 0-100 ms. A read that finds a writer transaction open waits for the
// whole transaction; one that lands between two transactions returns
// at once, and without a pause the next follows within 0.1 ms, so a
// writer stall of a few ms turned into a burst of fast samples that
// outnumbered the blocked ones in some runs and not in others. Paused
// reads arrive at a random point of the writer's cycle instead.
Request Stream::NextLookup() {
  const Table& region = data_->Find("region");
  Select s;
  s.tables = {"region"};
  s.columns = {"status"};
  s.where = {RegionKey(region,
                       static_cast<int>(rng_() % region.num_rows()))};
  Request r = SelectRequest("lookup", std::move(s), 1);
  r.think_us = static_cast<int>(rng_() % 100000);
  return r;
}

// BEGIN; 8 x UPDATE status by key; INSERT a fresh key; DELETE the
// previous fresh key; COMMIT. Every written value comes from a fixed
// small set and the fresh keys alternate between new = 1001 and 1002,
// so dictionaries and row counts stay flat however long the run is.
Request Stream::NextTxn() {
  const Table& region = data_->Find("region");
  const int status_col = Col(region, "status");
  Request r;
  r.cls = "txn";
  r.path = "/query";
  auto add = [&](TxnStmt st) {
    r.sql += st.sql + "\n";
    r.txn.push_back(std::move(st));
  };
  add({TxnStmt::Kind::kBegin, "BEGIN;", {}, "", Value(), {}, 0});

  std::vector<int> rows;
  while (rows.size() < 8) {
    const int row = static_cast<int>(rng_() % region.num_rows());
    if (std::find(rows.begin(), rows.end(), row) == rows.end()) {
      rows.push_back(row);
    }
  }
  for (int row : rows) {
    auto it = status_.find(row);
    const Value current =
        it != status_.end() ? it->second : region.row(row)[status_col];
    Value next = data_->status_pool[0];
    for (const Value& v : data_->status_pool) {
      if (!(v == current)) {
        next = v;
        break;
      }
    }
    status_[row] = next;
    TxnStmt st{TxnStmt::Kind::kUpdate, "", RegionKey(region, row), "status",
               next, {}, 1};
    st.sql = "UPDATE region SET status = " + SqlLiteral(next) + " WHERE " +
             WhereSql({st.where}) + ";";
    add(std::move(st));
  }

  // Fresh keys reuse region row 0's city/url under new = 1001 / 1002.
  auto fresh_key = [&](int64_t txn) {
    std::vector<Atom> key = RegionKey(region, 0);
    key[0] = Eq("new", Value::Int(kFreshNew + txn % 2));
    return key;
  };
  TxnStmt ins{TxnStmt::Kind::kInsert, "", {}, "", Value(),
              region.row(0).values(), 1};
  ins.row[Col(region, "new")] = Value::Int(kFreshNew + txns_ % 2);
  ins.row[status_col] = data_->status_pool[0];
  ins.sql = "INSERT INTO region VALUES (";
  for (size_t c = 0; c < ins.row.size(); ++c) {
    ins.sql += (c > 0 ? ", " : "") + SqlLiteral(ins.row[c]);
  }
  ins.sql += ");";
  add(std::move(ins));
  if (txns_ > 0) {
    TxnStmt del{TxnStmt::Kind::kDelete, "", fresh_key(txns_ - 1), "",
                Value(), {}, 1};
    del.sql = "DELETE FROM region WHERE " + WhereSql({del.where}) + ";";
    add(std::move(del));
  }
  add({TxnStmt::Kind::kCommit, "COMMIT;", {}, "", Value(), {}, 0});
  ++txns_;
  r.body = QueryBody(r.sql);
  return r;
}

bool CheckResponse(const Request& request, int http_status,
                   const std::string& body, std::string* why) {
  auto fail = [&](std::string msg) {
    *why = request.cls + ": " + msg;
    return false;
  };
  if (http_status != 200) {
    return fail("HTTP " + std::to_string(http_status) + " " +
                body.substr(0, 200));
  }
  sqlnf::Result<sqlnf::JsonValue> json = sqlnf::ParseJson(body);
  if (!json.ok() || !json->is_object()) return fail("body is not a JSON object");
  if (request.path == "/validate") {
    if (json->GetInt("rows", -1) != request.expect_rows) {
      return fail("validated rows " + std::to_string(json->GetInt("rows", -1)));
    }
    if (json->GetInt("violated", -1) != 0) return fail("constraint violated");
    return true;
  }
  const sqlnf::JsonValue* ok = Member(*json, "ok");
  if (ok == nullptr || !ok->is_bool() || !ok->bool_value()) {
    return fail("not ok: " + body.substr(0, 200));
  }
  const sqlnf::JsonValue* stmts = Member(*json, "statements");
  if (stmts == nullptr || !stmts->is_array()) return fail("no statements");
  if (!request.txn.empty()) {
    if (stmts->items().size() != request.txn.size()) {
      return fail("statement count");
    }
    for (size_t i = 0; i < request.txn.size(); ++i) {
      const int64_t got = stmts->items()[i].GetInt("affected", -1);
      if (got != request.txn[i].expect_affected) {
        return fail("statement " + std::to_string(i) + " affected " +
                    std::to_string(got));
      }
    }
    return true;
  }
  if (stmts->items().size() != 1) return fail("statement count");
  const sqlnf::JsonValue& st = stmts->items()[0];
  const sqlnf::JsonValue* rows = Member(st, "rows");
  const sqlnf::JsonValue* data = rows ? Member(*rows, "data") : nullptr;
  if (data == nullptr || !data->is_array() ||
      static_cast<int64_t>(data->items().size()) != request.expect_rows ||
      st.GetInt("affected", -1) != request.expect_rows) {
    return fail("expected " + std::to_string(request.expect_rows) +
                " rows, got " + std::to_string(st.GetInt("affected", -1)));
  }
  return true;
}

}  // namespace frontbench

#include "sqlnf/engine/session.h"

#include <utility>

#include "sqlnf/constraints/parser.h"
#include "sqlnf/constraints/serialize.h"
#include "sqlnf/decomposition/vrnf_decompose.h"
#include "sqlnf/discovery/discover.h"
#include "sqlnf/engine/ddl.h"
#include "sqlnf/engine/validate.h"
#include "sqlnf/engine/writer_role.h"
#include "sqlnf/util/json.h"

namespace sqlnf {

// ------------------------------------------------------------ validation

std::string ValidationReport::RenderText() const {
  std::string out = "table: " + std::to_string(rows) + " rows x " +
                    std::to_string(columns) + " columns; validating " +
                    std::to_string(total) + " constraint(s), threads=" +
                    std::to_string(threads) + "\n";
  for (const ConstraintCheck& check : checks) {
    if (check.violated) {
      out += "  VIOLATED   " + check.text + "  (rows " +
             std::to_string(check.row1) + ", " +
             std::to_string(check.row2) + ")\n";
    } else {
      out += "  satisfied  " + check.text + "\n";
    }
  }
  out += std::to_string(violated) + " of " + std::to_string(total) +
         " constraint(s) violated\n";
  return out;
}

std::string ValidationReport::RenderJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("rows");
  w.Int(rows);
  w.Key("columns");
  w.Int(columns);
  w.Key("threads");
  w.Int(threads);
  w.Key("constraints");
  w.Int(static_cast<int64_t>(total));
  w.Key("violated");
  w.Int(violated);
  w.Key("checks");
  w.BeginArray();
  for (const ConstraintCheck& check : checks) {
    w.BeginObject();
    w.Key("constraint");
    w.String(check.text);
    w.Key("violated");
    w.Bool(check.violated);
    if (check.violated) {
      w.Key("witness_rows");
      w.BeginArray();
      w.Int(check.row1);
      w.Int(check.row2);
      w.EndArray();
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return std::move(w).Take();
}

ValidationReport ValidateConstraints(const TableSchema& schema,
                                     const EncodedTable& enc,
                                     const ConstraintSet& sigma,
                                     int threads) {
  ValidationReport report;
  report.rows = enc.num_rows();
  report.columns = schema.num_attributes();
  report.threads = threads;
  report.total = sigma.All().size();
  auto add = [&](std::string text, const std::optional<Violation>& v) {
    ConstraintCheck check;
    check.text = std::move(text);
    if (v) {
      check.violated = true;
      check.row1 = v->row1;
      check.row2 = v->row2;
      ++report.violated;
    }
    report.checks.push_back(std::move(check));
  };
  for (const auto& fd : sigma.fds()) {
    add(fd.ToString(schema), FindFdViolationEncoded(enc, fd));
  }
  for (const auto& key : sigma.keys()) {
    add(key.ToString(schema), FindKeyViolationEncoded(enc, key));
  }
  return report;
}

// ------------------------------------------------------------- discovery

std::string DiscoveryReport::RenderJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("rows");
  w.Int(rows);
  w.Key("columns");
  w.Int(columns);
  w.Key("null_free");
  w.String(null_free);
  auto list = [&w](const char* key, const std::vector<std::string>& xs) {
    w.Key(key);
    w.BeginArray();
    for (const std::string& x : xs) w.String(x);
    w.EndArray();
  };
  list("certain_fds", c_fds);
  list("possible_fds", p_fds);
  list("certain_keys", c_keys);
  list("possible_keys", p_keys);
  w.Key("classification");
  w.BeginObject();
  w.Key("nn");
  w.Int(nn_count);
  w.Key("p");
  w.Int(p_count);
  w.Key("c");
  w.Int(c_count);
  w.Key("total");
  w.Int(t_count);
  w.Key("lambda");
  w.Int(lambda_count);
  w.EndObject();
  w.EndObject();
  return std::move(w).Take();
}

std::string NormalizationOutcome::RenderJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("normalized");
  w.Bool(normalized);
  w.Key("design");
  w.String(design);
  w.Key("decomposition");
  w.String(decomposition);
  w.Key("ddl");
  w.String(ddl);
  w.EndObject();
  return std::move(w).Take();
}

// -------------------------------------------------------------- registry

Result<std::shared_ptr<const ConstraintSet>>
SessionRegistry::ParsedConstraints(const TableSchema& schema,
                                   const std::string& text) {
  // The cache key covers the resolution context (the column names)
  // besides the text: DROP + CREATE can reuse a table name with a
  // different schema, and the same text must then re-parse.
  const bool cacheable = text.size() <= kMaxCachedTextBytes;
  std::string key;
  if (cacheable) {
    for (AttributeId a = 0; a < schema.num_attributes(); ++a) {
      key += schema.attribute_name(a);
      key += ',';
    }
    key += '\n';
    key += text;
    MutexLock lock(cache_mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      ++hits_;
      return it->second;
    }
  }
  SQLNF_ASSIGN_OR_RETURN(ConstraintSet sigma,
                         ParseConstraintSet(schema, text));
  auto shared = std::make_shared<const ConstraintSet>(std::move(sigma));
  MutexLock lock(cache_mu_);
  ++misses_;
  if (cacheable) {
    if (cache_.size() >= kMaxCachedSets) cache_.clear();
    cache_.emplace(std::move(key), shared);
  }
  return shared;
}

int64_t SessionRegistry::cache_hits() const {
  MutexLock lock(cache_mu_);
  return hits_;
}

int64_t SessionRegistry::cache_misses() const {
  MutexLock lock(cache_mu_);
  return misses_;
}

// --------------------------------------------------------------- session

ResultSet Session::Execute(const std::string& script) {
  const std::vector<SqlStatement> statements = SplitSqlStatements(script);
  bool all_read_only = true;
  for (const SqlStatement& st : statements) {
    if (!StatementIsReadOnly(st.text)) {
      all_read_only = false;
      break;
    }
  }
  // Only a session that may hold a transaction across scripts (the CLI
  // shell) can own the open one, and its reads must observe their own
  // uncommitted writes, which snapshots never hold. Any other session's
  // transaction ends with its script, so an open one belongs to
  // someone else: read the committed snapshots.
  if (all_read_only && !(options_.allow_open_transaction &&
                         registry_->db()->InTransaction())) {
    return ExecuteSnapshots(script, statements);
  }
  return ExecuteWriter(script, statements);
}

ResultSet Session::ExecuteSnapshots(
    std::string_view script, const std::vector<SqlStatement>& statements) {
  // One lock acquisition for the whole script: every statement binds
  // against the same committed epoch set, then executes lock-free.
  const std::map<std::string, TableSnapshot> snaps =
      registry_->db()->SnapshotAll();
  ResultSet rs;
  for (size_t i = 0; i < statements.size(); ++i) {
    int offset = -1;
    Result<QueryResult> r =
        ExecuteReadOnly(snaps, statements[i].text, &offset);
    if (!r.ok()) {
      const int absolute =
          offset >= 0 ? offset + static_cast<int>(statements[i].offset)
                      : -1;
      rs.status = r.status();
      rs.error = MakeErrorDetail(r.status(), script,
                                 static_cast<int>(i), absolute);
      return rs;
    }
    rs.statements.push_back(std::move(*r));
  }
  return rs;
}

ResultSet Session::ExecuteWriter(
    std::string_view script, const std::vector<SqlStatement>& statements) {
  MutexLock lock(registry_->writer_mu());
  WriterScope writer;  // this thread IS the writer while the lock is held
  SqlSession sql(registry_->db());
  ResultSet rs;
  for (size_t i = 0; i < statements.size(); ++i) {
    int offset = -1;
    Result<QueryResult> r = sql.Execute(statements[i].text, &offset);
    if (!r.ok()) {
      const int absolute =
          offset >= 0 ? offset + static_cast<int>(statements[i].offset)
                      : -1;
      rs.status = r.status();
      rs.error = MakeErrorDetail(r.status(), script,
                                 static_cast<int>(i), absolute);
      break;
    }
    rs.statements.push_back(std::move(*r));
  }
  // A transaction that outlives the request would be silently joined by
  // whichever session takes the writer mutex next — roll it back unless
  // this session is explicitly single-user (the CLI shell).
  if (!options_.allow_open_transaction &&
      registry_->db()->InTransaction()) {
    (void)registry_->db()->Rollback();
    if (rs.ok()) {
      rs.status = Status::FailedPrecondition(
          "transaction left open at end of script; rolled back");
      rs.error = MakeErrorDetail(rs.status, script, -1, -1);
    }
  }
  return rs;
}

Result<ValidationReport> Session::Validate(const std::string& table,
                                           const std::string& constraints) {
  SQLNF_ASSIGN_OR_RETURN(TableSnapshot snap,
                         registry_->db()->GetSnapshot(table));
  SQLNF_ASSIGN_OR_RETURN(std::shared_ptr<const ConstraintSet> sigma,
                         registry_->ParsedConstraints(snap.schema,
                                                      constraints));
  return ValidateConstraints(snap.schema, *snap.columns, *sigma,
                             options_.threads);
}

Result<DiscoveryReport> Session::Discover(const std::string& table,
                                          int max_rows) {
  SQLNF_ASSIGN_OR_RETURN(TableSnapshot snap,
                         registry_->db()->GetSnapshot(table));
  const Table data = snap.Materialize();
  DiscoveryOptions options;
  options.hitting.max_size = 5;
  options.threads = options_.threads;
  if (max_rows > 0) options.max_rows = max_rows;
  SQLNF_ASSIGN_OR_RETURN(DiscoveryResult mined,
                         DiscoverConstraints(data, options));

  TableSchema schema = data.schema();
  (void)schema.SetNfs(mined.null_free_columns);
  DiscoveryReport report;
  report.rows = data.num_rows();
  report.columns = data.num_columns();
  report.null_free = schema.FormatSet(schema.nfs());
  for (const auto& fd : mined.c_fds) {
    report.c_fds.push_back(fd.ToString(schema));
  }
  for (const auto& fd : mined.p_fds) {
    report.p_fds.push_back(fd.ToString(schema));
  }
  for (const auto& key : mined.c_keys) {
    report.c_keys.push_back(key.ToString(schema));
  }
  for (const auto& key : mined.p_keys) {
    report.p_keys.push_back(key.ToString(schema));
  }
  const FdClassification cls = ClassifyDiscovered(data, mined);
  report.nn_count = cls.nn_count;
  report.p_count = cls.p_count;
  report.c_count = cls.c_count;
  report.t_count = cls.t_count;
  report.lambda_count = cls.lambda_count;
  return report;
}

Result<NormalizationOutcome> Session::Normalize(const std::string& table) {
  SQLNF_ASSIGN_OR_RETURN(TableSnapshot snap,
                         registry_->db()->GetSnapshot(table));
  const Table data = snap.Materialize();
  DiscoveryOptions options;
  options.hitting.max_size = 4;
  options.threads = options_.threads;
  SQLNF_ASSIGN_OR_RETURN(DiscoveryResult mined,
                         DiscoverConstraints(data, options));

  TableSchema schema = data.schema();
  (void)schema.SetNfs(mined.null_free_columns);
  const FdClassification cls = ClassifyDiscovered(data, mined);
  ConstraintSet sigma;
  for (const auto& fd : cls.lambda_fds) sigma.AddUniqueFd(fd);
  for (const auto& key : mined.c_keys) sigma.AddUniqueKey(key);
  SchemaDesign design{schema, sigma};

  NormalizationOutcome out;
  out.design = FormatDesign(design);
  if (sigma.fds().empty()) return out;  // nothing to normalize
  SQLNF_ASSIGN_OR_RETURN(VrnfResult result, VrnfDecompose(design));
  out.decomposition = result.decomposition.ToString(schema);
  out.ddl = EmitDecompositionDdl(design, result);
  out.normalized = true;
  return out;
}

}  // namespace sqlnf

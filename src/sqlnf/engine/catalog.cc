#include "sqlnf/engine/catalog.h"

#include "sqlnf/core/similarity.h"
#include "sqlnf/engine/validate.h"

namespace sqlnf {

std::optional<Violation> ValidateRowAgainst(const Table& table,
                                            const Tuple& row,
                                            const ConstraintSet& sigma) {
  // NFS first.
  for (AttributeId a : table.schema().nfs()) {
    if (row[a].is_null()) {
      Violation v;
      v.row1 = v.row2 = table.num_rows();
      v.attribute = a;
      return v;
    }
  }
  // Pair the candidate with every stored row.
  for (int i = 0; i < table.num_rows(); ++i) {
    const Tuple& existing = table.row(i);
    for (const auto& fd : sigma.fds()) {
      const bool similar = fd.is_possible()
                               ? StronglySimilar(row, existing, fd.lhs)
                               : WeaklySimilar(row, existing, fd.lhs);
      if (similar && !row.EqualOn(existing, fd.rhs)) {
        return Violation{i, table.num_rows(), Constraint(fd),
                         std::nullopt};
      }
    }
    for (const auto& key : sigma.keys()) {
      const bool similar = key.is_possible()
                               ? StronglySimilar(row, existing, key.attrs)
                               : WeaklySimilar(row, existing, key.attrs);
      if (similar) {
        return Violation{i, table.num_rows(), Constraint(key),
                         std::nullopt};
      }
    }
  }
  return std::nullopt;
}

namespace {

/// First violation in the encoded instance, if any — the whole-statement
/// post-image check of the UPDATE path, running entirely on codes.
std::optional<Violation> FindViolationEncoded(const EncodedTable& enc,
                                              const ConstraintSet& sigma) {
  for (const auto& fd : sigma.fds()) {
    if (auto v = FindFdViolationEncoded(enc, fd)) return v;
  }
  for (const auto& key : sigma.keys()) {
    if (auto v = FindKeyViolationEncoded(enc, key)) return v;
  }
  return std::nullopt;
}

}  // namespace

Tuple StoredTable::DecodeRow(int row) const {
  const EncodedTable& enc = columns();
  std::vector<Value> values;
  values.reserve(num_columns());
  for (AttributeId a = 0; a < num_columns(); ++a) {
    values.push_back(enc.DecodeCode(a, enc.code(a, row)));
  }
  return Tuple(std::move(values));
}

Result<Table> SelectFromSnapshot(const TableSnapshot& snapshot,
                                 const Predicate& where) {
  SQLNF_RETURN_NOT_OK(
      ValidatePredicate(where, snapshot.schema.num_attributes()));
  const std::vector<int> sel = SelectRowsEncoded(*snapshot.columns, where);
  return snapshot.columns->GatherRows(sel).Decode(snapshot.schema);
}

Status Database::CreateTableLocked(const TableSchema& schema,
                                   ConstraintSet sigma) {
  if (tables_.contains(schema.name())) {
    return Status::Invalid("table '" + schema.name() + "' already exists");
  }
  tables_.emplace(schema.name(), StoredTable(schema, std::move(sigma)));
  return Status::OK();
}

Status Database::CreateTable(const TableSchema& schema,
                             ConstraintSet sigma) {
  MutexLock lock(mu_);
  if (txn_) {
    return Status::FailedPrecondition(
        "DDL is not allowed inside a transaction");
  }
  return CreateTableLocked(schema, std::move(sigma));
}

Status Database::IngestTable(const Table& data, ConstraintSet sigma) {
  MutexLock lock(mu_);
  if (txn_) {
    return Status::FailedPrecondition(
        "DDL is not allowed inside a transaction");
  }
  const std::string& name = data.schema().name();
  SQLNF_RETURN_NOT_OK(CreateTableLocked(data.schema(), std::move(sigma)));
  // One implicit transaction around the bulk load: no snapshot is
  // republished per row, so copy-on-write never clones mid-ingest.
  txn_ = std::make_unique<UndoLog>();
  for (const Tuple& row : data.rows()) {
    Status st = InsertLocked(name, row);
    if (!st.ok()) {
      txn_.reset();
      tables_.erase(name);
      return st;
    }
  }
  txn_.reset();
  tables_.find(name)->second.MarkDirty(mu_);
  return Status::OK();
}

Status Database::DropTable(const std::string& name) {
  MutexLock lock(mu_);
  if (txn_) {
    return Status::FailedPrecondition(
        "DDL is not allowed inside a transaction");
  }
  if (tables_.erase(name) == 0) {
    return Status::NotFound("no table named '" + name + "'");
  }
  return Status::OK();
}

bool Database::HasTable(const std::string& name) const {
  MutexLock lock(mu_);
  return tables_.contains(name);
}

std::vector<std::string> Database::TableNames() const {
  MutexLock lock(mu_);
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [name, table] : tables_) out.push_back(name);
  return out;
}

Result<const StoredTable*> Database::FindLocked(
    const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no table named '" + name + "'");
  }
  return &it->second;
}

Result<const StoredTable*> Database::Find(const std::string& name) const {
  // The map lookup itself is serialized; the returned pointer is live
  // state, which the writer role on this method keeps single-threaded.
  MutexLock lock(mu_);
  return FindLocked(name);
}

Result<StoredTable*> Database::FindMutable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no table named '" + name + "'");
  }
  return &it->second;
}

Status Database::InsertLocked(const std::string& name, Tuple row) {
  SQLNF_ASSIGN_OR_RETURN(StoredTable * stored, FindMutable(name));
  if (row.size() != stored->num_columns()) {
    return Status::Invalid("INSERT arity mismatch: got " +
                           std::to_string(row.size()) + ", expected " +
                           std::to_string(stored->num_columns()));
  }
  if (auto violation = stored->enforcer().Check(row)) {
    return Status::FailedPrecondition(
        "INSERT rejected: " + violation->ToString(stored->schema()));
  }
  const int row_id = stored->num_rows();
  if (txn_) {
    // Pin the committed state for readers, then log the inverse. Touch
    // runs BEFORE the mutation so the dictionary high-water marks
    // predate any code this statement mints.
    stored->PinSnapshot(mu_);
    TableUndo& undo = txn_->Touch(name, stored->columns());
    stored->enforcer().Add(row, row_id);
    UndoRecord r;
    r.kind = UndoRecord::Kind::kInsert;
    r.row_id = row_id;
    undo.ops.push_back(std::move(r));
  } else {
    stored->enforcer().Add(row, row_id);
    stored->MarkDirty(mu_);  // auto-commit
  }
  return Status::OK();
}

Status Database::Insert(const std::string& name, Tuple row) {
  MutexLock lock(mu_);
  return InsertLocked(name, std::move(row));
}

Result<Table> Database::Select(const std::string& name,
                               const Predicate& where) const {
  MutexLock lock(mu_);
  SQLNF_ASSIGN_OR_RETURN(const StoredTable* stored, FindLocked(name));
  SQLNF_RETURN_NOT_OK(ValidatePredicate(where, stored->num_columns()));
  // Columnar end to end: selection vector → gather → one decode at the
  // result boundary (no per-row DecodeRow round trips).
  const std::vector<int> sel = SelectRowsEncoded(stored->columns(), where);
  return stored->columns().GatherRows(sel).Decode(stored->schema());
}

Result<int> Database::Update(const std::string& name,
                             const Predicate& where, AttributeId column,
                             const Value& value) {
  MutexLock lock(mu_);
  SQLNF_ASSIGN_OR_RETURN(StoredTable * stored, FindMutable(name));
  if (column < 0 || column >= stored->num_columns()) {
    return Status::Invalid("UPDATE column out of range");
  }
  SQLNF_RETURN_NOT_OK(ValidatePredicate(where, stored->num_columns()));
  const EncodedTable& enc = stored->columns();
  // A value the dictionary has never seen is kMissingCode, which equals
  // no stored code — every matched row then counts as changed.
  const uint32_t want = enc.LookupCode(column, value);
  std::vector<int> changed;
  for (int i : SelectRowsEncoded(enc, where)) {
    if (enc.code(column, i) != want) changed.push_back(i);
  }
  if (changed.empty()) return 0;
  if (value.is_null() && stored->schema().nfs().Contains(column)) {
    return Status::FailedPrecondition(
        "UPDATE rejected: NOT NULL column cannot hold NULL");
  }
  if (txn_) {
    stored->PinSnapshot(mu_);
    txn_->Touch(stored->schema().name(), enc);
  }
  // Statement-scope undo: pre-images plus the dictionary high-water
  // marks, so a rejected statement also retires the codes it minted.
  TableUndo statement;
  statement.dict_mark = enc.DictionarySizes();
  for (int i : changed) {
    UndoRecord r;
    r.kind = UndoRecord::Kind::kUpdate;
    r.row_id = i;
    r.pre_image = stored->DecodeRow(i);
    statement.ops.push_back(std::move(r));
  }
  // Flip the changed slots in place: unindex each row under its
  // PRE-image codes, then re-add the post-image (which re-encodes the
  // slot). Untouched rows keep their ids — no rebuild, no copy.
  IncrementalEnforcer& enforcer = stored->enforcer();
  for (const UndoRecord& r : statement.ops) {
    Tuple post = r.pre_image;
    post[column] = value;
    enforcer.Remove(r.row_id);
    enforcer.Add(post, r.row_id);
  }
  // Whole-statement post-image validation on the maintained encoding.
  // The NFS cannot newly fail (only `column` changed, checked above).
  if (auto violation = FindViolationEncoded(stored->columns(),
                                            stored->sigma())) {
    UndoLog::RollbackTable(statement, &enforcer);
    return Status::FailedPrecondition(
        "UPDATE rejected: " + violation->ToString(stored->schema()));
  }
  if (txn_) {
    TableUndo& undo = txn_->Touch(stored->schema().name(), enc);
    for (UndoRecord& r : statement.ops) undo.ops.push_back(std::move(r));
  } else {
    stored->MarkDirty(mu_);  // auto-commit
  }
  return static_cast<int>(changed.size());
}

Result<int> Database::Delete(const std::string& name,
                             const Predicate& where) {
  MutexLock lock(mu_);
  SQLNF_ASSIGN_OR_RETURN(StoredTable * stored, FindMutable(name));
  SQLNF_RETURN_NOT_OK(ValidatePredicate(where, stored->num_columns()));
  const std::vector<int> matches =
      SelectRowsEncoded(stored->columns(), where);
  if (matches.empty()) return 0;
  if (txn_) {
    stored->PinSnapshot(mu_);
    TableUndo& undo = txn_->Touch(stored->schema().name(),
                                  stored->columns());
    UndoRecord r;
    r.kind = UndoRecord::Kind::kDelete;
    r.erased_ids = matches;
    r.erased_rows.reserve(matches.size());
    for (int i : matches) r.erased_rows.push_back(stored->DecodeRow(i));
    undo.ops.push_back(std::move(r));
  }
  // Unindex the erased rows (while their codes still hold them), then
  // compact the encoding and renumber the survivors in place.
  for (int i : matches) stored->enforcer().Remove(i);
  stored->enforcer().CompactAfterErase(matches);
  if (!txn_) stored->MarkDirty(mu_);  // auto-commit
  return static_cast<int>(matches.size());
}

Result<int> Database::CompactTable(const std::string& name) {
  MutexLock lock(mu_);
  if (txn_) {
    // The undo log records pre-compaction codes and dictionary
    // high-water marks; replaying it over canonical codes would
    // restore garbage. VACUUM therefore waits for the commit point.
    return Status::FailedPrecondition(
        "VACUUM is not allowed inside a transaction");
  }
  SQLNF_ASSIGN_OR_RETURN(StoredTable * stored, FindMutable(name));
  // Keep the current epoch readable: published snapshot columns are
  // separate shared_ptrs, and compaction publishes fresh column
  // versions rather than mutating in place, so concurrent readers
  // keep their pre-compaction codes bit-stable.
  stored->PinSnapshot(mu_);
  const int retired = stored->enforcer().CompactDictionaries();
  stored->MarkDirty(mu_);  // next GetSnapshot sees canonical codes
  return retired;
}

Result<TableSnapshot> Database::GetSnapshot(const std::string& name) {
  MutexLock lock(mu_);
  SQLNF_ASSIGN_OR_RETURN(StoredTable * stored, FindMutable(name));
  // Mid-transaction this can only refresh tables the transaction has
  // not touched (a touched table was pinned clean by its first write),
  // so uncommitted rows are never published.
  return stored->Snapshot(mu_);
}

std::map<std::string, TableSnapshot> Database::SnapshotAll() {
  MutexLock lock(mu_);
  std::map<std::string, TableSnapshot> out;
  for (auto& [name, stored] : tables_) {
    out.emplace(name, stored.Snapshot(mu_));
  }
  return out;
}

Status Database::Begin() {
  MutexLock lock(mu_);
  if (txn_) {
    return Status::FailedPrecondition(
        "a transaction is already in progress");
  }
  txn_ = std::make_unique<UndoLog>();
  return Status::OK();
}

Status Database::Commit() {
  MutexLock lock(mu_);
  if (!txn_) {
    return Status::FailedPrecondition("no transaction in progress");
  }
  for (const auto& [name, undo] : txn_->tables()) {
    tables_.find(name)->second.MarkDirty(mu_);  // DDL is barred mid-txn
  }
  txn_.reset();
  return Status::OK();
}

Status Database::Rollback() {
  MutexLock lock(mu_);
  if (!txn_) {
    return Status::FailedPrecondition("no transaction in progress");
  }
  for (const auto& [name, undo] : txn_->tables()) {
    UndoLog::RollbackTable(undo, &tables_.find(name)->second.enforcer());
  }
  txn_.reset();
  return Status::OK();
}

bool Database::InTransaction() const {
  MutexLock lock(mu_);
  return txn_ != nullptr;
}

}  // namespace sqlnf

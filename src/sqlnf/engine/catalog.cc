#include "sqlnf/engine/catalog.h"

#include <numeric>

#include "sqlnf/engine/relops.h"

namespace sqlnf {

namespace {

// The rows an UPDATE or DELETE touches: read off a constraint index
// when the WHERE pins one's key, else the scan. Both give the same
// ascending ids (engine/enforcer.h, KEY-PINNED WRITES).
std::vector<int> MatchRows(const IncrementalEnforcer& enforcer,
                           const Predicate& where)
    SQLNF_REQUIRES(writer_thread_role);

std::vector<int> MatchRows(const IncrementalEnforcer& enforcer,
                           const Predicate& where) {
  if (std::optional<std::vector<int>> rows = enforcer.SelectPinned(where)) {
    return std::move(*rows);
  }
  return SelectRowsEncoded(enforcer.encoding(), where);
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
  int next = 0;
  Result<int> loaded =
      InsertRowsLocked(name, [&](Tuple* row) -> Result<bool> {
        if (next == data.num_rows()) return false;
        *row = data.row(next++);
        return true;
      });
  if (!loaded.ok()) {
    tables_.erase(name);
    return loaded.status();
  }
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

Result<int> Database::InsertRowsLocked(const std::string& name,
                                       const RowSource& next) {
  SQLNF_ASSIGN_OR_RETURN(StoredTable * stored, FindMutable(name));
  IncrementalEnforcer& enforcer = stored->enforcer();
  const int first = stored->num_rows();
  enforcer.encoding().DictionarySizes(&insert_mark_);
  TableUndo* undo = nullptr;
  if (txn_) {
    // Pin the committed state for readers, and take the transaction's
    // dictionary marks before this statement mints a code.
    stored->PinSnapshot(mu_);
    undo = &txn_->Touch(name, stored->columns());
  }
  Status failure;
  Tuple row;
  while (true) {
    Result<bool> more = next(&row);
    if (!more.ok()) {
      failure = more.status();
      break;
    }
    if (!*more) break;
    if (row.size() != stored->num_columns()) {
      failure = Status::Invalid("INSERT arity mismatch: got " +
                                std::to_string(row.size()) + ", expected " +
                                std::to_string(stored->num_columns()));
      break;
    }
    const int row_id = stored->num_rows();
    if (auto violation = enforcer.Check(row, row_id)) {
      failure = Status::FailedPrecondition(
          "INSERT rejected: " + violation->ToString(stored->schema()));
      break;
    }
    enforcer.Add(row, row_id);
  }
  const int last = stored->num_rows();
  if (!failure.ok()) {
    // The statement's rows are the table's tail: unindex them, drop
    // them in one compaction pass (no survivor is renumbered), and
    // retire the codes they minted.
    std::vector<int> tail(last - first);
    std::iota(tail.begin(), tail.end(), first);
    for (int id : tail) enforcer.Remove(id);
    enforcer.CompactAfterErase(tail);
    enforcer.TrimDictionaries(insert_mark_);
    return failure;
  }
  if (undo != nullptr) {
    for (int id = first; id < last; ++id) {
      UndoRecord r;
      r.kind = UndoRecord::Kind::kInsert;
      r.row_id = id;
      undo->ops.push_back(std::move(r));
    }
  } else if (last > first) {
    stored->MarkDirty(mu_);  // auto-commit
  }
  return last - first;
}

Result<int> Database::InsertRows(const std::string& name,
                                 const RowSource& next) {
  MutexLock lock(mu_);
  return InsertRowsLocked(name, next);
}

Status Database::Insert(const std::string& name, Tuple row) {
  bool given = false;
  return InsertRows(name, [&](Tuple* out) -> Result<bool> {
           if (given) return false;
           *out = std::move(row);
           given = true;
           return true;
         })
      .status();
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
  IncrementalEnforcer& enforcer = stored->enforcer();
  // A value the dictionary has never seen is kMissingCode, which equals
  // no stored code — every matched row then counts as changed.
  const uint32_t want = enc.LookupCode(column, value);
  std::vector<int> changed;
  for (int i : MatchRows(enforcer, where)) {
    if (enc.code(column, i) != want) changed.push_back(i);
  }
  if (changed.empty()) return 0;
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
  // Flip the changed slots in place: unindex them all under their
  // PRE-image codes, then check and re-add each post-image, so it meets
  // the unchanged rows and the post-images before it. After a violation
  // the rest are re-added unchecked, so the rollback finds every slot
  // indexed. Untouched rows keep their ids — no rebuild, no copy.
  for (int i : changed) enforcer.Remove(i);
  std::optional<Violation> violation;
  for (const UndoRecord& r : statement.ops) {
    Tuple post = r.pre_image;
    post[column] = value;
    if (!violation) violation = enforcer.Check(post, r.row_id);
    enforcer.Add(post, r.row_id);
  }
  if (violation) {
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
  IncrementalEnforcer& enforcer = stored->enforcer();
  const std::vector<int> matches = MatchRows(enforcer, where);
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
  for (int i : matches) enforcer.Remove(i);
  enforcer.CompactAfterErase(matches);
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

#include "sqlnf/engine/txn.h"

#include <algorithm>

#include "sqlnf/engine/catalog.h"

namespace sqlnf {

TableUndo& UndoLog::Touch(const std::string& table,
                          const EncodedTable& encoding) {
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    it = tables_.emplace(table, TableUndo{}).first;
    it->second.dict_mark = encoding.DictionarySizes();
  }
  return it->second;
}

void UndoLog::RollbackTable(const TableUndo& undo,
                            IncrementalEnforcer* enforcer) {
  // A run of consecutive kInsert records is the table's tail once every
  // later mutation is undone: unindex each row, then drop the whole run
  // in one compaction pass (no survivor is renumbered), as InsertRows
  // drops a rejected statement's tail.
  std::vector<int> inserted;  // the current run's ids, newest first
  auto drop_inserted = [&] {
    if (inserted.empty()) return;
    std::reverse(inserted.begin(), inserted.end());
    enforcer->CompactAfterErase(inserted);
    inserted.clear();
  };
  for (auto it = undo.ops.rbegin(); it != undo.ops.rend(); ++it) {
    const UndoRecord& r = *it;
    if (r.kind != UndoRecord::Kind::kInsert) drop_inserted();
    switch (r.kind) {
      case UndoRecord::Kind::kInsert:
        enforcer->Remove(r.row_id);
        inserted.push_back(r.row_id);
        break;
      case UndoRecord::Kind::kUpdate:
        enforcer->Remove(r.row_id);
        enforcer->Add(r.pre_image, r.row_id);
        break;
      case UndoRecord::Kind::kDelete:
        enforcer->Restore(r.erased_ids, r.erased_rows);
        break;
    }
  }
  drop_inserted();
  enforcer->TrimDictionaries(undo.dict_mark);
}

TransactionGuard::TransactionGuard(Database* db)
    : db_(db), begin_status_(db->Begin()) {
  finished_ = !begin_status_.ok();
}

TransactionGuard::~TransactionGuard() {
  if (!finished_) (void)db_->Rollback();
}

Status TransactionGuard::Commit() {
  if (finished_) {
    return Status::FailedPrecondition("transaction already finished");
  }
  finished_ = true;
  return db_->Commit();
}

Status TransactionGuard::Rollback() {
  if (finished_) {
    return Status::FailedPrecondition("transaction already finished");
  }
  finished_ = true;
  return db_->Rollback();
}

}  // namespace sqlnf

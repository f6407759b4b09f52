// Cross-table transactions: an explicit undo log over the enforcer
// primitives (Add / Remove+Add / Remove+CompactAfterErase), plus the
// RAII TransactionGuard.
//
// The Database (engine/catalog.h) routes every Insert / Update / Delete
// through this log. Outside an explicit transaction each statement
// auto-commits (its validated effects are final the moment it returns);
// between Begin() and Commit() the statements' inverses accumulate
// here, and Rollback() replays them newest-first so that an insert into
// N normalized component tables commits or fails as one unit — the
// consistency requirement a decomposed schema adds to every logical
// write ("one fact, N component rows").
//
// Undo record semantics (each is the exact inverse of one applied
// mutation):
//
//   kInsert  {row_id}                → Remove + CompactAfterErase: at
//            undo time every later mutation has already been undone, so
//            the row sits at `row_id` again and is the highest row. A
//            run of consecutive kInsert records is the table's tail, so
//            its rows are Remove()d one by one and dropped in a single
//            CompactAfterErase over the run's ids.
//   kUpdate  {row_id, pre_image}     → Remove + Add(pre_image) in
//            place; re-encoding the pre-image reproduces its original
//            codes because dictionaries never shrink mid-transaction.
//   kDelete  {erased_ids, pre_rows}  → IncrementalEnforcer::Restore:
//            survivors shift back up, the pre-image cells re-encode at
//            their original positions.
//
// Replaying strictly newest-first keeps every record's row ids valid at
// its own undo step. After the replay, TrimDictionaries retires the
// codes the transaction minted (recorded as per-column dictionary
// high-water marks on first touch of each table) — so an aborted
// transaction leaves tables, constraint indexes AND dictionaries
// bit-identical to their pre-transaction state. The same mark/trim
// mechanism runs at statement scope inside Database::Update: the
// statement logs its pre-images to a local TableUndo, checks each
// post-image through the enforcer as it re-adds it, and on a violation
// replays that local log — so a rejected UPDATE leaves the table, its
// indexes and its dictionaries bit-identical, minted codes retired.
// Database::InsertRows needs no log: a failed INSERT's rows are the
// table's tail, dropped in one CompactAfterErase before the trim.
//
// Statement vs transaction scope: a statement that fails validation
// inside an open transaction rolls back only itself (its records never
// reach this log); the transaction stays open and the caller chooses to
// Commit the prior statements or Rollback everything.

#ifndef SQLNF_ENGINE_TXN_H_
#define SQLNF_ENGINE_TXN_H_

#include <map>
#include <string>
#include <vector>

#include "sqlnf/core/encoded_table.h"
#include "sqlnf/core/table.h"
#include "sqlnf/engine/enforcer.h"
#include "sqlnf/engine/writer_role.h"
#include "sqlnf/util/status.h"
#include "sqlnf/util/thread_annotations.h"

namespace sqlnf {

class Database;

/// One logged mutation, stored as the inputs of its inverse.
struct UndoRecord {
  enum class Kind { kInsert, kUpdate, kDelete };
  Kind kind = Kind::kInsert;

  int row_id = 0;   // kInsert: appended id; kUpdate: updated id
  Tuple pre_image;  // kUpdate: the full pre-image row

  // kDelete: the erased ids (ascending, pre-delete numbering — which is
  // also their post-restore numbering) and their pre-image rows.
  std::vector<int> erased_ids;
  std::vector<Tuple> erased_rows;
};

/// Undo state of one table inside one transaction.
struct TableUndo {
  std::vector<UndoRecord> ops;  // applied order; undone in reverse
  std::vector<int> dict_mark;   // dictionary sizes at first touch
};

/// The undo log of one open transaction: per touched table, the inverse
/// operations plus the dictionary high-water marks taken before the
/// transaction's first mutation of that table.
class UndoLog {
 public:
  /// The table's undo state, creating it — and recording the
  /// dictionary marks from `encoding` — on first touch. Must be called
  /// BEFORE the statement mutates the table.
  TableUndo& Touch(const std::string& table, const EncodedTable& encoding)
      SQLNF_REQUIRES(writer_thread_role);

  const std::map<std::string, TableUndo>& tables() const { return tables_; }

  /// Undoes one table's records newest-first against its enforcer, then
  /// trims the dictionaries to the recorded marks. Also the shared
  /// engine for statement-scope rollback (with a statement-local
  /// TableUndo).
  static void RollbackTable(const TableUndo& undo,
                            IncrementalEnforcer* enforcer)
      SQLNF_REQUIRES(writer_thread_role);

 private:
  std::map<std::string, TableUndo> tables_;
};

/// RAII transaction scope: Begin() on construction, Rollback() on
/// destruction unless Commit() was called — so an early return from a
/// multi-table write sequence aborts cleanly.
///
///   TransactionGuard txn(&db);
///   SQLNF_RETURN_NOT_OK(txn.begin_status());
///   SQLNF_RETURN_NOT_OK(db.Insert("orders", ...));
///   SQLNF_RETURN_NOT_OK(db.Insert("order_items", ...));
///   return txn.Commit();
class TransactionGuard {
 public:
  explicit TransactionGuard(Database* db) SQLNF_REQUIRES(writer_thread_role);
  ~TransactionGuard() SQLNF_REQUIRES(writer_thread_role);

  TransactionGuard(const TransactionGuard&) = delete;
  TransactionGuard& operator=(const TransactionGuard&) = delete;

  /// Whether Begin() succeeded (it fails when a transaction is already
  /// open — transactions do not nest).
  const Status& begin_status() const { return begin_status_; }

  /// Commits the transaction; after this the destructor is a no-op.
  Status Commit() SQLNF_REQUIRES(writer_thread_role);

  /// Rolls back explicitly; after this the destructor is a no-op.
  Status Rollback() SQLNF_REQUIRES(writer_thread_role);

 private:
  Database* db_;
  Status begin_status_;
  bool finished_ = false;
};

}  // namespace sqlnf

#endif  // SQLNF_ENGINE_TXN_H_

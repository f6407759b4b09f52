// Database: a catalog of tables with NATIVELY ENFORCED paper
// constraints, stored columnar.
//
// SQL can declare NOT NULL and UNIQUE, but certain keys over nullable
// columns and (possible/certain) FDs are beyond its declarative reach —
// the DDL emitter (engine/ddl.h) can only leave comments. This catalog
// closes the loop: every write (insert / update / delete) is validated
// against the table's full constraint set (p-/c-FDs, p-/c-keys, NFS)
// and rejected with a Violation message when it would break one, the
// way a trigger-based enforcement layer would.
//
// PRIMARY STORAGE is the dictionary encoding the incremental enforcer
// maintains across every write (core/encoded_table.h): one uint32 code
// column per attribute, kept consistent by AppendRow / UpdateCell /
// EraseRows — there is no row-major copy of the instance. Queries
// (engine/sql.h, decomposition/encoded_ops.h) execute on the codes;
// the row-major Table appears only at the ingest/decode boundary (CSV,
// SQL literals, ToString, test oracles) via Materialize()/DecodeRow().
//
// ATOMICITY. Every constraint check runs through the incremental
// enforcer's Check (engine/enforcer.h), on the rows a statement
// changes only, and every statement is all or nothing. An INSERT
// streams its rows through InsertRows, each checked before it is
// appended; the first rejected (or unparsable) row removes the
// statement's appended tail and retires the dictionary codes it
// minted. A rejected Update rolls back every slot it touched AND
// retires its codes (engine/txn.h). Either way the table is left
// bit-identical, and since a statement holds mu_ from its first row to
// its last, no reader sees part of one. Between Begin() and Commit()
// statements accumulate in an undo log instead of auto-committing, so
// a logical write that fans out over N normalized component tables
// commits or aborts as one unit; Rollback() restores every touched
// table — contents, constraint indexes, dictionaries — to its
// pre-transaction state. DDL (create / ingest / drop) is barred while
// a transaction is open.
//
// SNAPSHOT READS. Each stored table publishes an immutable snapshot of
// its encoding at commit points. Publishing is lazy copy-on-write: the
// snapshot shares every column with the live encoding (O(columns)
// pointer copies), and the writer's next mutation detaches just the
// columns it touches — many reader threads can therefore execute
// SELECT/JOIN against a stable epoch while the single writer keeps
// batching mutations. A snapshot's columns are freed when the last
// reader drops its TableSnapshot (shared_ptr refcount — no epoch list
// to sweep). Concurrency contract: any number of threads may call
// GetSnapshot() and read the returned snapshot, concurrently with ONE
// writer thread calling the mutating methods; the remaining accessors
// (Find / Materialize / ...) touch live state and belong to the writer
// thread.
//
// The contract is MACHINE-CHECKED (DESIGN.md §8): Database::mu_ is a
// capability-annotated Mutex guarding tables_ and txn_, StoredTable's
// publication methods take the guarding mutex as a parameter with
// SQLNF_REQUIRES(mu), and every writer-thread-only entry point
// requires the WriterThread phantom capability
// (engine/writer_role.h) — so a reader context that never entered a
// WriterScope cannot even compile a call to Insert or Update under
// clang -Wthread-safety.

#ifndef SQLNF_ENGINE_CATALOG_H_
#define SQLNF_ENGINE_CATALOG_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sqlnf/constraints/constraint.h"
#include "sqlnf/constraints/satisfies.h"
#include "sqlnf/core/encoded_table.h"
#include "sqlnf/core/table.h"
#include "sqlnf/engine/enforcer.h"
#include "sqlnf/engine/predicate.h"
#include "sqlnf/engine/txn.h"
#include "sqlnf/engine/writer_role.h"
#include "sqlnf/util/mutex.h"
#include "sqlnf/util/status.h"
#include "sqlnf/util/thread_annotations.h"

namespace sqlnf {

/// An immutable view of one table at a commit point. Copyable and
/// cheap to pass between threads; the columns stay alive (and
/// bit-stable) for as long as any copy holds them. `epoch` increments
/// with every published version, so readers can correlate what they
/// saw with the writer's commit history.
struct TableSnapshot {
  TableSchema schema;
  ConstraintSet sigma;
  std::shared_ptr<const EncodedTable> columns;
  uint64_t epoch = 0;

  int num_rows() const { return columns->num_rows(); }
  Table Materialize() const { return columns->Decode(schema); }
};

/// One stored table. The instance lives as the enforcer's maintained
/// encoding — columns() IS the data; Materialize() decodes on demand.
class StoredTable {
 public:
  StoredTable(TableSchema schema, ConstraintSet s)
      : schema_(std::move(schema)),
        sigma_(std::move(s)),
        enforcer_(schema_, sigma_) {}

  const TableSchema& schema() const { return schema_; }
  const ConstraintSet& sigma() const { return sigma_; }

  /// The columnar instance: one code column per attribute, all encoded.
  const EncodedTable& columns() const { return enforcer_.encoding(); }

  int num_rows() const { return columns().num_rows(); }
  int num_columns() const { return schema_.num_attributes(); }

  /// Decodes one stored row (the decode boundary for undo pre-images
  /// and test oracles).
  Tuple DecodeRow(int row) const;

  /// Decodes the whole instance into a row-major Table.
  Table Materialize() const { return columns().Decode(schema_); }

  IncrementalEnforcer& enforcer() { return enforcer_; }
  const IncrementalEnforcer& enforcer() const { return enforcer_; }

  // ---- Snapshot publication (driven by Database under its mutex).
  //
  // Each method takes the guarding mutex as a parameter: the analysis
  // substitutes the caller's argument into SQLNF_REQUIRES, so
  // `stored->Snapshot(mu_)` type-checks exactly when Database holds
  // mu_. (A back-pointer to the mutex would defeat the syntactic
  // matching — the capability expression must be the caller's own.)

  /// The published snapshot, refreshed first when a commit has dirtied
  /// it. The refresh is an O(columns) copy sharing every column with
  /// the live encoding; the writer's next mutation pays the
  /// copy-on-write detach, so back-to-back commits with no reader in
  /// between never clone anything.
  TableSnapshot Snapshot(Mutex& mu) SQLNF_REQUIRES(mu) {
    PinSnapshot(mu);
    return TableSnapshot{schema_, sigma_, snapshot_, epoch_};
  }

  /// Refreshes the published snapshot if dirty, without handing it out.
  /// A transaction's first write to this table pins the committed state
  /// here so mid-transaction readers never observe uncommitted rows.
  void PinSnapshot(Mutex& mu) SQLNF_REQUIRES(mu) {
    static_cast<void>(mu);  // capability-only parameter
    if (stale_) {
      snapshot_ = std::make_shared<const EncodedTable>(columns());
      ++epoch_;
      stale_ = false;
    }
  }

  /// Marks the published snapshot out of date. Called at commit points
  /// only — never mid-transaction.
  void MarkDirty(Mutex& mu) SQLNF_REQUIRES(mu) {
    static_cast<void>(mu);  // capability-only parameter
    stale_ = true;
  }

  /// Published versions so far (0 until the first Snapshot()).
  uint64_t epoch() const { return epoch_; }

 private:
  TableSchema schema_;
  ConstraintSet sigma_;
  IncrementalEnforcer enforcer_;
  // Publication state — mutated only via the SQLNF_REQUIRES(mu)
  // methods above, under Database::mu_ (the owning mutex is not a
  // member, so GUARDED_BY cannot name it here; the method-level
  // requirements carry the whole contract).
  std::shared_ptr<const EncodedTable> snapshot_;
  uint64_t epoch_ = 0;
  bool stale_ = true;
};

/// An in-memory multi-table database with constraint enforcement,
/// snapshot reads, and cross-table transactions.
///
/// Role annotations mirror the concurrency contract above: methods
/// marked SQLNF_REQUIRES(writer_thread_role) belong to the single
/// writer thread (establish a WriterScope there); the role-free
/// methods (GetSnapshot, HasTable, TableNames, InTransaction) are safe
/// from any reader thread.
class Database {
 public:
  /// Registers an empty table. Fails when the name exists or a
  /// transaction is open.
  Status CreateTable(const TableSchema& schema, ConstraintSet sigma)
      SQLNF_REQUIRES(writer_thread_role);

  /// Bulk-loads a row-major table through the enforcer (the CSV/ingest
  /// boundary); the table name comes from data.schema(). The rows go in
  /// as one InsertRows statement under the lock that creates the table,
  /// so readers see either no table or the whole load; on the first
  /// rejected row the table is dropped again.
  Status IngestTable(const Table& data, ConstraintSet sigma)
      SQLNF_REQUIRES(writer_thread_role);

  /// Removes a table. NotFound when absent; fails inside a transaction.
  Status DropTable(const std::string& name)
      SQLNF_REQUIRES(writer_thread_role);

  bool HasTable(const std::string& name) const;
  std::vector<std::string> TableNames() const;

  /// The stored table; NotFound when absent. Live state — writer
  /// thread only (readers use GetSnapshot).
  Result<const StoredTable*> Find(const std::string& name) const
      SQLNF_REQUIRES(writer_thread_role);

  /// Supplies one statement's rows to InsertRows, one per call: fills
  /// *row and returns true, returns false after the last row, or
  /// returns an error (the SQL reader's ParseError), which aborts the
  /// statement.
  using RowSource = std::function<Result<bool>(Tuple* row)>;

  /// INSERT of one statement's rows as one unit, streamed: each row is
  /// checked against the instance, Σ and the statement's earlier rows
  /// before it is appended. On the first rejected row, or when `next`
  /// fails, the rows appended so far are removed and the dictionary
  /// codes they minted retired, so the table is left bit-identical;
  /// the error is FailedPrecondition with the violation text (naming
  /// the rejected row), Invalid on an arity mismatch, or `next`'s own.
  /// mu_ is held from the first row to the last, so readers see the
  /// whole statement or none of it. Inside a transaction the rows reach
  /// the undo log only when the statement succeeds. Returns rows
  /// inserted.
  Result<int> InsertRows(const std::string& name, const RowSource& next)
      SQLNF_REQUIRES(writer_thread_role);

  /// InsertRows of a single row.
  Status Insert(const std::string& name, Tuple row)
      SQLNF_REQUIRES(writer_thread_role);

  /// UPDATE ... SET column = value WHERE predicate tree, executed on
  /// codes. A WHERE that is one conjunction with a non-⊥ `=` atom on
  /// every stable column of some constraint index (a certain key on
  /// NOT NULL columns, say: `k = 'x' AND ...`) finds its rows through
  /// that index; any other WHERE (OR, IN, ranges, `= NULL`, or no
  /// index pinned) scans. Both find the same rows
  /// (engine/enforcer.h, KEY-PINNED WRITES). Each changed row's
  /// post-image goes through the enforcer's
  /// Check against the unchanged rows and the post-images before it
  /// (NOT NULL included), so the statement is accepted exactly when
  /// its whole post-image satisfies Σ. On violation every changed slot
  /// is rolled back and the statement's dictionary codes are retired;
  /// the message names the updated row. Returns rows changed.
  Result<int> Update(const std::string& name, const Predicate& where,
                     AttributeId column, const Value& value)
      SQLNF_REQUIRES(writer_thread_role);

  /// DELETE FROM ... WHERE predicate tree, executed on codes; the rows
  /// are found as for Update (through an index when the WHERE pins
  /// one's key). Deletes cannot violate FDs/keys (they are
  /// anti-monotone), so no validation is needed. The constraint
  /// indexes are renumbered in O(index slots + rows) per index, and
  /// rows before the first deleted one keep their place in every
  /// column. Returns rows removed.
  Result<int> Delete(const std::string& name, const Predicate& where)
      SQLNF_REQUIRES(writer_thread_role);

  /// VACUUM: order-preserving dictionary compaction of one table
  /// (enforcer CompactDictionaries — dead codes reclaimed, survivors
  /// re-encoded canonically, constraint indexes rebuilt). Returns the
  /// number of retired dictionary entries. Barred while a transaction
  /// is open: the undo log records pre-compaction codes and dictionary
  /// high-water marks, which compaction would invalidate. Readers are
  /// unaffected — published snapshots keep the pre-compaction columns
  /// alive and bit-stable; the next GetSnapshot sees canonical codes.
  Result<int> CompactTable(const std::string& name)
      SQLNF_REQUIRES(writer_thread_role);

  // ---- Snapshot reads.

  /// The table's latest committed snapshot, publishing a fresh epoch if
  /// commits happened since the last call. Thread-safe against the
  /// writer; the returned snapshot is read without any lock.
  Result<TableSnapshot> GetSnapshot(const std::string& name);

  /// Committed snapshots of every table, taken atomically under one
  /// lock acquisition — the read-only script path in engine/session.h
  /// resolves all its table references against this map, so a script
  /// never mixes epochs from either side of a concurrent commit.
  /// O(tables) pointer copies; no column data is cloned.
  std::map<std::string, TableSnapshot> SnapshotAll();

  // ---- Transactions. One open transaction at a time (single-writer
  // engine); statements between Begin and Commit log their inverses and
  // publish no snapshots, so readers keep the pre-transaction epoch
  // until Commit. A statement rejected mid-transaction rolls back only
  // itself; the transaction stays open.

  Status Begin() SQLNF_REQUIRES(writer_thread_role);

  /// Makes the transaction's effects permanent and publishable.
  Status Commit() SQLNF_REQUIRES(writer_thread_role);

  /// Replays the undo log newest-first: every touched table — contents,
  /// constraint indexes, dictionaries — returns bit-identical to its
  /// pre-transaction state.
  Status Rollback() SQLNF_REQUIRES(writer_thread_role);

  bool InTransaction() const;

 private:
  Result<const StoredTable*> FindLocked(const std::string& name) const
      SQLNF_REQUIRES(mu_);
  Result<StoredTable*> FindMutable(const std::string& name)
      SQLNF_REQUIRES(mu_);

  Status CreateTableLocked(const TableSchema& schema, ConstraintSet sigma)
      SQLNF_REQUIRES(mu_);
  Result<int> InsertRowsLocked(const std::string& name,
                               const RowSource& next)
      SQLNF_REQUIRES(mu_, writer_thread_role);

  /// Serializes snapshot publication against the writer; all mutating
  /// entry points and GetSnapshot take it.
  mutable Mutex mu_;
  std::map<std::string, StoredTable> tables_ SQLNF_GUARDED_BY(mu_);
  // Non-null while a transaction is open.
  std::unique_ptr<UndoLog> txn_ SQLNF_GUARDED_BY(mu_)
      SQLNF_PT_GUARDED_BY(mu_);
  // The running INSERT's dictionary high-water marks. A member, not a
  // per-statement local: its storage is reused, so a statement
  // allocates nothing here between the rows it stores.
  std::vector<int> insert_mark_ SQLNF_GUARDED_BY(mu_);
};

}  // namespace sqlnf

#endif  // SQLNF_ENGINE_CATALOG_H_

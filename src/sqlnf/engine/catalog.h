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
// changes only. An Insert is checked before it touches the table. A
// rejected Update rolls back every slot it touched AND retires the
// dictionary codes it minted (engine/txn.h), leaving the table
// bit-identical. A multi-row SQL INSERT is not atomic yet: the SQL
// layer issues one Insert per row, so the rows before a rejected (or
// unparsable) one stay. Between Begin() and Commit() statements
// accumulate in an undo log instead of auto-committing, so a logical
// write that fans out over N normalized component tables commits or
// aborts as one unit; Rollback() restores every touched table —
// contents, constraint indexes, dictionaries — to its pre-transaction
// state. DDL (create / ingest / drop) is barred while a transaction is
// open.
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
// (Find / Select / Materialize / ...) touch live state and belong to
// the writer thread.
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
#include "sqlnf/engine/relops.h"
#include "sqlnf/engine/txn.h"
#include "sqlnf/engine/writer_role.h"
#include "sqlnf/util/mutex.h"
#include "sqlnf/util/status.h"
#include "sqlnf/util/thread_annotations.h"

namespace sqlnf {

/// Checks one candidate row against an existing (assumed-consistent)
/// instance: NFS, then each constraint against every stored row.
/// Returns the violation or nullopt. O(rows · |Σ|) — the row-major
/// reference for the enforcer's differential tests.
std::optional<Violation> ValidateRowAgainst(const Table& table,
                                            const Tuple& row,
                                            const ConstraintSet& sigma);

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

/// SELECT against a snapshot: the rows satisfying the WHERE predicate
/// tree (engine/predicate.h — ranges, BETWEEN, IN, OR), matched on
/// codes and decoded only at the result boundary. Safe to run from any
/// reader thread without touching the Database; the compiled predicate
/// reads only the snapshot's immutable columns.
Result<Table> SelectFromSnapshot(const TableSnapshot& snapshot,
                                 const Predicate& where);

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
  /// boundary); the table name comes from data.schema(). Fails on the
  /// first rejected row and drops the partially loaded table. The rows
  /// go in as auto-commit inserts under one lock hold, so readers see
  /// either no table or the whole load.
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

  /// Inserts one row after validating it against the instance and Σ.
  /// FailedPrecondition with the violation text on rejection.
  Status Insert(const std::string& name, Tuple row)
      SQLNF_REQUIRES(writer_thread_role);

  /// SELECT on live state: the rows satisfying the WHERE predicate
  /// tree, matched on codes, gathered columnar, and decoded only at
  /// the result boundary. Writer thread only — concurrent readers go
  /// through GetSnapshot + SelectFromSnapshot.
  Result<Table> Select(const std::string& name, const Predicate& where) const
      SQLNF_REQUIRES(writer_thread_role);

  /// UPDATE ... SET column = value WHERE predicate tree, executed on
  /// codes. Each changed row's post-image goes through the enforcer's
  /// Check against the unchanged rows and the post-images before it
  /// (NOT NULL included), so the statement is accepted exactly when
  /// its whole post-image satisfies Σ. On violation every changed slot
  /// is rolled back and the statement's dictionary codes are retired;
  /// the message names the updated row. Returns rows changed.
  Result<int> Update(const std::string& name, const Predicate& where,
                     AttributeId column, const Value& value)
      SQLNF_REQUIRES(writer_thread_role);

  /// DELETE FROM ... WHERE predicate tree, executed on codes. Deletes
  /// cannot violate FDs/keys (they are anti-monotone), so no validation
  /// is needed. Returns rows removed.
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
  Status InsertLocked(const std::string& name, Tuple row)
      SQLNF_REQUIRES(mu_, writer_thread_role);

  /// Serializes snapshot publication against the writer; all mutating
  /// entry points and GetSnapshot take it.
  mutable Mutex mu_;
  std::map<std::string, StoredTable> tables_ SQLNF_GUARDED_BY(mu_);
  // Non-null while a transaction is open.
  std::unique_ptr<UndoLog> txn_ SQLNF_GUARDED_BY(mu_)
      SQLNF_PT_GUARDED_BY(mu_);
};

}  // namespace sqlnf

#endif  // SQLNF_ENGINE_CATALOG_H_

// Incremental constraint enforcement with code-based hash indexes.
//
// The row-major reference, ValidateRowAgainst (reference/validate.h),
// probes every stored row per insert. This enforcer maintains ONE dictionary encoding of the stored rows
// (core/encoded_table.h) plus, per constraint, a hash index keyed by
// the row's CODES on the constraint's STABLE columns.
//
// For CERTAIN (weak) constraints the stable columns are the LHS/key
// attributes that are schema-level NOT NULL: two rows can only be
// weakly similar on the LHS when they agree exactly on those columns,
// so candidate conflicts live in one bucket; within a bucket the
// pairwise predicate runs on integer codes. A certain constraint whose
// LHS has no NOT NULL attribute keeps a single bucket (the theoretical
// worst case — weak similarity can relate anything through ⊥).
//
// For POSSIBLE (strong) constraints strong similarity requires exact,
// total equality on EVERY similarity attribute, so the stable set is
// the full similarity-attribute set regardless of the schema's NFS —
// rows with a ⊥ there can never conflict and are not indexed at all.
// This keeps buckets tight even for an all-nullable key (previously
// such a key degraded to one bucket and O(n) per insert).
//
// A candidate row is checked WITHOUT touching the encoding: its cells
// are probed against the dictionaries (LookupCode), and a value never
// seen before can only conflict through ⊥ — which the code predicates
// handle. The encoding is maintained across the write paths
// (Add / Remove / CompactAfterErase / Restore) and never rebuilt from
// scratch; Restore is the DELETE-rollback inverse the transaction undo
// log (engine/txn.h) replays on abort.
//
// Check() is the catalog's only constraint check: INSERT and UPDATE
// both go through it. UPDATE Remove()s every changed row under its
// pre-image codes, then checks and re-Add()s the post-images in row
// order, so each one meets the unchanged rows and the post-images
// before it: every pair of rows the statement creates is checked once.
//
// LAYOUT. Each constraint index is flat and row-indexed. Its buckets
// are chains — one per distinct 64-bit hash of the stable codes —
// threaded through `next`, one int32 per table row: the chain's
// following row, kEnd after its last row, or kSkip for a row the index
// does not hold. An open-addressed head table (linear probing, at most
// half full, keyed by the full hash) holds each chain's head and tail.
// A chain lists its rows in the order they were indexed, and an
// UPDATE's re-add goes to the tail, so Check meets candidates in a
// fixed order and names the same partner row on every run.
//
// Costs, per index:
//   Add                 O(1) amortized (append at the chain's tail)
//   Remove              O(chain): unlink; an emptied slot is freed by
//                       backward shifting, so no tombstones remain
//   CompactAfterErase   O(head table + rows) for any erased set:
//                       `next` compacts from the first erased row on,
//                       then every stored id (heads, tails, links)
//                       drops by the erased ids below it — one
//                       branch-free pass per erased id up to a handful,
//                       one remap gather beyond; nothing when only the
//                       table's tail went (a rolled-back INSERT)
//   Restore             the same passes, inverted, plus re-adding the
//                       restored rows at their chains' tails
//
// KEY-PINNED WRITES. SelectPinned answers an UPDATE's or DELETE's WHERE
// from an index instead of a scan when the WHERE is one conjunction
// with a non-⊥ `=` atom on every stable column of some index: the
// literals' codes pick one chain, and each member is confirmed against
// the whole WHERE, compiled once, so the result is exactly
// SelectRowsEncoded's (engine/relops.h). This is sound because an
// index holds every row the WHERE can match. A certain (weak) index
// holds every row, keyed on NOT NULL columns; a possible (strong)
// index skips only rows with ⊥ in its key, and a non-⊥ `=` atom on
// each key column excludes exactly those rows. A literal absent from
// its column's dictionary matches no row. Readers never come here:
// snapshots carry no index, and SELECT scans.
//
// Cost: a changed row costs the length of the chain it probes, per
// constraint. A certain constraint whose LHS has no NOT NULL column
// keeps a single chain, so a statement that rewrites most of such a
// table is quadratic in its row count. INSERT has the same cost
// profile, and no benchmark workload triggers it.
//
// Equivalence with the batch semantics is property-tested against
// constraints/satisfies.h; the encoding's consistency with a
// from-scratch re-encode is property-tested in enforcer_test. The
// CheckInvariants() debug hook re-derives the chains ↔ encoding
// consistency on demand — the differential mutation harness calls it
// after every operation.

#ifndef SQLNF_ENGINE_ENFORCER_H_
#define SQLNF_ENGINE_ENFORCER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "sqlnf/constraints/constraint.h"
#include "sqlnf/constraints/satisfies.h"
#include "sqlnf/core/encoded_table.h"
#include "sqlnf/core/table.h"
#include "sqlnf/engine/predicate.h"
#include "sqlnf/engine/writer_role.h"
#include "sqlnf/util/status.h"
#include "sqlnf/util/thread_annotations.h"

namespace sqlnf {

/// Incremental checker for one (schema, Σ) pair. The enforcer does not
/// own the table; feed it every accepted row via Add().
///
/// Thread discipline: the enforcer is live, mutable state owned by the
/// catalog's write path — it is never published to snapshot readers.
/// Every probe or mutation therefore requires the engine's WriterThread
/// role (engine/writer_role.h); only the debug/introspection hooks at
/// the bottom are role-free, for single-threaded test harnesses.
class IncrementalEnforcer {
 public:
  IncrementalEnforcer(const TableSchema& schema, const ConstraintSet& sigma);

  /// Violation the candidate row would cause against the indexed rows,
  /// or nullopt when it is safe. NOT NULL is checked first. `row_id`
  /// is the slot the candidate will occupy: the append position
  /// (encoding().num_rows()) for an INSERT, the updated row for an
  /// UPDATE post-image (whose slot must be Remove()d first). A pair
  /// violation names the indexed partner as row1 and `row_id` as row2.
  std::optional<Violation> Check(const Tuple& row, int row_id) const
      SQLNF_REQUIRES(writer_thread_role);

  /// Registers an accepted row (the table's row index `row_id`).
  /// `row_id` must be the append position — encoded rows and table rows
  /// stay aligned — except when re-adding a row previously Remove()d in
  /// place (the UPDATE write path), where the slot is re-encoded.
  void Add(const Tuple& row, int row_id) SQLNF_REQUIRES(writer_thread_role);

  /// Unregisters a previously Add()ed row from the constraint indexes.
  /// Must run while the encoded slot still holds the pre-image (it is
  /// hashed from the stored codes). The slot itself stays: Add() with
  /// the same id re-encodes it, and CompactAfterErase() drops it for
  /// deletes.
  void Remove(int row_id) SQLNF_REQUIRES(writer_thread_role);

  /// Renumbers the indexed row ids after rows `erased` (ascending,
  /// already Remove()d) were deleted from the table, and compacts the
  /// encoding to match: every surviving id drops by the number of
  /// erased ids below it. O(head table + rows) per index for any
  /// erased set, in contiguous passes with no rehashing; rows before
  /// erased.front() do not move.
  void CompactAfterErase(const std::vector<int>& erased)
      SQLNF_REQUIRES(writer_thread_role);

  /// Inverse of Remove + CompactAfterErase — the DELETE rollback.
  /// Re-inserts `rows[k]` at row id `erased[k]` of the restored table
  /// (`erased` ascending, post-restore numbering): surviving ids shift
  /// back up, the encoding re-inserts the pre-image cells (identical
  /// codes — dictionaries never shrank in between), and the restored
  /// rows are re-indexed at their chains' tails. O(head table + rows +
  /// restored cells) per index.
  void Restore(const std::vector<int>& erased, const std::vector<Tuple>& rows)
      SQLNF_REQUIRES(writer_thread_role);

  /// The ascending ids of the rows satisfying `where`, read off one
  /// constraint index, or nullopt when no index applies. An index
  /// applies when `where` is a single conjunction with a non-⊥ `=` atom
  /// on every stable column of the index (the first such index in
  /// index order is used). The chain the atoms' codes hash to is
  /// walked and each member confirmed against the whole `where`, so
  /// the result equals SelectRowsEncoded(encoding(), where) — see
  /// KEY-PINNED WRITES above. Serves Database::Update and Delete only.
  std::optional<std::vector<int>> SelectPinned(const Predicate& where) const
      SQLNF_REQUIRES(writer_thread_role);

  /// Retires dictionary codes minted past the recorded high-water marks
  /// (core/encoded_table.h TrimDictionaries) — the final step of a
  /// statement or transaction rollback, after every re-added pre-image
  /// is back in place.
  void TrimDictionaries(const std::vector<int>& sizes)
      SQLNF_REQUIRES(writer_thread_role) {
    encoded_.TrimDictionaries(sizes);
  }

  /// Order-preserving dictionary compaction of the maintained encoding
  /// (core/encoded_table.h CompactDictionaries): dead codes left by
  /// UPDATEs/DELETEs are reclaimed, survivors re-encode canonically
  /// (ascending value order), and the code-keyed constraint indexes
  /// are rebuilt from the new codes. Returns the total number of
  /// retired dictionary entries. No row-major Table is consulted and no
  /// Value re-encodes. The caller must guarantee no undo log holds
  /// pre-compaction codes (Database::CompactTable bars it
  /// mid-transaction).
  int CompactDictionaries() SQLNF_REQUIRES(writer_thread_role);

  /// The maintained columnar view of the Add()ed rows — the same
  /// representation engine/validate.h and discovery consume, so batch
  /// re-validation and mining skip the encode step.
  const EncodedTable& encoding() const { return encoded_; }

  // ---- Debug / test introspection.

  /// Re-derives every invariant the incremental maintenance relies on
  /// and returns Internal with a description on the first breach:
  /// dictionary bijectivity, code ranges, ⊥ counts and zones of the
  /// encoding, and chains ↔ encoding consistency per constraint index
  /// (each row indexed exactly when it must be, under the hash of its
  /// CURRENT codes). Chain integrity too: no cycle and no out-of-range link,
  /// each tail the last link of its chain, kSkip exactly on the rows
  /// no chain holds, and each occupied slot reachable along its hash's
  /// probe sequence. O(head tables + rows · |Σ| + dictionary sizes) —
  /// a debug hook, not a fast path.
  Status CheckInvariants() const;

  /// Order-insensitive digest of the constraint indexes (bucket hashes
  /// and their id sets) plus the dictionary high-water marks. Two
  /// enforcers over the same history agree; the abort protocol is
  /// tested by fingerprint equality before Begin and after Rollback.
  uint64_t IndexFingerprint() const;

  /// Bucket fan-out of one constraint index (indexes are ordered: all
  /// FDs in Σ order, then all keys in Σ order).
  struct IndexStats {
    int buckets = 0;         // distinct non-empty buckets
    int largest_bucket = 0;  // ids in the fullest bucket
    int indexed_rows = 0;    // total ids across buckets
  };
  int num_indexes() const { return static_cast<int>(indexes_.size()); }
  IndexStats Stats(int index) const;

 private:
  // Chain markers in `next`; both negative, so renumbering (which
  // only moves ids >= 0) passes them through. An empty head-table slot
  // has head kEnd.
  static constexpr int32_t kEnd = -1;   // after a chain's last row
  static constexpr int32_t kSkip = -2;  // row not held by this index

  // One index's chains (see LAYOUT above).
  struct Chains {
    std::vector<int32_t> next;   // per row: next row, kEnd or kSkip
    std::vector<uint64_t> keys;  // per slot: the chain's full hash
    std::vector<int32_t> heads;  // per slot: first row; kEnd when empty
    std::vector<int32_t> tails;  // per slot: last row
    int used = 0;                // occupied slots
    int shift = 64;              // home slot = (hash · φ) >> shift

    size_t Home(uint64_t hash) const;
    /// The slot holding `hash`'s chain, or -1.
    int Find(uint64_t hash) const;
    /// Links `row` (kSkip until now) at the tail of `hash`'s chain.
    void Append(uint64_t hash, int32_t row);
    /// Unlinks `row` from `hash`'s chain, freeing an emptied slot.
    void Unlink(uint64_t hash, int32_t row);
    /// Frees `slot` by backward shifting (linear-probing deletion).
    void EraseSlot(size_t slot);
    /// Doubles the head table (from 16 slots) and re-homes every chain.
    void Grow();
  };

  struct ConstraintIndex {
    Constraint constraint;
    AttributeSet similarity_attrs;  // LHS for FDs, attrs for keys
    AttributeSet rhs;               // empty for keys
    bool strong = false;            // possible (strong) vs certain (weak)
    AttributeSet stable;            // hash attrs: full set when strong,
                                    // similarity_attrs ∩ NFS when weak
    Chains chains;
  };

  /// FNV mix of the row's codes on `attrs`; `codes` is one code per
  /// schema column (a candidate's LookupCode vector or a stored row's
  /// encoded codes).
  static uint64_t HashCodes(const std::vector<uint32_t>& codes,
                            const AttributeSet& attrs);
  uint64_t HashStoredRow(int row_id, const AttributeSet& attrs) const;

  /// True when the encoded row has no ⊥ on `attrs`.
  bool RowTotal(int row_id, const AttributeSet& attrs) const;

  /// Whether `row_id`'s current codes belong in `index` at all (strong
  /// constraints skip rows that are not total on the similarity attrs).
  bool ShouldIndex(const ConstraintIndex& index, int row_id) const;

  /// Appends `row_id` to the chain of every index it belongs to,
  /// hashed from its CURRENT codes (the slot must already hold them);
  /// a new row gets a kSkip entry in every index first.
  void IndexRow(int row_id);

  TableSchema schema_;
  EncodedTable encoded_;
  std::vector<ConstraintIndex> indexes_;
};

}  // namespace sqlnf

#endif  // SQLNF_ENGINE_ENFORCER_H_

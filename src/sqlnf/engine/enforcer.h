// Incremental constraint enforcement with code-based hash indexes.
//
// ValidateRowAgainst (catalog.h) probes every stored row per insert.
// This enforcer maintains ONE dictionary encoding of the stored rows
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
// Cost: a changed row costs the size of the bucket it probes, per
// constraint. A certain constraint whose LHS has no NOT NULL column
// keeps a single bucket, so a statement that rewrites most of such a
// table is quadratic in its row count. INSERT has the same cost
// profile, and no benchmark workload triggers it.
//
// Equivalence with the batch semantics is property-tested against
// constraints/satisfies.h; the encoding's consistency with a
// from-scratch re-encode is property-tested in enforcer_test. The
// CheckInvariants() debug hook re-derives the buckets ↔ encoding
// consistency on demand — the differential mutation harness calls it
// after every operation.

#ifndef SQLNF_ENGINE_ENFORCER_H_
#define SQLNF_ENGINE_ENFORCER_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "sqlnf/constraints/constraint.h"
#include "sqlnf/constraints/satisfies.h"
#include "sqlnf/core/encoded_table.h"
#include "sqlnf/core/table.h"
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
  /// erased ids below it. O(index entries), no rehashing.
  void CompactAfterErase(const std::vector<int>& erased)
      SQLNF_REQUIRES(writer_thread_role);

  /// Inverse of Remove + CompactAfterErase — the DELETE rollback.
  /// Re-inserts `rows[k]` at row id `erased[k]` of the restored table
  /// (`erased` ascending, post-restore numbering): surviving ids shift
  /// back up, the encoding re-inserts the pre-image cells (identical
  /// codes — dictionaries never shrank in between), and the restored
  /// rows are re-indexed. O(index entries + restored cells).
  void Restore(const std::vector<int>& erased, const std::vector<Tuple>& rows)
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
  /// dictionary bijectivity, code ranges and ⊥ counts of the encoding,
  /// and buckets ↔ encoding consistency per constraint index (each row
  /// indexed exactly when it must be, under the hash of its CURRENT
  /// codes, with no duplicate or out-of-range ids). O(rows · |Σ| +
  /// dictionary sizes) — a debug hook, not a fast path.
  Status CheckInvariants() const;

  /// Order-insensitive digest of the constraint indexes (bucket keys
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
  struct ConstraintIndex {
    Constraint constraint;
    AttributeSet similarity_attrs;  // LHS for FDs, attrs for keys
    AttributeSet rhs;               // empty for keys
    bool strong = false;            // possible (strong) vs certain (weak)
    AttributeSet stable;            // hash attrs: full set when strong,
                                    // similarity_attrs ∩ NFS when weak
    std::unordered_map<uint64_t, std::vector<int>> buckets;
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

  /// Pushes `row_id` into every index it belongs to, hashed from its
  /// CURRENT codes (the slot must already hold them).
  void IndexRow(int row_id);

  TableSchema schema_;
  EncodedTable encoded_;
  std::vector<ConstraintIndex> indexes_;
};

}  // namespace sqlnf

#endif  // SQLNF_ENGINE_ENFORCER_H_

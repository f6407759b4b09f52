// EncodedTable: the shared columnar, dictionary-encoded view of a Table.
//
// Per column, every distinct non-null value is assigned a dense uint32
// code in first-occurrence order; ⊥ gets the reserved kNullCode. Codes
// are stored column-major, so the quadratic sweeps of discovery
// (agree sets, TANE partitions) and the grouped validators of
// engine/validate.h all run on flat integer vectors instead of hashing
// and comparing raw Values row by row. Because the dictionary is
// per-column, code equality is value equality and kNullCode is ⊥ — the
// paper's similarity notions (Section 2) become three integer compares:
//
//   equal      a == b                    (⊥ matches ⊥)
//   strong     a == b ∧ a ≠ kNullCode
//   weak       a == b ∨ a == kNullCode ∨ b == kNullCode
//
// The encoding is maintainable in place: AppendRow / UpdateCell /
// EraseRows keep it consistent across engine writes (the incremental
// enforcer holds one per stored table and never re-encodes), and
// LookupCode probes the dictionaries without mutating them, so a
// candidate row can be checked before it is accepted. Dictionaries only
// grow during forward execution — codes of deleted values are retired,
// not recycled — which keeps every historical code stable. Two
// sanctioned operations shrink them: TrimDictionaries, the undo-log
// rollback that retires codes minted inside an aborted statement or
// transaction back to a recorded high-water mark, and
// CompactDictionaries, the explicit maintenance pass that drops dead
// entries and re-encodes the survivors order-preservingly (below).
//
// ORDER-AWARE DICTIONARIES. Codes are assigned in first-occurrence
// order, so code order says nothing about value order — but every
// column additionally maintains its ORDER INDEX: the permutation of
// codes in ascending value order (`sorted`) and its inverse
// (`rank`, one rank per code). An ordered predicate `col < v` /
// `BETWEEN` then reduces to a code-INTERVAL test: binary-search the
// operand into the sorted permutation once (LowerBoundRank /
// UpperBoundRank), and a row matches iff the rank of its code falls in
// the resulting half-open rank interval — one gather plus one unsigned
// compare per row, no Value ever touched (engine/predicate.h compiles
// whole predicate trees onto this). ⊥ never enters a dictionary, so ⊥
// is excluded from every ordered comparison by construction; values of
// different kinds compare by Value's total order (Int < Str).
// CompactDictionaries additionally CANONICALIZES a column: live values
// are re-encoded in ascending value order, so rank becomes the
// identity (DictionaryOrdered) and the interval test runs directly on
// raw codes with no gather — and two encodings with equal decoded
// contents compact to BIT-IDENTICAL encodings regardless of their
// mutation histories.
//
// COPY-ON-WRITE COLUMNS AND DICTIONARIES. Sharing has two levels. A
// column holds its codes and, by shared_ptr, its dictionary (values,
// hash map, order index); an EncodedTable holds its columns by
// shared_ptr. Copying an EncodedTable is O(columns): the copy shares
// every column with the original. GatherRows and AllocateTarget (so
// every join output) build new code vectors but share their sources'
// dictionaries, so materializing a selection or a join costs its rows,
// not its dictionaries. Mutating entry points detach (clone) a shared
// column before writing its codes, and a dictionary is cloned only by
// the paths that change it — minting a value, TrimDictionaries,
// CompactDictionaries — and only while something else still shares
// it. A copy taken as a SNAPSHOT therefore stays bit-stable forever
// while the original keeps evolving — this is the versioned-column
// pointer swap behind the engine's snapshot reads (engine/catalog.h).
// A snapshot's columns and dictionaries are freed when the last
// reference is dropped; no epoch bookkeeping is needed beyond the
// shared_ptr counts. Sharing/detaching is safe under the engine's
// single-writer discipline: concurrent readers of snapshot copies never
// mutate, and the single writer is the only thread that detaches. A
// reader reaches a dictionary only through a snapshot column that
// references it (or through a gather or join of one, which references
// it too), so the writer never reads a stale use count of 1 for a
// dictionary a reader can still see.
//
// ZONE MAPS. Every encoded column also keeps, per block of kZoneRows
// rows, the least and greatest code stored in that block (⊥'s
// kNullCode counts as a code). A scan tests the codes an atom can
// match against these bounds and skips every block none of them can
// fall in (engine/predicate.h BlockMayMatch). The invariant is LOOSE
// BUT NEVER VIOLATED: every stored code lies inside its block's zone,
// but a zone may be wider than its codes. The passes that already
// write codes keep it: the constructors, GatherRows, CompactDictionaries
// and RecountNulls build zones; AppendRow opens or widens the tail
// zone; UpdateCell widens its block's zone (the old code may have been
// the only one at a bound, so the zone goes loose); EraseRows and
// UneraseRows recompute from the block of their first row on, the
// blocks whose codes they shift; and CompactDictionaries tightens every
// loose zone again. Zones live in the column, so a detach clones them
// with the codes and a snapshot's bounds stay stable with its codes.

#ifndef SQLNF_CORE_ENCODED_TABLE_H_
#define SQLNF_CORE_ENCODED_TABLE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sqlnf/core/attribute_set.h"
#include "sqlnf/core/schema.h"
#include "sqlnf/core/table.h"
#include "sqlnf/core/value.h"
#include "sqlnf/util/status.h"

namespace sqlnf {

/// Column-coded view of a table: per column, one uint32 code per row.
class EncodedTable {
 public:
  /// Reserved code for ⊥. Never assigned to a value.
  static constexpr uint32_t kNullCode = 0xFFFFFFFFu;
  /// Returned by LookupCode for values absent from a dictionary; such a
  /// value differs from every encoded cell of the column. Never stored.
  static constexpr uint32_t kMissingCode = 0xFFFFFFFEu;
  /// The sentinel rank: CodeRanks(col) carries one extra slot at index
  /// dictionary_size holding kNoRank, so gathering with
  /// min(code, dictionary_size) maps kNullCode onto a rank outside
  /// every interval — ⊥ drops out of ordered comparisons branch-free.
  static constexpr uint32_t kNoRank = 0xFFFFFFFFu;
  /// Rows per zone block; the compiled scan evaluates blocks of the
  /// same size (CompiledPredicate::kBlock is defined as this).
  static constexpr int kZoneRows = 2048;

  /// Encodes every column of `table`.
  explicit EncodedTable(const Table& table);

  /// Encodes only `columns` (a validator needs just LHS ∪ RHS); the
  /// others stay unencoded and must not be queried.
  EncodedTable(const Table& table, const AttributeSet& columns);

  /// An empty encoding of `num_columns` columns (all encoded), to be
  /// grown row by row via AppendRow.
  explicit EncodedTable(int num_columns);

  /// Copies share every column (O(columns)); a later mutation of either
  /// side detaches just the touched column, and its dictionary only if
  /// the mutation changes it. This is the snapshot mechanism — see the
  /// header comment.
  EncodedTable(const EncodedTable&) = default;
  EncodedTable& operator=(const EncodedTable&) = default;
  EncodedTable(EncodedTable&&) = default;
  EncodedTable& operator=(EncodedTable&&) = default;

  int num_rows() const { return num_rows_; }
  int num_columns() const { return static_cast<int>(columns_.size()); }

  /// Columns this encoding covers.
  const AttributeSet& encoded_columns() const { return encoded_; }

  uint32_t code(AttributeId col, int row) const {
    return columns_[col]->codes[row];
  }
  /// The whole code vector of one encoded column.
  const std::vector<uint32_t>& column(AttributeId col) const {
    return columns_[col]->codes;
  }
  /// The zone map of one encoded column (see the header comment): for
  /// block b, zones[2b] <= every code of rows [kZoneRows·b,
  /// kZoneRows·(b+1)) <= zones[2b+1].
  const std::vector<uint32_t>& zones(AttributeId col) const {
    return columns_[col]->zones;
  }

  /// Distinct non-null values ever encoded in `col` (codes are
  /// 0..dictionary_size-1; deleted values keep their retired codes).
  int dictionary_size(AttributeId col) const {
    return static_cast<int>(columns_[col]->dict->values.size());
  }

  /// Every encoded column's dictionary_size, indexed by column — the
  /// high-water mark an undo log records before a statement or
  /// transaction mutates this encoding (unencoded columns report 0).
  std::vector<int> DictionarySizes() const;
  /// The same marks written into `*sizes`, reusing its storage.
  void DictionarySizes(std::vector<int>* sizes) const;

  /// Retires every code minted past the recorded high-water marks:
  /// column by column, values with codes >= sizes[col] are dropped from
  /// the dictionary. The caller (the undo log) guarantees no live cell
  /// still carries a trimmed code — all rows written since the marks
  /// were taken have been rolled back first.
  void TrimDictionaries(const std::vector<int>& sizes);

  /// Code `value` would carry in `col`: kNullCode for ⊥, the assigned
  /// code if present, kMissingCode otherwise. Does not mutate.
  uint32_t LookupCode(AttributeId col, const Value& value) const;

  // ---- Order index (see the header comment). Ranks are positions in
  // ascending value order: rank r holds the (r+1)-smallest dictionary
  // value. Maintained across every dictionary mutation; an encoded
  // column always answers these in O(log dictionary) / O(1).

  /// Rank per code with one trailing kNoRank sentinel slot at index
  /// dictionary_size — the gather array behind encoded ordered
  /// predicates (index with min(code, dictionary_size)).
  const std::vector<uint32_t>& CodeRanks(AttributeId col) const {
    return columns_[col]->dict->rank;
  }

  /// True when code order already equals value order (rank identity) —
  /// the post-compaction fast path: ordered predicates then test raw
  /// codes against the interval with no rank gather at all.
  bool DictionaryOrdered(AttributeId col) const {
    return columns_[col]->dict->ordered;
  }

  /// Number of dictionary values of `col` strictly less than `v`
  /// under Value's total order — the lower endpoint of an ordered
  /// predicate's rank interval. ⊥ is never in a dictionary.
  uint32_t LowerBoundRank(AttributeId col, const Value& v) const;

  /// Number of dictionary values of `col` less than or equal to `v`.
  uint32_t UpperBoundRank(AttributeId col, const Value& v) const;

  /// Order-preserving dictionary compaction: per column, drops every
  /// value no longer referenced by any row (dead codes left behind by
  /// UPDATE re-encodes and DELETEs) and re-encodes the survivors in
  /// ascending value order — the canonical encoding. Afterwards
  /// DictionaryOrdered(col) holds everywhere, and two encodings with
  /// equal decoded contents are BitIdentical no matter how they got
  /// there. Codes change, so external state keyed on codes (the
  /// enforcer's constraint indexes) must be rebuilt by the caller; the
  /// engine's sanctioned entry point is Database::CompactTable, which
  /// is barred while a transaction's undo log holds pre-compaction
  /// codes. Returns the number of retired entries per column.
  std::vector<int> CompactDictionaries();

  /// Debug hook: re-derives every order-index invariant (sorted is a
  /// permutation of the codes in strictly ascending value order, rank
  /// is its inverse with the sentinel slot in place, DictionaryOrdered
  /// equals rank identity) and returns Internal on the first breach.
  Status CheckDictionaryOrder() const;

  /// Debug hook: every encoded column holds one zone per kZoneRows
  /// block and every stored code lies inside its block's zone; returns
  /// Internal on the first breach.
  Status CheckZones() const;

  /// The value behind a code (⊥ for kNullCode). Requires a code
  /// previously assigned in `col`.
  const Value& DecodeCode(AttributeId col, uint32_t code) const;

  /// Encoded columns currently containing no ⊥ (the instance-inferred
  /// NFS). Maintained incrementally — O(columns) per call.
  AttributeSet NullFreeColumns() const;

  /// The maintained ⊥ count of one encoded column (what NullFreeColumns
  /// reads); exposed so invariant checks can compare it to a recount.
  int null_count(AttributeId col) const { return columns_[col]->null_count; }

  /// Appends one row (arity must match). O(columns) dictionary probes.
  void AppendRow(const Tuple& row);

  /// Re-encodes a single cell in place (the UPDATE write path).
  void UpdateCell(int row, AttributeId col, const Value& value);

  /// Removes the listed rows (ascending, deduplicated); surviving rows
  /// keep their relative order, ids shift down (the DELETE write path).
  /// Rows before rows.front() do not move.
  void EraseRows(const std::vector<int>& rows);

  /// Inverse of EraseRows — the DELETE rollback. Re-inserts `tuples`
  /// so that tuples[k] lands at row id rows[k] of the RESTORED table
  /// (`rows` ascending, positions in post-restore numbering); survivors
  /// shift back up preserving order; rows before rows.front() do not
  /// move. Values are re-encoded, which reproduces their original codes
  /// because dictionaries never shrank in between.
  void UneraseRows(const std::vector<int>& rows,
                   const std::vector<Tuple>& tuples);

  /// Rebuilds the Table this encoding represents. Requires a full
  /// encoding and a schema of matching arity.
  Table Decode(const TableSchema& schema) const;

  // ---- Columnar executor support. The relational operators of
  // decomposition/encoded_ops.h and engine/relops.h are compositions of
  // these four primitives; none of them touches a Value — dictionaries
  // are shared or probed, never copied or rebuilt.

  /// The listed rows (any order, duplicates allowed) gathered into a new
  /// encoding. Each column shares its source's dictionary (copy-on-
  /// write), so codes keep their meaning and the cost is the gathered
  /// codes alone — this is how a selection vector materializes.
  EncodedTable GatherRows(const std::vector<int>& rows) const;

  /// The listed columns (any order, duplicates allowed) as a new, fully
  /// encoded table: column j of the result is column cols[j] here. Every
  /// listed column must be encoded. Columns are shared copy-on-write,
  /// so this is O(result columns).
  EncodedTable GatherColumns(const std::vector<AttributeId>& cols) const;

  /// An allocated-but-unfilled gather target for writers that know the
  /// output size up front (the equality join, after its count pass):
  /// column j shares the dictionary of column sources[j].second of
  /// *sources[j].first (copy-on-write) and gets a code vector sized to
  /// `num_rows` with unspecified contents. The writer must store a code
  /// into every slot through mutable_codes() and then call
  /// RecountNulls() — until then row queries, null counts and zones
  /// are meaningless.
  static EncodedTable AllocateTarget(
      const std::vector<std::pair<const EncodedTable*, AttributeId>>&
          sources,
      int num_rows);

  /// Raw writable code slots of one column, for AllocateTarget fill
  /// passes. Detaches the column if it is shared with a snapshot.
  uint32_t* mutable_codes(AttributeId col) {
    return Detach(col).codes.data();
  }

  /// Recomputes every column's ⊥ count and zones from its codes — the
  /// seal step after direct mutable_codes() writes.
  void RecountNulls();

  /// Ascending row ids of the first occurrence of each distinct row
  /// (codes compared across all encoded columns) — the dedup behind set
  /// projection I[X]. Code equality is value equality per column, so no
  /// Value is ever compared. Runs on a CSR hash index over the row
  /// codes: a row is emitted iff no smaller row in its bucket carries
  /// the same codes.
  std::vector<int> DistinctRows() const;

  /// The dictionary translation map from this encoding's codes in `col`
  /// into `other`'s code space for `other_col`: result[c] is the code
  /// `other` assigns to DecodeCode(col, c), or kMissingCode when the
  /// value is absent there. ⊥ needs no entry — kNullCode is shared by
  /// every encoding. O(dictionary size), independent of the row count.
  std::vector<uint32_t> TranslationTo(AttributeId col,
                                      const EncodedTable& other,
                                      AttributeId other_col) const;

  /// True when both encodings describe the same cell contents: same
  /// shape, same encoded columns, ⊥ in the same cells, and per column a
  /// bijection between live codes. Incremental maintenance and a
  /// from-scratch re-encode agree under this notion even though their
  /// dictionaries may order (or retain) values differently.
  bool EquivalentTo(const EncodedTable& other) const;

  /// True when both encodings are BIT-identical: same shape, same code
  /// in every cell, and per column the same dictionary (same values in
  /// the same code order). The abort-protocol tests use this — an
  /// aborted transaction must restore not just the logical contents but
  /// the exact codes and dictionary high-water marks. Zones are bounds,
  /// not contents, and are not compared: a rolled-back UPDATE may leave
  /// its block's zone loose.
  bool BitIdentical(const EncodedTable& other) const;

 private:
  struct ValueHasher {
    size_t operator()(const Value& v) const { return v.Hash(); }
  };
  // A column's dictionary: code -> value, value -> code, and the order
  // index derived from `values` and maintained by every dictionary
  // mutation — codes in ascending value order, the inverse rank per
  // code (with the kNoRank sentinel at index values.size()), and
  // whether code order equals value order. Shared copy-on-write by the
  // columns of copies, gathers and join outputs.
  struct Dictionary {
    std::vector<Value> values;
    std::unordered_map<Value, uint32_t, ValueHasher> index;
    std::vector<uint32_t> sorted;
    std::vector<uint32_t> rank = {kNoRank};
    bool ordered = true;
  };
  struct Column {
    Column() = default;
    explicit Column(std::shared_ptr<Dictionary> d) : dict(std::move(d)) {}
    std::vector<uint32_t> codes;  // one per row; kNullCode for ⊥
    std::vector<uint32_t> zones;  // [least, greatest] code per block
    int null_count = 0;
    std::shared_ptr<Dictionary> dict = std::make_shared<Dictionary>();
  };

  /// Recomputes the zones of every block from `from_block` on and sizes
  /// the zone vector to the column's block count.
  static void RebuildZones(Column* col, size_t from_block);

  /// The mutable column, cloned first if a snapshot still shares it
  /// (copy-on-write). Every mutating entry point goes through here; the
  /// clone shares the dictionary.
  Column& Detach(AttributeId col);

  /// The column's dictionary ready for writing, cloned first if another
  /// column still shares it. Only the paths that change a dictionary
  /// call this, on a column already detached.
  static Dictionary& MutableDictionary(Column* col);

  /// Encodes `value` into `col`: a lookup first, so a value already in
  /// the dictionary neither allocates nor clones; a new value grows the
  /// dictionary and its order index.
  static uint32_t Encode(Column* col, const Value& value);

  /// Dictionary growth without order maintenance, for bulk encodes
  /// that RebuildOrder() once at the end instead of paying the
  /// incremental insertion per distinct value.
  static uint32_t EncodeUnordered(Column* col, const Value& value);

  /// Splices freshly minted `code` into the order index (O(dictionary)
  /// worst case; O(1) when values arrive in ascending order).
  static void InsertOrdered(Dictionary* dict, uint32_t code);

  /// Recomputes the order index from `values` (O(d log d)).
  static void RebuildOrder(Dictionary* dict);

  int num_rows_ = 0;
  AttributeSet encoded_;
  std::vector<std::shared_ptr<Column>> columns_;
};

/// The three per-pair similarity tests on codes (see header comment).
inline bool CodesEqual(uint32_t a, uint32_t b) { return a == b; }
inline bool CodesStronglySimilar(uint32_t a, uint32_t b) {
  return a == b && a != EncodedTable::kNullCode;
}
inline bool CodesWeaklySimilar(uint32_t a, uint32_t b) {
  return a == b || a == EncodedTable::kNullCode ||
         b == EncodedTable::kNullCode;
}

}  // namespace sqlnf

#endif  // SQLNF_CORE_ENCODED_TABLE_H_

// Predicate trees over encoded columns: the engine's one WHERE type.
//
// A Predicate is kept in DISJUNCTIVE NORMAL FORM — an OR over
// conjunctions of atoms — because every SQL WHERE the parser accepts
// (engine/sql.h) flattens into it, and DNF evaluates as two nested
// branch-free loops over match bytes. An atom compares one column
// against literals:
//
//   col =  v | col <> v                 marker equality / its complement
//   col <  v | <= | > | >=             ordered comparison
//   col BETWEEN a AND b                shorthand for >= a AND <= b
//   col IN (v1, ..., vk)               marker equality with any member
//
// ⊥ SEMANTICS (MARKER, not SQL three-valued logic — consistent with the
// paper's Section 2 tuple equality and the equality join of
// decomposition/encoded_ops.h): `=` is syntactic marker equality, so
// `col = NULL` matches exactly the ⊥ cells and `<>` matches the
// complement. Ordered comparisons EXCLUDE ⊥ by definition: a ⊥ cell
// satisfies no `<`/`<=`/`>`/`>=`/BETWEEN atom, and a ⊥ operand (e.g.
// `col < NULL`) makes the atom false everywhere. Values of different
// kinds compare by Value's total order (Int < Str). IN is k-fold marker
// equality — ⊥ may appear in the list and matches the ⊥ cells.
//
// Two evaluators share these semantics and are differentially tested
// against each other (tests/predicate_fuzz_test.cc):
//
//   MatchesPredicate   the literal row-major oracle on decoded tuples
//   CompiledPredicate  the columnar evaluator: per atom, dictionary
//                      probes / binary searches happen ONCE at compile
//                      time, reducing the atom to an integer test on
//                      raw uint32 codes (equality, code interval, rank
//                      interval, or a membership byte table); rows are
//                      then evaluated in blocks through the explicit
//                      SIMD kernels of core/simd_kernels.h (scalar /
//                      128-bit / AVX2, runtime-dispatched,
//                      bit-identical across levels by contract — the
//                      fuzzer sweeps every level to prove it).
//
// Ordered atoms compile through the column's order index
// (core/encoded_table.h): `col < v` becomes a half-open RANK interval
// [0, LowerBoundRank(v)), tested as one gather
// rank[min(code, d)] plus one unsigned compare — the kNoRank sentinel
// at slot d makes ⊥ fall outside every interval without a branch. On a
// compacted (DictionaryOrdered) column the gather disappears and the
// interval tests raw codes directly.
//
// BLOCK SKIPPING. Each compiled atom also records the codes it can
// match, to test against a block's zone (core/encoded_table.h, the
// least and greatest code per kBlock rows): `=` matches [want, want],
// an interval on an ordered dictionary [lo, lo+span-1], IN its sorted
// member codes (⊥ as kNullCode), and `<>` everything but a block whose
// zone is exactly [want, want]. A rank interval (unordered dictionary)
// never rejects a block: its ranks are not monotone in codes. A block
// no disjunct can match would evaluate to all zeros, so the scan skips
// it (BlockMayMatch) without changing its result.

#ifndef SQLNF_ENGINE_PREDICATE_H_
#define SQLNF_ENGINE_PREDICATE_H_

#include <cstdint>
#include <vector>

#include "sqlnf/core/encoded_table.h"
#include "sqlnf/core/simd_kernels.h"
#include "sqlnf/core/table.h"
#include "sqlnf/core/value.h"
#include "sqlnf/util/status.h"

namespace sqlnf {

/// Atom comparison operators. kBetween uses `value`..`upper`
/// inclusive; kIn uses `list`; all others use `value` alone.
enum class CompareOp : uint8_t {
  kEq,       // marker equality (⊥ = ⊥ matches)
  kNe,       // complement of kEq
  kLt,       // ordered, ⊥ excluded
  kLe,
  kGt,
  kGe,
  kBetween,  // value <= col <= upper, ⊥ excluded
  kIn,       // marker equality with any list member
};

/// One comparison of a column against literal operand(s).
struct PredicateAtom {
  AttributeId column = 0;
  CompareOp op = CompareOp::kEq;
  Value value;              // operand; lower bound for kBetween
  Value upper;              // kBetween only
  std::vector<Value> list;  // kIn only; empty list matches nothing
};

/// AND of atoms; empty conjunction is TRUE.
using Conjunction = std::vector<PredicateAtom>;

/// OR of conjunctions (DNF); zero disjuncts is FALSE.
struct Predicate {
  std::vector<Conjunction> disjuncts;

  /// The predicate matching every row: one empty conjunction.
  static Predicate True() { return Predicate{{Conjunction{}}}; }

  /// A single-conjunction predicate (the common parser output).
  static Predicate And(Conjunction atoms) {
    return Predicate{{std::move(atoms)}};
  }

  bool IsTrue() const {
    for (const Conjunction& c : disjuncts) {
      if (c.empty()) return true;
    }
    return false;
  }
};

/// Convenience atom builders (tests and parser).
PredicateAtom Cmp(AttributeId column, CompareOp op, Value value);
PredicateAtom Between(AttributeId column, Value lo, Value hi);
PredicateAtom In(AttributeId column, std::vector<Value> list);

/// Checks every atom references a column < num_columns and carries the
/// operand shape its op requires. The engine validates once at the
/// statement boundary; evaluators may assume validity.
Status ValidatePredicate(const Predicate& pred, int num_columns);

/// What `where`, bound against the schema `joined` of a natural join,
/// implies for each of the join's inputs (`inputs`, in join order).
/// Filter i is, per disjunct, the atoms on columns input i holds,
/// rebound to its ids, OR'd over the disjuncts. A joined row satisfies
/// `where` only if every input row it came from satisfies its input's
/// filter: the join matches identical values (⊥ = ⊥), so an atom on a
/// join column reads the same on every input holding the column, and
/// goes to each of them. A disjunct with no atom on an input makes that
/// input's filter TRUE. The SQL executor (engine/sql.h) filters each
/// join input by its filter before joining.
std::vector<Predicate> JoinInputFilters(
    const Predicate& where, const TableSchema& joined,
    const std::vector<const TableSchema*>& inputs);

/// The literal row-major oracle: evaluates the tree on a decoded tuple
/// exactly as the semantics above read. Differential reference for
/// CompiledPredicate.
bool MatchesAtom(const Value& cell, const PredicateAtom& atom);
bool MatchesPredicate(const Tuple& t, const Predicate& pred);

/// A predicate compiled against one EncodedTable: every dictionary
/// probe and order-index binary search is done up front, leaving pure
/// integer tests per row. Immutable after Compile, so one instance is
/// safely shared by all scan threads. Holds raw pointers into the
/// table's columns — the table must outlive the compiled form and not
/// be mutated while evaluations run (the engine guarantees this:
/// scans compile against an immutable snapshot or run on the single
/// writer thread).
class CompiledPredicate {
 public:
  /// Rows evaluated per EvalBlock call; scratch buffers of this many
  /// bytes fit on the stack of each scan thread. One block is one
  /// zone of the encoding, so BlockMayMatch tests block b's zones.
  static constexpr int kBlock = EncodedTable::kZoneRows;

  CompiledPredicate(const EncodedTable& enc, const Predicate& pred);

  /// Writes match[j] = 1 if row begin+j satisfies the predicate else 0,
  /// for j in [0, n). Requires n <= kBlock and match sized n.
  /// Branch-free over the block; const and thread-safe.
  void EvalBlock(int64_t begin, int64_t n, uint8_t* match) const;

  /// False when no row of block `block` (rows [kBlock·block,
  /// kBlock·(block+1))) can match, read off the columns' zones: no
  /// disjunct has every atom's matchable codes meet its column's zone.
  /// EvalBlock would then write all zeros. True may still match none.
  bool BlockMayMatch(int64_t block) const;

  /// True when no row can ever match (e.g. zero disjuncts, or every
  /// disjunct contains an unsatisfiable atom).
  bool never_matches() const { return disjuncts_.empty(); }

  /// True when every row matches (some disjunct compiled to no tests).
  bool always_matches() const { return always_; }

 private:
  // One atom reduced to an integer test on codes. `kTable` is the
  // general membership form: d+1 live bytes indexed by min(code, d),
  // slot d holding ⊥'s membership (kNullCode gathers onto it), plus
  // simd::kByteTablePad trailing zeros for the AVX2 4-byte gather.
  struct Atom {
    enum class Kind : uint8_t {
      kEqCode,        // codes[i] == want
      kNeCode,        // codes[i] != want
      kCodeInterval,  // (codes[i] - lo) < span   (ordered dictionary)
      kRankInterval,  // (rank[min(codes[i],d)] - lo) < span
      kTable,         // table[min(codes[i],d)]
    };
    Kind kind = Kind::kEqCode;
    const uint32_t* codes = nullptr;
    const uint32_t* zones = nullptr;  // the column's [lo, hi] per block
    const uint32_t* rank = nullptr;  // kRankInterval
    uint32_t d = 0;                  // gather clamp: min(code, d)
    uint32_t want = 0;               // kEqCode / kNeCode
    uint32_t lo = 0;                 // intervals
    uint32_t span = 0;
    std::vector<uint8_t> table;      // kTable
    std::vector<uint32_t> members;   // kTable: sorted, ⊥ as kNullCode
  };

  // Whether some code `atom` can match lies in its column's zone of
  // block `block` (see BLOCK SKIPPING in the header comment).
  static bool AtomMayMatch(const Atom& atom, int64_t block);

  // One atom's test over a block, routed to the simd kernel matching
  // its kind at dispatch level `level`: the first atom of a
  // conjunction assigns (Store::kAssign), later atoms AND — so no
  // fill-with-ones pass precedes the scan loops.
  static void ApplyAtom(const Atom& atom, simd::Level level, int64_t begin,
                        int len, simd::Store store, uint8_t* out);

  std::vector<std::vector<Atom>> disjuncts_;
  bool always_ = false;
};

}  // namespace sqlnf

#endif  // SQLNF_ENGINE_PREDICATE_H_

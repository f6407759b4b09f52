// Agree sets for dependency discovery (Section 7 substrate).
//
// For every pair of rows we record three attribute sets:
//   eq     — attributes with identical values (⊥ = ⊥ included),
//   strong — attributes where both values are non-null and equal,
//   weak   — attributes that are equal or have ⊥ on either side.
// (strong ⊆ eq ⊆ weak.)
//
// An FD X → A with semantics m is violated by a pair iff A ∉ eq and
// X ⊆ sim_m(pair); hence the valid LHSs for RHS A are exactly the sets
// hitting every complement U − sim_m(pair) over the violating pairs.
// Keys use the same machinery without the RHS condition. Only MAXIMAL
// agree sets need to be kept (a subset imposes a weaker constraint).
//
// The pair sweep runs on the shared columnar representation
// (core/encoded_table.h), the same one the engine validators and the
// incremental enforcer use.

#ifndef SQLNF_DISCOVERY_AGREE_SETS_H_
#define SQLNF_DISCOVERY_AGREE_SETS_H_

#include <cstdint>
#include <vector>

#include "sqlnf/core/encoded_table.h"
#include "sqlnf/core/table.h"
#include "sqlnf/util/status.h"

namespace sqlnf {

/// The three agree sets of one row pair.
struct PairAgreement {
  AttributeSet eq;
  AttributeSet strong;
  AttributeSet weak;
};

PairAgreement ComputeAgreement(const EncodedTable& enc, int row1, int row2);

/// All pairwise agreements, deduplicated (identical triples collapse —
/// hitting-set constraints do not depend on multiplicity). Row pairs are
/// capped at `max_rows` rows (ascending prefix) to bound the quadratic
/// sweep; pass <= 0 for no cap.
///
/// With `threads > 1` the O(n²) pair triangle is swept in slices of
/// outer rows on that many threads (util/parallel.h ForkJoin): each
/// slice dedups locally, then the slices merge in row order against a
/// global seen-set — the output is bit-identical to the serial sweep
/// (same triples, same first-occurrence order).
std::vector<PairAgreement> CollectAgreements(const EncodedTable& enc,
                                             int max_rows = 0,
                                             int threads = 1);

/// Keeps only sets that are maximal under inclusion.
std::vector<AttributeSet> MaximalSets(std::vector<AttributeSet> sets);

}  // namespace sqlnf

#endif  // SQLNF_DISCOVERY_AGREE_SETS_H_

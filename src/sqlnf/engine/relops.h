// Relational operators for the mini query engine.
//
// Together with decomposition/decomposition.h (projections, equality
// join) these power the Section 7 performance experiment: scan a
// de-normalized table vs. re-join its normalized components, and scale a
// small table up by crossing it with a numbers column. The selection
// runs on codes; its row-major reference, with UPDATE / DELETE / JOIN
// over Tuples, lives in reference/relops.h (the sqlnf_reference
// library).

#ifndef SQLNF_ENGINE_RELOPS_H_
#define SQLNF_ENGINE_RELOPS_H_

#include <string>
#include <vector>

#include "sqlnf/core/encoded_table.h"
#include "sqlnf/core/table.h"
#include "sqlnf/engine/predicate.h"
#include "sqlnf/util/status.h"

namespace sqlnf {

/// Selection vector (ascending row ids) of the rows satisfying the
/// predicate tree, computed on codes: atoms compile once against the
/// encoding (dictionary probes, order-index binary searches —
/// engine/predicate.h), then one fused pass of branch-free integer
/// compares per row block evaluates the whole DNF. A value absent from
/// a dictionary matches no row (kEq/kIn) or every row (kNe);
/// Predicate::True() selects every row. One pass on the calling
/// thread: each row block is evaluated once and its matching ids are
/// compress-stored and appended to the result; a block whose zones
/// rule out every disjunct (CompiledPredicate::BlockMayMatch) is
/// skipped unevaluated.
std::vector<int> SelectRowsEncoded(const EncodedTable& enc,
                                   const Predicate& pred);

/// Crosses `table` with an integer column `column` holding 1..n —
/// the paper's trick to scale the 173-row contractor table to a
/// "typical size". The new column is NOT NULL and is prepended.
Result<Table> CrossWithSequence(const Table& table, int n,
                                const std::string& column);

}  // namespace sqlnf

#endif  // SQLNF_ENGINE_RELOPS_H_

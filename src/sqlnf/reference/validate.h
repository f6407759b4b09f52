// Row-major constraint checkers: the pre-columnar transcriptions of
// Definitions 1–2 that the serving validators are held to.
//
// * The *Tuple validators are the batch path as it ran before the
//   dictionary encoding: rows hashed on Values into an unordered_map,
//   every pair in a bucket compared on Values, serially.
//   Verdict-equivalent to engine/validate.h's encoded kernels, but the
//   witness follows the map's iteration order. The differential suite
//   checks their verdicts, and E5 times the encoded kernels against
//   them (the encoded ≥ 2× tuple gate).
// * ValidateRowAgainst is the write path's reference: one candidate
//   row paired with every stored row, the check the incremental
//   enforcer (engine/enforcer.h) answers from its code-keyed indexes.
//
// This file belongs to the sqlnf_reference library, which no serving
// binary links.

#ifndef SQLNF_REFERENCE_VALIDATE_H_
#define SQLNF_REFERENCE_VALIDATE_H_

#include <optional>

#include "sqlnf/constraints/constraint.h"
#include "sqlnf/constraints/satisfies.h"
#include "sqlnf/core/table.h"

namespace sqlnf {

std::optional<Violation> FindFdViolationTuple(const Table& table,
                                              const FunctionalDependency& fd);

std::optional<Violation> FindKeyViolationTuple(const Table& table,
                                               const KeyConstraint& key);

/// Checks one candidate row against an existing (assumed-consistent)
/// instance: NFS, then each constraint against every stored row.
/// Returns the violation or nullopt. O(rows · |Σ|).
std::optional<Violation> ValidateRowAgainst(const Table& table,
                                            const Tuple& row,
                                            const ConstraintSet& sigma);

}  // namespace sqlnf

#endif  // SQLNF_REFERENCE_VALIDATE_H_

// Scalable constraint validation (the Section 7 consistency check).
//
// The reference checkers in constraints/satisfies.h are O(n²) over all
// row pairs. For large instances we exploit that similar tuples must
// agree EXACTLY on part of the LHS: on all of it under strong
// similarity (possible constraints; rows with ⊥ on the LHS take no
// part), on the columns that contain no ⊥ anywhere in the instance
// under weak similarity (certain constraints). One kernel serves all
// four classes (FD/key × possible/certain): it groups rows by a
// CodeHashIndex on those exact columns (core/code_hash_index.h, the
// grouping structure behind the join and DistinctRows) and compares
// rows only within a bucket, all on dictionary CODES
// (core/encoded_table.h), so every predicate is an integer compare.
// The Table entry points encode just the columns a constraint mentions
// and forward to the EncodedTable kernels; callers that already hold an
// encoding (a table snapshot behind /validate, discovery) skip the
// encode entirely. A bare verdict is the negation of a Find*: there is
// no bool wrapper per class. The pre-columnar tuple-hashing path that
// E5 times these kernels against lives in reference/validate.h (the
// sqlnf_reference library).
//
// Witness rule: a violated constraint reports its lexicographically
// smallest violating pair (row1 < row2) — the pair
// constraints/satisfies.h reports — at every thread count.
//
// Cost: code equality is transitive, so a row whose LHS codes (⊥
// counted as a code) repeat an earlier row of its bucket starts no
// walk; every other row walks its bucket once. Possible constraints,
// and certain ones whose LHS holds no ⊥, group on the whole LHS: a
// bucket then holds one code vector (barring hash collisions) and the
// check is O(n). ⊥ in the LHS of a certain constraint makes weak
// similarity intransitive: a bucket holding d distinct LHS code
// vectors among b rows costs O(d·b).
//
// This is the BATCH path: it checks a whole instance. The catalog's
// write path never calls it — INSERT and UPDATE check only the rows
// they change, through the incremental enforcer (engine/enforcer.h).
//
// Property tests cross-check every validator against the reference and
// a literal Definition-1/2 oracle (tests/reference_oracle.h).
//
// Every entry point takes an optional ParallelOptions:
// with threads > 1 on a table of at least 2,048 rows, the index builds
// chunk-parallel and row chunks scan concurrently, folding left to
// right, so verdict and witness are identical to serial.

#ifndef SQLNF_ENGINE_VALIDATE_H_
#define SQLNF_ENGINE_VALIDATE_H_

#include <optional>

#include "sqlnf/constraints/constraint.h"
#include "sqlnf/constraints/satisfies.h"
#include "sqlnf/core/encoded_table.h"
#include "sqlnf/core/table.h"
#include "sqlnf/util/parallel.h"

namespace sqlnf {

/// Fast validation of a whole constraint set (plus the NFS). Encodes
/// the union of all mentioned columns once and reuses it.
bool ValidateAll(const Table& table, const ConstraintSet& sigma,
                 const ParallelOptions& par = {});

/// The smallest violating row pair of one FD, or nullopt when it
/// holds. Matches constraints/satisfies.h exactly.
std::optional<Violation> FindFdViolationFast(
    const Table& table, const FunctionalDependency& fd,
    const ParallelOptions& par = {});

/// The smallest violating row pair of one key, or nullopt.
std::optional<Violation> FindKeyViolationFast(
    const Table& table, const KeyConstraint& key,
    const ParallelOptions& par = {});

// ---- Columnar kernels ------------------------------------------------
// `enc` must cover every column the constraint mentions
// (enc.encoded_columns() ⊇ lhs ∪ rhs / attrs).

std::optional<Violation> FindFdViolationEncoded(
    const EncodedTable& enc, const FunctionalDependency& fd,
    const ParallelOptions& par = {});

std::optional<Violation> FindKeyViolationEncoded(
    const EncodedTable& enc, const KeyConstraint& key,
    const ParallelOptions& par = {});

/// Whole-Σ validation on a shared encoding; `nfs` is the schema's NOT
/// NULL set (the NFS holds iff those columns are null-free here).
bool ValidateAllEncoded(const EncodedTable& enc, const AttributeSet& nfs,
                        const ConstraintSet& sigma,
                        const ParallelOptions& par = {});

}  // namespace sqlnf

#endif  // SQLNF_ENGINE_VALIDATE_H_

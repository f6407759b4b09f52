// Scalable constraint validation (the Section 7 consistency check).
//
// The reference checkers in constraints/satisfies.h are O(n²) over all
// row pairs. For large instances we exploit that weakly similar tuples
// must agree EXACTLY on every LHS column that contains no ⊥ anywhere in
// the instance: partition rows on those columns, then compare pairs
// only within partitions. For possible (strong) semantics, only rows
// total on the LHS can participate, and strong similarity within the
// partition is plain equality — no pair loop at all.
//
// Since PR 2 the kernels run on the shared columnar representation
// (core/encoded_table.h): rows are bucketed by their dictionary CODES
// (radix on the code value for single-column groups, FNV-mixed hashing
// for wider ones) and all within-bucket predicates are integer
// compares. The Table entry points encode just the columns a constraint
// mentions and forward to the EncodedTable kernels; callers that
// already hold an encoding (a table snapshot behind /validate,
// discovery) skip the encode entirely. The pre-columnar tuple-hashing
// path is kept as *Tuple for differential testing and bench ablations.
//
// This is the BATCH path: it checks a whole instance. The catalog's
// write path never calls it — INSERT and UPDATE check only the rows
// they change, through the incremental enforcer (engine/enforcer.h).
//
// Property tests cross-check every validator against the reference and
// a literal Definition-1/2 oracle (tests/reference_oracle.h).
//
// Every entry point takes an optional ParallelOptions: with threads > 1
// the buckets are scanned by a thread pool with first-violation
// short-circuit. Satisfaction verdicts are identical to serial; when a
// constraint is violated, WHICH violating pair is reported may differ
// (any violating pair is a correct witness).

#ifndef SQLNF_ENGINE_VALIDATE_H_
#define SQLNF_ENGINE_VALIDATE_H_

#include <optional>

#include "sqlnf/constraints/constraint.h"
#include "sqlnf/constraints/satisfies.h"
#include "sqlnf/core/encoded_table.h"
#include "sqlnf/core/table.h"
#include "sqlnf/util/parallel.h"

namespace sqlnf {

/// Fast validation of one FD. Matches constraints/satisfies.h exactly.
bool ValidateFd(const Table& table, const FunctionalDependency& fd,
                const ParallelOptions& par = {});

/// Fast validation of one key.
bool ValidateKey(const Table& table, const KeyConstraint& key,
                 const ParallelOptions& par = {});

/// Fast validation of a whole constraint set (plus the NFS). Encodes
/// the union of all mentioned columns once and reuses it.
bool ValidateAll(const Table& table, const ConstraintSet& sigma,
                 const ParallelOptions& par = {});

/// Like ValidateFd but returns the first violating row pair.
std::optional<Violation> FindFdViolationFast(
    const Table& table, const FunctionalDependency& fd,
    const ParallelOptions& par = {});

/// Like ValidateKey but returns the first violating row pair.
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

bool ValidateFdEncoded(const EncodedTable& enc,
                       const FunctionalDependency& fd,
                       const ParallelOptions& par = {});

bool ValidateKeyEncoded(const EncodedTable& enc, const KeyConstraint& key,
                        const ParallelOptions& par = {});

/// Whole-Σ validation on a shared encoding; `nfs` is the schema's NOT
/// NULL set (the NFS holds iff those columns are null-free here).
bool ValidateAllEncoded(const EncodedTable& enc, const AttributeSet& nfs,
                        const ConstraintSet& sigma,
                        const ParallelOptions& par = {});

// ---- Legacy tuple-hashing path ---------------------------------------
// The pre-columnar implementation (HashOn(Tuple) buckets + Value
// compares). Verdict-equivalent to the encoded kernels; kept as the
// differential-testing baseline and for the encoded-vs-tuple bench.

std::optional<Violation> FindFdViolationTuple(
    const Table& table, const FunctionalDependency& fd,
    const ParallelOptions& par = {});

std::optional<Violation> FindKeyViolationTuple(
    const Table& table, const KeyConstraint& key,
    const ParallelOptions& par = {});

}  // namespace sqlnf

#endif  // SQLNF_ENGINE_VALIDATE_H_

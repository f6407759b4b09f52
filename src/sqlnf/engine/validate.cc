#include "sqlnf/engine/validate.h"

#include <cassert>
#include <optional>
#include <vector>

#include "sqlnf/core/code_hash_index.h"
#include "sqlnf/core/similarity.h"

namespace sqlnf {

namespace {

// ---- code kernel -----------------------------------------------------

bool CodesEqualOn(const EncodedTable& enc, int r1, int r2,
                  const AttributeSet& attrs) {
  for (AttributeId a : attrs) {
    if (enc.code(a, r1) != enc.code(a, r2)) return false;
  }
  return true;
}

bool CodesWeaklySimilarOn(const EncodedTable& enc, int r1, int r2,
                          const AttributeSet& attrs) {
  for (AttributeId a : attrs) {
    if (!CodesWeaklySimilar(enc.code(a, r1), enc.code(a, r2))) return false;
  }
  return true;
}

bool RowTotalOn(const EncodedTable& enc, int row,
                const AttributeSet& attrs) {
  for (AttributeId a : attrs) {
    if (enc.code(a, row) == EncodedTable::kNullCode) return false;
  }
  return true;
}

// The one batch kernel behind FindFdViolationEncoded and
// FindKeyViolationEncoded: the lexicographically smallest row pair
// (i, j), i < j, similar on `lhs` (strongly when `possible`, else
// weakly) and, for an FD (`rhs` non-null), differing on *rhs.
//
// Similar rows agree exactly on `exact` — the whole LHS under strong
// similarity, its null-free columns under weak similarity — so every
// partner of row i lies in i's CodeHashIndex bucket on those columns.
// A row i whose LHS codes (⊥ counted as a code) repeat an earlier row k
// of its bucket starts no walk: k is similar to i and to every row i is
// similar to, so a violation (i, j) implies the smaller (k, j) or
// (k, i), and the smallest pair starts at a row that walks.
std::optional<Violation> FindViolatingPair(const EncodedTable& enc,
                                           const AttributeSet& lhs,
                                           bool possible,
                                           const AttributeSet* rhs) {
  const AttributeSet exact =
      possible ? lhs : lhs.Intersect(enc.NullFreeColumns());
  const AttributeSet rest = lhs.Difference(exact);
  std::vector<const std::vector<uint32_t>*> keys;
  for (AttributeId a : exact) keys.push_back(&enc.column(a));
  const int n = enc.num_rows();
  const CodeHashIndex index(keys, n);

  // Rows ascending; the first row with a violating partner reports its
  // first (buckets list rows ascending).
  for (int i = 0; i < n; ++i) {
    if (possible && !RowTotalOn(enc, i, lhs)) continue;
    const CodeHashIndex::Range bucket = index.Bucket(index.row_hash(i));
    const int* at = bucket.begin;
    while (*at != i && !CodesEqualOn(enc, *at, i, lhs)) ++at;
    if (*at != i) continue;
    for (const int* p = at + 1; p != bucket.end; ++p) {
      if (CodesEqualOn(enc, i, *p, exact) &&
          CodesWeaklySimilarOn(enc, i, *p, rest) &&
          (rhs == nullptr || !CodesEqualOn(enc, i, *p, *rhs))) {
        return Violation{i, *p, std::nullopt, std::nullopt};
      }
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<Violation> FindFdViolationEncoded(
    const EncodedTable& enc, const FunctionalDependency& fd) {
  assert(fd.lhs.Union(fd.rhs).IsSubsetOf(enc.encoded_columns()));
  std::optional<Violation> violation =
      FindViolatingPair(enc, fd.lhs, fd.is_possible(), &fd.rhs);
  if (violation) violation->constraint = Constraint(fd);
  return violation;
}

std::optional<Violation> FindKeyViolationEncoded(const EncodedTable& enc,
                                                 const KeyConstraint& key) {
  assert(key.attrs.IsSubsetOf(enc.encoded_columns()));
  std::optional<Violation> violation =
      FindViolatingPair(enc, key.attrs, key.is_possible(), nullptr);
  if (violation) violation->constraint = Constraint(key);
  return violation;
}

bool ValidateAllEncoded(const EncodedTable& enc, const AttributeSet& nfs,
                        const ConstraintSet& sigma) {
  assert(nfs.IsSubsetOf(enc.encoded_columns()));
  if (!nfs.IsSubsetOf(enc.NullFreeColumns())) return false;
  for (const auto& fd : sigma.fds()) {
    if (FindFdViolationEncoded(enc, fd)) return false;
  }
  for (const auto& key : sigma.keys()) {
    if (FindKeyViolationEncoded(enc, key)) return false;
  }
  return true;
}

// ---- Table entry points (encode-and-forward) -------------------------

std::optional<Violation> FindFdViolationFast(const Table& table,
                                             const FunctionalDependency& fd) {
  const EncodedTable enc(table, fd.lhs.Union(fd.rhs));
  return FindFdViolationEncoded(enc, fd);
}

std::optional<Violation> FindKeyViolationFast(const Table& table,
                                              const KeyConstraint& key) {
  const EncodedTable enc(table, key.attrs);
  return FindKeyViolationEncoded(enc, key);
}

bool ValidateAll(const Table& table, const ConstraintSet& sigma) {
  AttributeSet needed = table.schema().nfs();
  for (const auto& fd : sigma.fds()) needed = needed | fd.lhs | fd.rhs;
  for (const auto& key : sigma.keys()) needed = needed | key.attrs;
  const EncodedTable enc(table, needed);
  return ValidateAllEncoded(enc, table.schema().nfs(), sigma);
}

}  // namespace sqlnf

#include "sqlnf/reference/validate.h"

#include <unordered_map>
#include <vector>

#include "sqlnf/core/similarity.h"
#include "sqlnf/util/fnv.h"

namespace sqlnf {

namespace {

size_t HashOn(const Tuple& t, const AttributeSet& x) {
  uint64_t h = kFnv64OffsetBasis;
  for (AttributeId a : x) h = FnvMix(h, t[a].Hash());
  return h;
}

// The encoded kernel's pre-columnar counterpart: rows hashed on the
// exact LHS part into an unordered_map, then every pair in a bucket
// compared, buckets in the map's iteration order.
std::optional<Violation> FindViolatingPairTuple(const Table& table,
                                                const AttributeSet& lhs,
                                                bool possible,
                                                const AttributeSet* rhs) {
  const AttributeSet group =
      possible ? lhs : lhs.Intersect(table.NullFreeColumns());
  const AttributeSet rest = lhs.Difference(group);
  std::unordered_map<uint64_t, std::vector<int>> buckets;
  for (int i = 0; i < table.num_rows(); ++i) {
    if (possible && !table.row(i).IsTotal(lhs)) continue;
    buckets[HashOn(table.row(i), group)].push_back(i);
  }
  for (const auto& [hash, rows] : buckets) {
    for (size_t a = 0; a < rows.size(); ++a) {
      const Tuple& t = table.row(rows[a]);
      for (size_t b = a + 1; b < rows.size(); ++b) {
        const Tuple& u = table.row(rows[b]);
        // Hash collisions: confirm the grouped columns really match.
        if (t.EqualOn(u, group) && WeaklySimilar(t, u, rest) &&
            (rhs == nullptr || !t.EqualOn(u, *rhs))) {
          return Violation{rows[a], rows[b], std::nullopt, std::nullopt};
        }
      }
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<Violation> FindFdViolationTuple(
    const Table& table, const FunctionalDependency& fd) {
  std::optional<Violation> violation =
      FindViolatingPairTuple(table, fd.lhs, fd.is_possible(), &fd.rhs);
  if (violation) violation->constraint = Constraint(fd);
  return violation;
}

std::optional<Violation> FindKeyViolationTuple(const Table& table,
                                               const KeyConstraint& key) {
  std::optional<Violation> violation =
      FindViolatingPairTuple(table, key.attrs, key.is_possible(), nullptr);
  if (violation) violation->constraint = Constraint(key);
  return violation;
}

std::optional<Violation> ValidateRowAgainst(const Table& table,
                                            const Tuple& row,
                                            const ConstraintSet& sigma) {
  // NFS first.
  for (AttributeId a : table.schema().nfs()) {
    if (row[a].is_null()) {
      Violation v;
      v.row1 = v.row2 = table.num_rows();
      v.attribute = a;
      return v;
    }
  }
  // Pair the candidate with every stored row.
  for (int i = 0; i < table.num_rows(); ++i) {
    const Tuple& existing = table.row(i);
    for (const auto& fd : sigma.fds()) {
      const bool similar = fd.is_possible()
                               ? StronglySimilar(row, existing, fd.lhs)
                               : WeaklySimilar(row, existing, fd.lhs);
      if (similar && !row.EqualOn(existing, fd.rhs)) {
        return Violation{i, table.num_rows(), Constraint(fd),
                         std::nullopt};
      }
    }
    for (const auto& key : sigma.keys()) {
      const bool similar = key.is_possible()
                               ? StronglySimilar(row, existing, key.attrs)
                               : WeaklySimilar(row, existing, key.attrs);
      if (similar) {
        return Violation{i, table.num_rows(), Constraint(key),
                         std::nullopt};
      }
    }
  }
  return std::nullopt;
}

}  // namespace sqlnf

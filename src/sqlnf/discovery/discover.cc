#include "sqlnf/discovery/discover.h"

#include <map>

#include "sqlnf/constraints/satisfies.h"
#include "sqlnf/decomposition/decomposition.h"
#include "sqlnf/discovery/agree_sets.h"

namespace sqlnf {

namespace {

// Minimal LHSs for RHS attribute `a` under one similarity semantics:
// minimal subsets of `universe` hitting every complement of sim(pair)
// over the pairs that differ on `a` (a ∉ eq).
std::vector<AttributeSet> MinimalLhs(
    const std::vector<PairAgreement>& agreements, AttributeId a,
    const AttributeSet& all, const AttributeSet& universe,
    AttributeSet PairAgreement::*sim, const HittingSetOptions& options) {
  std::vector<AttributeSet> violating_sims;
  for (const PairAgreement& pair : agreements) {
    if (pair.eq.Contains(a)) continue;
    violating_sims.push_back(pair.*sim);
  }
  violating_sims = MaximalSets(std::move(violating_sims));
  std::vector<AttributeSet> complements;
  complements.reserve(violating_sims.size());
  for (const AttributeSet& s : violating_sims) {
    complements.push_back(all.Difference(s));
  }
  return MinimalHittingSets(universe, complements, options);
}

// Groups (lhs -> rhs attr) pairs into one FD per LHS.
std::vector<FunctionalDependency> GroupByLhs(
    const std::map<AttributeSet, AttributeSet>& rhs_by_lhs, Mode mode) {
  std::vector<FunctionalDependency> out;
  out.reserve(rhs_by_lhs.size());
  for (const auto& [lhs, rhs] : rhs_by_lhs) {
    out.push_back({lhs, rhs, mode});
  }
  return out;
}

}  // namespace

Result<DiscoveryResult> DiscoverConstraints(const Table& table,
                                            const DiscoveryOptions& options) {
  if (table.num_rows() == 0) {
    return Status::Invalid("cannot mine constraints from an empty table");
  }
  EncodedTable enc(table);
  const std::vector<PairAgreement> agreements =
      CollectAgreements(enc, options.max_rows, options.threads);
  const AttributeSet all = table.schema().all();

  DiscoveryResult result;
  result.null_free_columns = enc.NullFreeColumns();

  // Keys: hit every pair's dissimilarity (no RHS condition).
  {
    std::vector<AttributeSet> strong_sims;
    std::vector<AttributeSet> weak_sims;
    for (const PairAgreement& pair : agreements) {
      strong_sims.push_back(pair.strong);
      weak_sims.push_back(pair.weak);
    }
    std::vector<AttributeSet> complements;
    for (const AttributeSet& s : MaximalSets(std::move(strong_sims))) {
      complements.push_back(all.Difference(s));
    }
    for (const AttributeSet& x :
         MinimalHittingSets(all, complements, options.hitting)) {
      result.p_keys.push_back(KeyConstraint::Possible(x));
    }
    complements.clear();
    for (const AttributeSet& s : MaximalSets(std::move(weak_sims))) {
      complements.push_back(all.Difference(s));
    }
    for (const AttributeSet& x :
         MinimalHittingSets(all, complements, options.hitting)) {
      result.c_keys.push_back(KeyConstraint::Certain(x));
    }
  }

  // FDs, one RHS attribute at a time.
  std::map<AttributeSet, AttributeSet> classical, nn, possible, certain;
  for (AttributeId a = 0; a < table.num_columns(); ++a) {
    const AttributeSet rhs = AttributeSet::Single(a);
    const AttributeSet without_a = all.Difference(rhs);

    for (const AttributeSet& lhs :
         MinimalLhs(agreements, a, all, without_a, &PairAgreement::eq,
                    options.hitting)) {
      classical[lhs] = classical[lhs].Union(rhs);
    }
    for (const AttributeSet& lhs :
         MinimalLhs(agreements, a, all,
                    without_a.Intersect(result.null_free_columns),
                    &PairAgreement::eq, options.hitting)) {
      nn[lhs] = nn[lhs].Union(rhs);
    }
    for (const AttributeSet& lhs :
         MinimalLhs(agreements, a, all, without_a, &PairAgreement::strong,
                    options.hitting)) {
      possible[lhs] = possible[lhs].Union(rhs);
    }
    // Certain FDs: the LHS may contain the RHS attribute (internal
    // c-FDs such as Example 1's  name,dob ->w dob  are meaningful), so
    // the universe is all of T. Trivial outcomes (a null-free RHS
    // attribute covering itself) are filtered below.
    for (const AttributeSet& lhs :
         MinimalLhs(agreements, a, all, all, &PairAgreement::weak,
                    options.hitting)) {
      if (lhs.Contains(a) && result.null_free_columns.Contains(a)) {
        continue;  // trivial: Y ⊆ X ∩ T_S
      }
      certain[lhs] = certain[lhs].Union(rhs);
    }
  }

  result.classical_fds = GroupByLhs(classical, Mode::kPossible);
  result.nn_fds = GroupByLhs(nn, Mode::kPossible);
  result.p_fds = GroupByLhs(possible, Mode::kPossible);
  result.c_fds = GroupByLhs(certain, Mode::kCertain);
  return result;
}

Result<std::vector<FunctionalDependency>> DiscoverFds(
    const Table& table, FdSemantics semantics,
    const DiscoveryOptions& options) {
  if (table.num_rows() == 0) {
    return Status::Invalid("cannot mine constraints from an empty table");
  }
  EncodedTable enc(table);
  const std::vector<PairAgreement> agreements =
      CollectAgreements(enc, options.max_rows, options.threads);
  const AttributeSet all = table.schema().all();
  const AttributeSet null_free = enc.NullFreeColumns();

  std::map<AttributeSet, AttributeSet> grouped;
  for (AttributeId a = 0; a < table.num_columns(); ++a) {
    const AttributeSet rhs = AttributeSet::Single(a);
    const AttributeSet without_a = all.Difference(rhs);
    AttributeSet universe = without_a;
    AttributeSet PairAgreement::*sim = &PairAgreement::eq;
    switch (semantics) {
      case FdSemantics::kClassical:
        break;
      case FdSemantics::kNotNullLhs:
        universe = without_a.Intersect(null_free);
        break;
      case FdSemantics::kPossible:
        sim = &PairAgreement::strong;
        break;
      case FdSemantics::kCertain:
        universe = all;
        sim = &PairAgreement::weak;
        break;
    }
    for (const AttributeSet& lhs :
         MinimalLhs(agreements, a, all, universe, sim, options.hitting)) {
      if (semantics == FdSemantics::kCertain && lhs.Contains(a) &&
          null_free.Contains(a)) {
        continue;  // trivial
      }
      grouped[lhs] = grouped[lhs].Union(rhs);
    }
  }
  Mode mode = semantics == FdSemantics::kCertain ? Mode::kCertain
                                                 : Mode::kPossible;
  return GroupByLhs(grouped, mode);
}

FdClassification ClassifyDiscovered(const Table& table,
                                    const DiscoveryResult& result) {
  FdClassification out;
  out.nn_count = static_cast<int>(result.nn_fds.size());
  out.p_count = static_cast<int>(result.p_fds.size());
  out.c_count = static_cast<int>(result.c_fds.size());

  for (const FunctionalDependency& fd : result.c_fds) {
    FunctionalDependency total =
        FunctionalDependency::Certain(fd.lhs, fd.lhs.Union(fd.rhs));
    if (!Satisfies(table, total)) continue;
    ++out.t_count;
    out.t_fds.push_back(total);

    const bool has_external_rhs = !fd.rhs.IsSubsetOf(fd.lhs);
    const bool lhs_is_ckey =
        Satisfies(table, KeyConstraint::Certain(fd.lhs));
    if (has_external_rhs && !lhs_is_ckey) {
      ++out.lambda_count;
      out.lambda_fds.push_back(total);
    }
  }
  return out;
}

Result<double> RelativeProjectionSize(const Table& table,
                                      const FunctionalDependency& fd) {
  if (table.num_rows() == 0) {
    return Status::Invalid("empty table");
  }
  SQLNF_ASSIGN_OR_RETURN(
      Table projected,
      ProjectSet(table, fd.lhs.Union(fd.rhs), table.schema().name() + "_p"));
  return static_cast<double>(projected.num_rows()) / table.num_rows();
}

}  // namespace sqlnf

// Discovery substrate: agree sets, minimal hitting sets (brute-force
// cross-checked), FD/key mining (cross-checked against the satisfaction
// oracle), and the Section 7 classification (t-FDs, λ-FDs).

#include "sqlnf/discovery/discover.h"

#include <gtest/gtest.h>

#include "sqlnf/constraints/satisfies.h"
#include "sqlnf/discovery/agree_sets.h"
#include "sqlnf/discovery/hitting_set.h"
#include "sqlnf/engine/validate.h"
#include "test_util.h"

namespace sqlnf {
namespace {

using testing::Attrs;
using testing::Fd;
using testing::RandomInstance;
using testing::RandomSchema;
using testing::Rows;
using testing::Schema;

TEST(AgreeSetsTest, EncodedTableCodes) {
  TableSchema schema = Schema("ab");
  Table t = Rows(schema, {"1x", "1y", "_x"});
  EncodedTable enc(t);
  EXPECT_EQ(enc.code(0, 0), enc.code(0, 1));
  EXPECT_EQ(enc.code(0, 2), EncodedTable::kNullCode);
  EXPECT_EQ(enc.code(1, 0), enc.code(1, 2));
  EXPECT_NE(enc.code(1, 0), enc.code(1, 1));
  EXPECT_EQ(enc.NullFreeColumns(), AttributeSet{1});
}

TEST(AgreeSetsTest, PairAgreementDefinitions) {
  TableSchema schema = Schema("abcd");
  Table t = Rows(schema, {"11_3", "1_23", "1124"});
  EncodedTable enc(t);
  // Rows 0,1: a equal; b one-null; c one-null; d equal.
  PairAgreement p01 = ComputeAgreement(enc, 0, 1);
  EXPECT_EQ(p01.eq, (AttributeSet{0, 3}));
  EXPECT_EQ(p01.strong, (AttributeSet{0, 3}));
  EXPECT_EQ(p01.weak, (AttributeSet{0, 1, 2, 3}));
  // Rows 0,2: a,b equal; c: ⊥ vs 2 (weak, not eq); d differs.
  PairAgreement p02 = ComputeAgreement(enc, 0, 2);
  EXPECT_EQ(p02.eq, (AttributeSet{0, 1}));
  EXPECT_EQ(p02.strong, (AttributeSet{0, 1}));
  EXPECT_EQ(p02.weak, (AttributeSet{0, 1, 2}));
}

TEST(AgreeSetsTest, MaximalSets) {
  std::vector<AttributeSet> sets = {{0, 1}, {0}, {1, 2}, {0, 1}};
  auto maximal = MaximalSets(sets);
  EXPECT_EQ(maximal.size(), 2u);
}

TEST(HittingSetTest, SimpleFamilies) {
  AttributeSet universe = AttributeSet::FullSet(4);
  // {{0,1},{1,2}} → minimal hitting sets {1},{0,2}.
  auto hs = MinimalHittingSets(universe, {{0, 1}, {1, 2}});
  ASSERT_EQ(hs.size(), 2u);
  EXPECT_EQ(hs[0], AttributeSet{1});
  EXPECT_EQ(hs[1], (AttributeSet{0, 2}));
}

TEST(HittingSetTest, EmptyFamilyAndUnhittable) {
  AttributeSet universe = AttributeSet::FullSet(3);
  auto hs = MinimalHittingSets(universe, {});
  ASSERT_EQ(hs.size(), 1u);
  EXPECT_TRUE(hs[0].empty());
  // A set disjoint from the universe is unhittable.
  EXPECT_TRUE(MinimalHittingSets({0, 1}, {{2}}).empty());
}

TEST(HittingSetTest, BruteForceCrossCheck) {
  Rng rng(17);
  for (int trial = 0; trial < 60; ++trial) {
    int n = 2 + static_cast<int>(rng.Uniform(0, 4));
    AttributeSet universe = AttributeSet::FullSet(n);
    std::vector<AttributeSet> family;
    int sets = 1 + static_cast<int>(rng.Uniform(0, 4));
    for (int s = 0; s < sets; ++s) {
      AttributeSet f = testing::RandomSubset(&rng, n, 0.4);
      if (f.empty()) f.Add(static_cast<AttributeId>(rng.Index(n)));
      family.push_back(f);
    }
    auto fast = MinimalHittingSets(universe, family);

    // Brute force: all subsets, keep hitting ones, filter minimal.
    std::vector<AttributeSet> hitting;
    for (uint64_t bits = 0; bits < (uint64_t{1} << n); ++bits) {
      AttributeSet x = AttributeSet::FromBits(bits);
      bool hits_all = true;
      for (const AttributeSet& f : family) {
        if (!x.Intersects(f)) {
          hits_all = false;
          break;
        }
      }
      if (hits_all) hitting.push_back(x);
    }
    std::vector<AttributeSet> minimal;
    for (const AttributeSet& x : hitting) {
      bool is_minimal = true;
      for (const AttributeSet& y : hitting) {
        if (y.IsProperSubsetOf(x)) {
          is_minimal = false;
          break;
        }
      }
      if (is_minimal) minimal.push_back(x);
    }
    std::sort(minimal.begin(), minimal.end(),
              [](const AttributeSet& a, const AttributeSet& b) {
                return a.size() != b.size() ? a.size() < b.size()
                                            : a.bits() < b.bits();
              });
    EXPECT_EQ(fast, minimal) << "n=" << n;
  }
}

TEST(DiscoverTest, FindsPlantedClassicalFd) {
  TableSchema schema = Schema("abc");
  // b = f(a); c free.
  Table t = Rows(schema, {"11x", "11y", "22x", "22y", "33z"});
  ASSERT_OK_AND_ASSIGN(DiscoveryResult result, DiscoverConstraints(t));
  bool found = false;
  for (const auto& fd : result.classical_fds) {
    if (fd.lhs == AttributeSet{0} && fd.rhs.Contains(1)) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(DiscoverTest, Example1InternalCertainFd) {
  // The employee table of Example 1 with the ambiguous row fixed:
  // nd ->w d is discovered as an internal c-FD (d nullable).
  TableSchema schema = Schema("nda", "na");
  Table t = Rows(schema, {"J1D", "J2F", "J1P", "B_P"});
  ASSERT_TRUE(Satisfies(t, Fd(schema, "nd ->w d")));
  ASSERT_OK_AND_ASSIGN(DiscoveryResult result, DiscoverConstraints(t));
  bool found = false;
  for (const auto& fd : result.c_fds) {
    if (fd.lhs == Attrs(schema, "nd") && fd.rhs.Contains(1)) found = true;
  }
  EXPECT_TRUE(found) << "c-FDs found: " << result.c_fds.size();
}

TEST(DiscoverTest, KeysOnFigure5Projection) {
  TableSchema schema = Schema("icp");
  Table proj = Rows(schema, {"FAX", "F_X", "DKY"});
  ASSERT_OK_AND_ASSIGN(DiscoveryResult result, DiscoverConstraints(proj));
  // p<ic> holds, c<ic> does not (weak collision via ⊥).
  auto contains = [](const std::vector<KeyConstraint>& keys,
                     const AttributeSet& attrs) {
    for (const auto& k : keys) {
      if (k.attrs.IsSubsetOf(attrs)) return true;
    }
    return false;
  };
  EXPECT_TRUE(contains(result.p_keys, AttributeSet{0, 1}));
  EXPECT_FALSE(contains(result.c_keys, AttributeSet{0, 1}));
}

// Discovered constraints must hold; and minimality must hold: removing
// any LHS attribute breaks the FD.
class DiscoveryPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DiscoveryPropertyTest, DiscoveredConstraintsHoldAndAreMinimal) {
  Rng rng(GetParam() * 71 + 19);
  for (int trial = 0; trial < 8; ++trial) {
    int n = 2 + static_cast<int>(rng.Uniform(0, 3));
    TableSchema no_nfs = testing::Schema(std::string("abcdefgh").substr(0, n));
    Table t = RandomInstance(&rng, no_nfs, 12, 2, 0.2);
    ASSERT_OK_AND_ASSIGN(DiscoveryResult result, DiscoverConstraints(t));

    for (const auto& fd : result.p_fds) {
      EXPECT_TRUE(Satisfies(t, fd)) << fd.ToString(no_nfs);
      for (AttributeId a : fd.lhs) {
        FunctionalDependency smaller = fd;
        smaller.lhs.Remove(a);
        EXPECT_FALSE(Satisfies(t, smaller))
            << "not minimal: " << fd.ToString(no_nfs);
      }
    }
    for (const auto& fd : result.c_fds) {
      EXPECT_TRUE(Satisfies(t, fd)) << fd.ToString(no_nfs) << "\n"
                                    << t.ToString();
    }
    for (const auto& key : result.p_keys) {
      EXPECT_TRUE(Satisfies(t, key));
      for (AttributeId a : key.attrs) {
        KeyConstraint smaller = key;
        smaller.attrs.Remove(a);
        EXPECT_FALSE(Satisfies(t, smaller));
      }
    }
    for (const auto& key : result.c_keys) {
      EXPECT_TRUE(Satisfies(t, key));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiscoveryPropertyTest,
                         ::testing::Range(0, 5));

// The parallel pair sweep must be bit-identical to serial: same
// agreements in the same order, hence identical mined constraints.
TEST(DiscoverTest, ParallelSweepMatchesSerialExactly) {
  Rng rng(424242);
  TableSchema schema = testing::Schema("abcdef");
  // Big enough to cross the parallel threshold inside CollectAgreements.
  Table t = testing::RandomInstance(&rng, schema, 500, 4, 0.2);

  EncodedTable enc(t);
  const auto serial = CollectAgreements(enc, 0, ParallelOptions{1});
  for (int threads : {2, 4, 7}) {
    const auto parallel = CollectAgreements(enc, 0, ParallelOptions{threads});
    ASSERT_EQ(parallel.size(), serial.size()) << "threads=" << threads;
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].eq, serial[i].eq);
      EXPECT_EQ(parallel[i].strong, serial[i].strong);
      EXPECT_EQ(parallel[i].weak, serial[i].weak);
    }
  }

  DiscoveryOptions serial_options;
  serial_options.threads = 1;
  DiscoveryOptions parallel_options;
  parallel_options.threads = 4;
  ASSERT_OK_AND_ASSIGN(DiscoveryResult a,
                       DiscoverConstraints(t, serial_options));
  ASSERT_OK_AND_ASSIGN(DiscoveryResult b,
                       DiscoverConstraints(t, parallel_options));
  EXPECT_EQ(a.null_free_columns, b.null_free_columns);
  EXPECT_EQ(a.classical_fds, b.classical_fds);
  EXPECT_EQ(a.nn_fds, b.nn_fds);
  EXPECT_EQ(a.p_fds, b.p_fds);
  EXPECT_EQ(a.c_fds, b.c_fds);
  EXPECT_EQ(a.p_keys, b.p_keys);
  EXPECT_EQ(a.c_keys, b.c_keys);

  // Parallel validation reaches the same verdicts too.
  for (const auto& fd : a.c_fds) {
    EXPECT_EQ(FindFdViolationFast(t, fd, ParallelOptions{4}).has_value(),
              FindFdViolationFast(t, fd).has_value());
  }
}

TEST(ClassifyTest, TotalAndLambdaFds) {
  // b is a function of a; a is not a key (duplicates); a null-free.
  TableSchema schema = Schema("abc");
  Table t = Rows(schema, {"1xA", "1xB", "2yC", "2yD"});
  ASSERT_OK_AND_ASSIGN(DiscoveryResult result, DiscoverConstraints(t));
  FdClassification cls = ClassifyDiscovered(t, result);
  EXPECT_GT(cls.c_count, 0);
  EXPECT_GT(cls.t_count, 0);
  // a ->w ab is total, has external RHS b, and a is no c-key → λ-FD.
  bool lambda_found = false;
  for (const auto& fd : cls.lambda_fds) {
    if (fd.lhs == AttributeSet{0}) lambda_found = true;
  }
  EXPECT_TRUE(lambda_found);
  EXPECT_LE(cls.lambda_count, cls.t_count);
  EXPECT_LE(cls.t_count, cls.c_count);
}

TEST(ClassifyTest, RelativeProjectionSize) {
  TableSchema schema = Schema("abc");
  Table t = Rows(schema, {"1xA", "1xB", "2yC", "2yD"});
  ASSERT_OK_AND_ASSIGN(
      double rel,
      RelativeProjectionSize(
          t, FunctionalDependency::Certain(Attrs(schema, "a"),
                                           Attrs(schema, "ab"))));
  EXPECT_DOUBLE_EQ(rel, 0.5);  // 2 distinct (a,b) of 4 rows
}

}  // namespace
}  // namespace sqlnf

// Incremental enforcer: index-accelerated insert checking equals the
// reference pairwise semantics on random workloads.

#include "sqlnf/engine/enforcer.h"

#include <gtest/gtest.h>

#include "sqlnf/engine/catalog.h"
#include "test_util.h"

namespace sqlnf {
namespace {

using testing::RandomSchema;
using testing::RandomSigma;
using testing::Schema;
using testing::Sigma;
using testing::WhereEq;

TEST(EnforcerTest, BasicConflicts) {
  WriterScope writer;
  TableSchema schema = Schema("icp", "ip");
  ConstraintSet sigma = Sigma(schema, "ic ->w p; c<ic>");
  Table table(schema);
  IncrementalEnforcer enforcer(schema, sigma);

  Tuple first({Value::Str("F"), Value::Str("A"), Value::Str("1")});
  EXPECT_FALSE(enforcer.Check(first, 0).has_value());
  enforcer.Add(first, 0);
  ASSERT_OK(table.AddRow(first));

  // Weak key collision through ⊥.
  Tuple collide({Value::Str("F"), Value::Null(), Value::Str("1")});
  auto v = enforcer.Check(collide, 1);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->row1, 0);
  EXPECT_EQ(v->row2, 1);

  Tuple fine({Value::Str("G"), Value::Null(), Value::Str("2")});
  EXPECT_FALSE(enforcer.Check(fine, 1).has_value());
}

// The UPDATE write path checks a post-image in the slot it will
// occupy: once Remove()d, a row's pre-image is no longer anyone's
// conflict partner, and a violation names the indexed partner first.
TEST(EnforcerTest, CheckInRemovedSlot) {
  WriterScope writer;
  TableSchema schema = Schema("ab", "ab");
  ConstraintSet sigma = Sigma(schema, "c<a>");
  IncrementalEnforcer enforcer(schema, sigma);
  enforcer.Add(Tuple({Value::Str("1"), Value::Str("x")}), 0);
  enforcer.Add(Tuple({Value::Str("2"), Value::Str("y")}), 1);
  const Tuple same_key({Value::Str("1"), Value::Str("z")});
  EXPECT_TRUE(enforcer.Check(same_key, 2).has_value());

  enforcer.Remove(0);
  EXPECT_FALSE(enforcer.Check(same_key, 0).has_value());
  auto v = enforcer.Check(Tuple({Value::Str("2"), Value::Str("z")}), 0);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->row1, 1);
  EXPECT_EQ(v->row2, 0);
  enforcer.Add(same_key, 0);
  EXPECT_OK(enforcer.CheckInvariants());
}

class EnforcerPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(EnforcerPropertyTest, MatchesReferenceRowValidation) {
  WriterScope writer;
  Rng rng(GetParam() * 131 + 3);
  for (int trial = 0; trial < 20; ++trial) {
    int n = 2 + static_cast<int>(rng.Uniform(0, 3));
    TableSchema schema = RandomSchema(&rng, n);
    ConstraintSet sigma = RandomSigma(&rng, n, 2, 2);

    Table table(schema);
    IncrementalEnforcer enforcer(schema, sigma);
    for (int step = 0; step < 40; ++step) {
      // Random candidate row (⊥ allowed anywhere; the checkers flag
      // NFS violations themselves).
      std::vector<Value> values;
      for (int c = 0; c < n; ++c) {
        values.push_back(rng.Chance(0.25)
                             ? Value::Null()
                             : Value::Int(rng.Uniform(0, 2)));
      }
      Tuple row(std::move(values));
      auto fast = enforcer.Check(row, table.num_rows());
      auto reference = ValidateRowAgainst(table, row, sigma);
      EXPECT_EQ(fast.has_value(), reference.has_value())
          << "step " << step << " sigma " << sigma.ToString(schema)
          << "\n"
          << table.ToString();
      if (!fast.has_value()) {
        enforcer.Add(row, table.num_rows());
        ASSERT_OK(table.AddRow(std::move(row)));
      }
    }
    // The accepted prefix is consistent as a whole.
    EXPECT_TRUE(SatisfiesAll(table, sigma)) << sigma.ToString(schema);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnforcerPropertyTest,
                         ::testing::Range(0, 6));

// The enforcer's incrementally maintained EncodedTable must stay
// equivalent (code bijection + equal decoded cells) to a from-scratch
// re-encode of the stored data across a randomized INSERT / UPDATE /
// DELETE workload.
TEST(EnforcerTest, EncodingStaysConsistentAcrossWriteWorkload) {
  WriterScope writer;
  Rng rng(314159);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 2 + static_cast<int>(rng.Uniform(0, 3));
    const TableSchema schema = RandomSchema(&rng, n);
    // Sparse Σ so a fair share of statements succeed.
    const ConstraintSet sigma = RandomSigma(&rng, n, 1, 1);
    Database db;
    ASSERT_OK(db.CreateTable(schema, sigma));

    auto random_value = [&]() {
      return rng.Chance(0.25) ? Value::Null()
                              : Value::Int(rng.Uniform(0, 2));
    };
    int accepted = 0;
    for (int step = 0; step < 80; ++step) {
      const double roll = rng.NextDouble();
      if (roll < 0.6) {
        std::vector<Value> values;
        for (int c = 0; c < n; ++c) values.push_back(random_value());
        if (db.Insert("T", Tuple(std::move(values))).ok()) ++accepted;
      } else if (roll < 0.8) {
        const AttributeId col = static_cast<AttributeId>(rng.Index(n));
        const Value target = Value::Int(rng.Uniform(0, 2));
        // Touch roughly half the rows matching on `col`.
        (void)db.Update("T", WhereEq(col, target), col, random_value());
      } else {
        const AttributeId col = static_cast<AttributeId>(rng.Index(n));
        const Value target = Value::Int(rng.Uniform(0, 2));
        ASSERT_OK(db.Delete("T", WhereEq(col, target)).status());
      }
      ASSERT_OK_AND_ASSIGN(const StoredTable* stored, db.Find("T"));
      ASSERT_TRUE(
          stored->enforcer().encoding().EquivalentTo(
              EncodedTable(stored->Materialize())))
          << "trial=" << trial << " step=" << step << "\n"
          << stored->Materialize().ToString();
      EXPECT_TRUE(SatisfiesAll(stored->Materialize(), sigma));
    }
    EXPECT_GT(accepted, 0) << "trial=" << trial;
  }
}

}  // namespace
}  // namespace sqlnf

// Incremental enforcer: index-accelerated insert checking equals the
// reference pairwise semantics on random workloads.

#include "sqlnf/engine/enforcer.h"

#include <gtest/gtest.h>

#include "sqlnf/engine/catalog.h"
#include "sqlnf/reference/validate.h"
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

// The constraint indexes' state after one fixed history, pinned to
// literals: inserts under a certain FD, a certain key and a possible
// key (⊥ in the nullable key columns, so the possible key skips rows
// and the certain key's bucket is its NOT NULL column alone), UPDATEs,
// a bulk DELETE, a rolled-back transaction and a VACUUM. The literals
// were captured from the node-based index the flat chains replaced;
// the (hash → id set) mapping is the same, so IndexFingerprint, Stats
// and the partner row each rejection names are too.
TEST(EnforcerTest, IndexStatePinnedAcrossFixedHistory) {
  WriterScope writer;
  const TableSchema schema = Schema("abcd", "a");
  Database db;
  ASSERT_OK(db.CreateTable(schema, Sigma(schema, "ac ->w d; c<ab>; p<bc>")));
  ASSERT_OK_AND_ASSIGN(const StoredTable* stored, db.Find("T"));
  const IncrementalEnforcer& enforcer = stored->enforcer();
  auto state = [&] {
    std::string out = std::to_string(stored->num_rows()) + " rows, fp " +
                      std::to_string(enforcer.IndexFingerprint());
    for (int i = 0; i < enforcer.num_indexes(); ++i) {
      const IncrementalEnforcer::IndexStats s = enforcer.Stats(i);
      out += " | " + std::to_string(s.buckets) + "/" +
             std::to_string(s.largest_bucket) + "/" +
             std::to_string(s.indexed_rows);
    }
    return out;
  };
  auto outcome = [](const Status& st) {
    return st.ok() ? std::string("ok") : st.message();
  };

  int accepted = 0;
  for (int i = 0; i < 600; ++i) {
    const Value b =
        i % 11 == 0 ? Value::Null() : Value::Int(i / 150 + 4 * (i % 2));
    const Value c = i % 7 == 0 ? Value::Null() : Value::Int(i % 97);
    const Value d = Value::Str(i % 23 == 0 ? "x" : "d" + std::to_string(i % 5));
    accepted += db.Insert("T", Tuple({Value::Int(i % 150), b, c, d})).ok();
  }
  EXPECT_EQ(accepted, 507);
  EXPECT_EQ(state(),
            "507 rows, fp 13024557354638250216 | 150/4/507 | 150/4/507 | "
            "426/1/426");

  std::string updates;
  updates += outcome(
      db.Update("T", WhereEq(0, Value::Int(5)), 2, Value::Int(40)).status());
  updates += "; " + outcome(db.Update("T", WhereEq(1, Value::Null()), 3,
                                      Value::Str("dz"))
                                .status());
  updates += "; " + outcome(
      db.Update("T", WhereEq(2, Value::Int(3)), 1, Value::Int(9)).status());
  updates += "; " + outcome(
      db.Update("T", WhereEq(0, Value::Int(17)), 0, Value::Int(18)).status());
  updates += "; " + outcome(db.Insert(
      "T", Tuple({Value::Int(140), Value::Null(), Value::Int(1),
                  Value::Str("d0")})));
  EXPECT_EQ(updates,
            "UPDATE rejected: rows 137 and 5 violate p<{b,c}>; ok; "
            "UPDATE rejected: rows 3 and 100 violate p<{b,c}>; "
            "UPDATE rejected: rows 164 and 17 violate {a,c} ->w {d}; "
            "INSERT rejected: rows 140 and 507 violate c<{a,b}>");

  ASSERT_OK_AND_ASSIGN(
      const int deleted,
      db.Delete("T", Predicate::And({Cmp(0, CompareOp::kLt, Value::Int(60))})));
  EXPECT_GE(deleted, 100);
  const std::string after_delete = state();
  EXPECT_EQ(after_delete,
            "304 rows, fp 11931219597302206328 | 90/4/304 | 90/4/304 | "
            "254/1/254");

  ASSERT_OK(db.Begin());
  ASSERT_OK_AND_ASSIGN(
      const int bulk,
      db.Delete("T", Predicate::And({Cmp(0, CompareOp::kGe, Value::Int(90))})));
  EXPECT_GE(bulk, 100);
  ASSERT_OK(db.Insert("T", Tuple({Value::Int(1000), Value::Int(7),
                                  Value::Int(7), Value::Str("new")})));
  ASSERT_OK(
      db.Update("T", WhereEq(0, Value::Int(130)), 3, Value::Str("moved"))
          .status());
  ASSERT_OK(db.Rollback());
  EXPECT_EQ(state(), after_delete);
  ASSERT_OK(enforcer.CheckInvariants());

  ASSERT_OK(db.CompactTable("T").status());
  EXPECT_EQ(state(),
            "304 rows, fp 6118777059316795403 | 90/4/304 | 90/4/304 | "
            "254/1/254");
  EXPECT_EQ(outcome(db.Insert("T", Tuple({Value::Int(100), Value::Null(),
                                          Value::Int(2), Value::Str("q")}))),
            "INSERT rejected: rows 40 and 304 violate c<{a,b}>");
  ASSERT_OK(enforcer.CheckInvariants());
}

}  // namespace
}  // namespace sqlnf

// Database catalog: native enforcement of the paper's constraints on
// writes (the "trigger layer" SQL cannot declare).

#include "sqlnf/engine/catalog.h"
#include "sqlnf/reference/validate.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace sqlnf {
namespace {

using testing::Rows;
using testing::Schema;
using testing::Sigma;
using testing::WhereEq;

Tuple Row(std::initializer_list<const char*> cells) {
  std::vector<Value> values;
  for (const char* c : cells) {
    values.push_back(c == nullptr ? Value::Null() : Value::Str(c));
  }
  return Tuple(std::move(values));
}

TEST(ValidateRowAgainstTest, MatchesBatchSemantics) {
  TableSchema schema = Schema("icp", "ip");
  ConstraintSet sigma = Sigma(schema, "ic ->w p");
  Table t = Rows(schema, {"FAX"});
  // Weakly similar on (i,c) with a different price: rejected.
  auto v = ValidateRowAgainst(t, Row({"F", nullptr, "Y"}), sigma);
  ASSERT_TRUE(v.has_value());
  // Same price: accepted.
  EXPECT_FALSE(
      ValidateRowAgainst(t, Row({"F", nullptr, "X"}), sigma).has_value());
  // NFS violation reported with the column.
  auto nfs = ValidateRowAgainst(t, Row({nullptr, "A", "X"}), sigma);
  ASSERT_TRUE(nfs.has_value());
  EXPECT_TRUE(nfs->attribute.has_value());
}

TEST(DatabaseTest, CreateDropAndLookup) {
  WriterScope writer;
  Database db;
  TableSchema schema = Schema("ab", "a");
  EXPECT_OK(db.CreateTable(schema, ConstraintSet()));
  EXPECT_FALSE(db.CreateTable(schema, ConstraintSet()).ok());  // dup
  EXPECT_TRUE(db.HasTable("T"));
  EXPECT_EQ(db.TableNames().size(), 1u);
  EXPECT_OK(db.DropTable("T"));
  EXPECT_FALSE(db.DropTable("T").ok());
  EXPECT_FALSE(db.Find("T").ok());
}

TEST(DatabaseTest, InsertEnforcesCertainKeyOverNullableColumns) {
  WriterScope writer;
  // c<i,c> with nullable c — inexpressible in standard SQL.
  Database db;
  TableSchema schema = Schema("icp", "ip");
  ASSERT_OK(db.CreateTable(schema, testing::Sigma(schema, "c<ic>")));
  EXPECT_OK(db.Insert("T", Row({"Fitbit", "Amazon", "240"})));
  // A ⊥-catalog row weakly collides with the stored one: rejected.
  auto st = db.Insert("T", Row({"Fitbit", nullptr, "200"}));
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("c<"), std::string::npos);
  // Different item: fine.
  EXPECT_OK(db.Insert("T", Row({"Dora", nullptr, "25"})));
  ASSERT_OK_AND_ASSIGN(const StoredTable* stored, db.Find("T"));
  EXPECT_EQ(stored->num_rows(), 2);
}

TEST(DatabaseTest, InsertEnforcesCertainFd) {
  WriterScope writer;
  Database db;
  TableSchema schema = Schema("icp", "ip");
  ASSERT_OK(db.CreateTable(schema, testing::Sigma(schema, "ic ->w p")));
  EXPECT_OK(db.Insert("T", Row({"Fitbit", "Amazon", "240"})));
  EXPECT_OK(db.Insert("T", Row({"Fitbit", nullptr, "240"})));  // same p
  EXPECT_FALSE(db.Insert("T", Row({"Fitbit", nullptr, "200"})).ok());
  EXPECT_OK(db.Insert("T", Row({"Dora", "Kingtoys", "25"})));
}

TEST(DatabaseTest, RejectedWritesLeaveTableUntouched) {
  WriterScope writer;
  Database db;
  TableSchema schema = Schema("ab", "ab");
  ASSERT_OK(db.CreateTable(schema, testing::Sigma(schema, "c<a>")));
  ASSERT_OK(db.Insert("T", Row({"1", "x"})));
  EXPECT_FALSE(db.Insert("T", Row({"1", "y"})).ok());
  ASSERT_OK_AND_ASSIGN(const StoredTable* stored, db.Find("T"));
  EXPECT_EQ(stored->num_rows(), 1);
  EXPECT_EQ(stored->DecodeRow(0)[1], Value::Str("x"));
}

TEST(DatabaseTest, UpdateValidatesPostImageAtomically) {
  WriterScope writer;
  Database db;
  TableSchema schema = Schema("abc", "abc");
  ASSERT_OK(db.CreateTable(schema, testing::Sigma(schema, "a ->w c")));
  ASSERT_OK(db.Insert("T", Row({"1", "p", "x"})));
  ASSERT_OK(db.Insert("T", Row({"1", "q", "x"})));
  // Changing only one of the two a=1 rows breaks the FD: rejected.
  auto rejected = db.Update("T", WhereEq(1, Value::Str("p")), 2,
                            Value::Str("y"));
  EXPECT_FALSE(rejected.ok());
  ASSERT_OK_AND_ASSIGN(const StoredTable* stored, db.Find("T"));
  EXPECT_EQ(stored->DecodeRow(0)[2], Value::Str("x"));  // untouched
  // Changing both rows together is consistent.
  ASSERT_OK_AND_ASSIGN(
      int changed, db.Update("T", Predicate::True(), 2, Value::Str("y")));
  EXPECT_EQ(changed, 2);
}

TEST(DatabaseTest, UpdateRejectsNullIntoNotNull) {
  WriterScope writer;
  Database db;
  TableSchema schema = Schema("ab", "a");
  ASSERT_OK(db.CreateTable(schema, ConstraintSet()));
  ASSERT_OK(db.Insert("T", Row({"1", "x"})));
  // The enforcer's NOT NULL check rejects the post-image and names the
  // updated row; the statement rollback leaves the row as it was.
  const Result<int> rejected =
      db.Update("T", Predicate::True(), 0, Value::Null());
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(rejected.status().message(),
            "UPDATE rejected: row 0 is NULL in NOT NULL column 'a'");
  ASSERT_OK_AND_ASSIGN(const StoredTable* stored, db.Find("T"));
  EXPECT_EQ(stored->DecodeRow(0)[0], Value::Str("1"));
  EXPECT_OK(stored->enforcer().CheckInvariants());
  // Nullable column accepts ⊥.
  ASSERT_OK_AND_ASSIGN(
      int changed, db.Update("T", Predicate::True(), 1, Value::Null()));
  EXPECT_EQ(changed, 1);
}

TEST(DatabaseTest, DeleteNeverViolates) {
  WriterScope writer;
  Database db;
  TableSchema schema = Schema("ab", "ab");
  ASSERT_OK(db.CreateTable(schema, testing::Sigma(schema, "a ->w b")));
  ASSERT_OK(db.Insert("T", Row({"1", "x"})));
  ASSERT_OK(db.Insert("T", Row({"2", "y"})));
  ASSERT_OK_AND_ASSIGN(int removed,
                       db.Delete("T", WhereEq(0, Value::Str("1"))));
  EXPECT_EQ(removed, 1);
  ASSERT_OK_AND_ASSIGN(const StoredTable* stored, db.Find("T"));
  EXPECT_EQ(stored->num_rows(), 1);
}

TEST(DatabaseTest, UpdateAndDeleteMaintainIndexIncrementally) {
  WriterScope writer;
  Database db;
  TableSchema schema = Schema("abc", "a");
  ASSERT_OK(db.CreateTable(schema, testing::Sigma(schema, "c<ab>; a ->w c")));
  ASSERT_OK(db.Insert("T", Row({"1", "p", "x"})));
  ASSERT_OK(db.Insert("T", Row({"2", "q", "x"})));
  ASSERT_OK(db.Insert("T", Row({"3", nullptr, "y"})));
  ASSERT_OK(db.Insert("T", Row({"4", "r", "z"})));

  // Delete the a=2 row: its key must be freed, survivors renumbered.
  ASSERT_OK_AND_ASSIGN(int removed,
                       db.Delete("T", WhereEq(0, Value::Str("2"))));
  EXPECT_EQ(removed, 1);
  EXPECT_OK(db.Insert("T", Row({"2", "q", "w"})));  // key reusable

  // Surviving keys are still guarded (the renumbered index finds the
  // conflict partner at its NEW row id).
  auto dup = db.Insert("T", Row({"4", "r", "z"}));
  EXPECT_FALSE(dup.ok());

  // Update moves a row to a new bucket: the OLD key frees up, the NEW
  // key conflicts.
  ASSERT_OK_AND_ASSIGN(
      int changed,
      db.Update("T", WhereEq(0, Value::Str("4")), 1, Value::Str("s")));
  EXPECT_EQ(changed, 1);
  EXPECT_FALSE(db.Insert("T", Row({"4", "s", "z"})).ok());  // post-image
  EXPECT_OK(db.Insert("T", Row({"4", "r", "z"})));          // pre-image freed

  // All of the above kept the incrementally maintained indexes sound.
  ASSERT_OK_AND_ASSIGN(const StoredTable* stored, db.Find("T"));
  EXPECT_OK(stored->enforcer().CheckInvariants());
}

TEST(DatabaseTest, MutationsKeepEnforcerConsistentRandomized) {
  WriterScope writer;
  Rng rng(2026);
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 3 + static_cast<int>(rng.Uniform(0, 1));
    TableSchema schema = testing::RandomSchema(&rng, n);
    ConstraintSet sigma = testing::RandomSigma(&rng, n, 2, 1);
    Database db;
    ASSERT_OK(db.CreateTable(schema, sigma));

    auto random_row = [&] {
      std::vector<Value> values;
      for (AttributeId a = 0; a < n; ++a) {
        if (!schema.nfs().Contains(a) && rng.Chance(0.25)) {
          values.push_back(Value::Null());
        } else {
          values.push_back(Value::Int(rng.Uniform(0, 2)));
        }
      }
      return Tuple(std::move(values));
    };
    for (int i = 0; i < 25; ++i) (void)db.Insert("T", random_row());

    for (int step = 0; step < 12; ++step) {
      // Random mutation through the catalog write paths.
      const Value match = Value::Int(rng.Uniform(0, 2));
      const AttributeId col = static_cast<AttributeId>(rng.Index(n));
      if (rng.Chance(0.5)) {
        const Value set = rng.Chance(0.2) ? Value::Null()
                                          : Value::Int(rng.Uniform(0, 2));
        (void)db.Update("T", WhereEq(0, match), col, set);
      } else {
        (void)db.Delete("T", WhereEq(col, match));
      }

      // The incrementally maintained index must agree with the
      // from-scratch reference on arbitrary candidate rows.
      ASSERT_OK_AND_ASSIGN(const StoredTable* stored, db.Find("T"));
      for (int k = 0; k < 8; ++k) {
        Tuple candidate = random_row();
        const auto incremental =
            stored->enforcer().Check(candidate, stored->num_rows());
        const auto reference =
            ValidateRowAgainst(stored->Materialize(), candidate, sigma);
        ASSERT_EQ(incremental.has_value(), reference.has_value())
            << "trial " << trial << " step " << step;
      }
    }
  }
}

TEST(DatabaseTest, InsertArityChecked) {
  WriterScope writer;
  Database db;
  TableSchema schema = Schema("ab");
  ASSERT_OK(db.CreateTable(schema, ConstraintSet()));
  EXPECT_FALSE(db.Insert("T", Row({"1"})).ok());
  EXPECT_FALSE(db.Insert("missing", Row({"1", "2"})).ok());
}

}  // namespace
}  // namespace sqlnf

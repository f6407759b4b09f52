// Engine substrate: CSV round-trips, relational operators, the grouped
// fast validators (cross-checked against the O(n²) reference), and DDL
// emission.

#include <gtest/gtest.h>

#include "sqlnf/constraints/satisfies.h"
#include "sqlnf/engine/csv.h"
#include "sqlnf/engine/ddl.h"
#include "sqlnf/engine/relops.h"
#include "sqlnf/engine/validate.h"
#include "sqlnf/reference/relops.h"
#include "test_util.h"

namespace sqlnf {
namespace {

using testing::Fd;
using testing::Key;
using testing::RandomInstance;
using testing::RandomSchema;
using testing::Rows;
using testing::Schema;
using testing::Sigma;

TEST(CsvTest, ParsesHeaderAndNulls) {
  ASSERT_OK_AND_ASSIGN(
      Table t, ReadCsvString("a,b,c\n1,NULL,x\n2,y,\"NULL\"\n"));
  EXPECT_EQ(t.num_columns(), 3);
  EXPECT_EQ(t.num_rows(), 2);
  EXPECT_EQ(t.schema().attribute_name(1), "b");
  EXPECT_TRUE(t.row(0)[1].is_null());
  EXPECT_EQ(t.row(1)[2], Value::Str("NULL"));  // quoted stays a string
}

TEST(CsvTest, QuotingAndEscapes) {
  ASSERT_OK_AND_ASSIGN(
      Table t, ReadCsvString("a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n"));
  EXPECT_EQ(t.row(0)[0], Value::Str("x,y"));
  EXPECT_EQ(t.row(0)[1], Value::Str("he said \"hi\""));
}

TEST(CsvTest, EmbeddedNewlineInsideQuotes) {
  ASSERT_OK_AND_ASSIGN(Table t, ReadCsvString("a\n\"line1\nline2\"\n"));
  EXPECT_EQ(t.row(0)[0], Value::Str("line1\nline2"));
}

TEST(CsvTest, Errors) {
  EXPECT_FALSE(ReadCsvString("").ok());
  EXPECT_FALSE(ReadCsvString("a,b\n1\n").ok());           // arity
  EXPECT_FALSE(ReadCsvString("a\n\"unterminated\n").ok());  // quote
}

TEST(CsvTest, RejectsTextAfterClosingQuote) {
  // "abc"def used to silently parse as abcdef.
  auto r = ReadCsvString("a\n\"abc\"def\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("closing quote"), std::string::npos);
  // Re-opened quotes after a closed field are malformed too.
  EXPECT_FALSE(ReadCsvString("a\n\"abc\"\"def\"x\n").ok());
  EXPECT_FALSE(ReadCsvString("a\n\"\"x\n").ok());
  // The escaped-quote form stays valid.
  ASSERT_OK_AND_ASSIGN(Table t, ReadCsvString("a\n\"ab\"\"cd\"\n"));
  EXPECT_EQ(t.row(0)[0].ToString(), "ab\"cd");
}

TEST(CsvTest, SkipsFullyEmptyRecords) {
  // A blank line mid-file used to become a bogus 1-field record and
  // fail with a misleading arity error.
  ASSERT_OK_AND_ASSIGN(Table t,
                       ReadCsvString("a,b\n1,2\n\n3,4\n\r\n5,6\n"));
  EXPECT_EQ(t.num_rows(), 3);
  EXPECT_EQ(t.row(1)[0].ToString(), "3");
  // A quoted empty field is still a real 1-field record.
  ASSERT_OK_AND_ASSIGN(Table one, ReadCsvString("a\n\"\"\n"));
  EXPECT_EQ(one.num_rows(), 1);
  EXPECT_EQ(one.row(0)[0].ToString(), "");
}

TEST(CsvTest, RoundTrip) {
  TableSchema schema = Schema("ab");
  Table t = Rows(schema, {"1_", "2x"});
  std::string csv = WriteCsvString(t);
  ASSERT_OK_AND_ASSIGN(Table back, ReadCsvString(csv));
  EXPECT_EQ(back.num_rows(), 2);
  EXPECT_TRUE(back.row(0)[1].is_null());
  EXPECT_EQ(back.row(1)[1], Value::Str("x"));
}

TEST(CsvTest, RoundTripQuotesNullLookalikes) {
  TableSchema schema = Schema("a");
  Table t(schema);
  ASSERT_OK(t.AddRow(Tuple({Value::Str("NULL")})));
  std::string csv = WriteCsvString(t);
  ASSERT_OK_AND_ASSIGN(Table back, ReadCsvString(csv));
  EXPECT_FALSE(back.row(0)[0].is_null());
  EXPECT_EQ(back.row(0)[0], Value::Str("NULL"));
}

TEST(CsvTest, FileRoundTrip) {
  TableSchema schema = Schema("ab");
  Table t = Rows(schema, {"12", "3_"});
  const std::string path = ::testing::TempDir() + "/sqlnf_csv_test.csv";
  ASSERT_OK(WriteCsvFile(t, path));
  ASSERT_OK_AND_ASSIGN(Table back, ReadCsvFile(path));
  EXPECT_EQ(back.num_rows(), 2);
}

TEST(RelopsTest, SelectWhereAndAll) {
  TableSchema schema = Schema("ab");
  Table t = Rows(schema, {"1x", "2y", "1z"});
  Table ones = SelectWhere(
      t, [](const Tuple& row) { return row[0] == Value::Str("1"); });
  EXPECT_EQ(ones.num_rows(), 2);
  EXPECT_EQ(SelectAll(t).num_rows(), 3);
}

TEST(RelopsTest, CrossWithSequence) {
  TableSchema schema = Schema("ab");
  Table t = Rows(schema, {"1x", "2y"});
  ASSERT_OK_AND_ASSIGN(Table crossed, CrossWithSequence(t, 3, "new"));
  EXPECT_EQ(crossed.num_rows(), 6);
  EXPECT_EQ(crossed.num_columns(), 3);
  EXPECT_EQ(crossed.schema().attribute_name(0), "new");
  EXPECT_TRUE(crossed.schema().nfs().Contains(0));
  EXPECT_EQ(crossed.row(0)[0], Value::Int(1));
  EXPECT_EQ(crossed.row(5)[0], Value::Int(3));
  EXPECT_FALSE(CrossWithSequence(t, 0, "new").ok());
}

TEST(RelopsTest, UpdateWhere) {
  TableSchema schema = Schema("ab", "a");
  Table t = Rows(schema, {"1x", "1y", "2x"});
  ASSERT_OK_AND_ASSIGN(
      int changed,
      UpdateWhere(
          &t, [](const Tuple& row) { return row[0] == Value::Str("1"); },
          1, Value::Str("z")));
  EXPECT_EQ(changed, 2);
  EXPECT_EQ(t.row(0)[1], Value::Str("z"));
  EXPECT_EQ(t.row(2)[1], Value::Str("x"));
  // Setting an already-equal value does not count as a change.
  ASSERT_OK_AND_ASSIGN(
      int rechanged,
      UpdateWhere(
          &t, [](const Tuple& row) { return row[0] == Value::Str("1"); },
          1, Value::Str("z")));
  EXPECT_EQ(rechanged, 0);
  // NOT NULL columns refuse ⊥.
  EXPECT_FALSE(UpdateWhere(&t, [](const Tuple&) { return true; }, 0,
                           Value::Null())
                   .ok());
  EXPECT_FALSE(UpdateWhere(&t, [](const Tuple&) { return true; }, 9,
                           Value::Str("q"))
                   .ok());
}

TEST(RelopsTest, DeleteWhere) {
  TableSchema schema = Schema("ab");
  Table t = Rows(schema, {"1x", "2y", "1z"});
  int removed = DeleteWhere(
      &t, [](const Tuple& row) { return row[0] == Value::Str("1"); });
  EXPECT_EQ(removed, 2);
  EXPECT_EQ(t.num_rows(), 1);
  EXPECT_EQ(t.row(0)[1], Value::Str("y"));
}

TEST(RelopsTest, JoinAllReconstructs) {
  TableSchema schema = Schema("abc");
  Table t = Rows(schema, {"1xA", "2yB"});
  ASSERT_OK_AND_ASSIGN(Table left, ProjectMultiset(t, {0, 1}, "L"));
  ASSERT_OK_AND_ASSIGN(Table right, ProjectSet(t, {1, 2}, "R"));
  ASSERT_OK_AND_ASSIGN(Table joined, JoinAll({left, right}, "J"));
  EXPECT_EQ(joined.num_rows(), 2);
  EXPECT_EQ(joined.num_columns(), 3);
}

TEST(ValidateTest, MatchesReferenceOnPaperExamples) {
  TableSchema schema = Schema("oicp");
  Table fig5 = Rows(schema, {"1FAX", "1F_X", "3FAX", "3DKY"});
  EXPECT_FALSE(FindFdViolationFast(fig5, Fd(schema, "ic ->w p")).has_value());
  EXPECT_TRUE(
      FindFdViolationFast(fig5, Fd(schema, "ic ->w icp")).has_value());
  EXPECT_FALSE(FindFdViolationFast(fig5, Fd(schema, "ic ->s p")).has_value());
  EXPECT_TRUE(FindKeyViolationFast(fig5, Key(schema, "c<ic>")).has_value());
  // All four rows are pairwise distinct, so the full p-key holds — but
  // rows 0,1 are weakly similar on everything, so the full c-key fails.
  EXPECT_FALSE(
      FindKeyViolationFast(fig5, Key(schema, "p<oicp>")).has_value());
  EXPECT_TRUE(
      FindKeyViolationFast(fig5, Key(schema, "c<oicp>")).has_value());

  Table dup = Rows(schema, {"1FAX", "1FAX"});
  EXPECT_TRUE(FindKeyViolationFast(dup, Key(schema, "p<oicp>")).has_value());
  EXPECT_TRUE(FindKeyViolationFast(dup, Key(schema, "c<oicp>")).has_value());
  EXPECT_FALSE(
      FindFdViolationFast(dup, Fd(schema, "{} ->w oicp")).has_value());
}

TEST(ValidateTest, ViolationWitnessesAreReal) {
  TableSchema schema = Schema("abc");
  Table t = Rows(schema, {"1x_", "1xZ", "2yQ"});
  auto v = FindFdViolationFast(t, Fd(schema, "a ->w c"));
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->row1, 0);
  EXPECT_EQ(v->row2, 1);
}

class ValidatorPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ValidatorPropertyTest, FastValidatorsMatchReference) {
  Rng rng(GetParam() * 83 + 7);
  for (int trial = 0; trial < 40; ++trial) {
    int n = 2 + static_cast<int>(rng.Uniform(0, 3));
    TableSchema schema = RandomSchema(&rng, n);
    Table t = RandomInstance(&rng, schema, 15, 2, 0.3);
    for (int q = 0; q < 10; ++q) {
      FunctionalDependency fd;
      fd.lhs = testing::RandomSubset(&rng, n);
      fd.rhs = testing::RandomSubset(&rng, n);
      fd.mode = rng.Chance(0.5) ? Mode::kPossible : Mode::kCertain;
      EXPECT_EQ(!FindFdViolationFast(t, fd).has_value(), Satisfies(t, fd))
          << fd.ToString(schema) << "\n" << t.ToString();
      KeyConstraint key{testing::RandomSubset(&rng, n, 0.5),
                        rng.Chance(0.5) ? Mode::kPossible
                                        : Mode::kCertain};
      EXPECT_EQ(!FindKeyViolationFast(t, key).has_value(), Satisfies(t, key))
          << key.ToString(schema) << "\n" << t.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValidatorPropertyTest,
                         ::testing::Range(0, 6));

TEST(ValidateAllTest, ChecksNfsAndConstraints) {
  TableSchema schema = Schema("ab", "a");
  ConstraintSet sigma = Sigma(schema, "a ->w b; p<a>");
  EXPECT_TRUE(ValidateAll(Rows(schema, {"11", "22"}), sigma));
  EXPECT_FALSE(ValidateAll(Rows(schema, {"_1"}), sigma));
  EXPECT_FALSE(ValidateAll(Rows(schema, {"11", "12"}), sigma));
}

TEST(DdlTest, EmitCreateTable) {
  TableSchema schema =
      TableSchema::Make("purchase", {"item", "catalog", "price"},
                        {"item", "price"})
          .value();
  SchemaDesign design{schema, Sigma(schema, "c<item,price>; p<catalog>; "
                                            "c<catalog,price>; "
                                            "item,catalog ->w price")};
  std::string ddl = EmitCreateTable(design);
  EXPECT_NE(ddl.find("CREATE TABLE purchase"), std::string::npos);
  EXPECT_NE(ddl.find("item TEXT NOT NULL"), std::string::npos);
  EXPECT_NE(ddl.find("catalog TEXT,"), std::string::npos);
  EXPECT_NE(ddl.find("PRIMARY KEY (item, price)"), std::string::npos);
  EXPECT_NE(ddl.find("UNIQUE (catalog)"), std::string::npos);
  // c-key with nullable column → trigger comment.
  EXPECT_NE(ddl.find("trigger-based"), std::string::npos);
  // FDs are documented as comments.
  EXPECT_NE(ddl.find("-- FD"), std::string::npos);
}

}  // namespace
}  // namespace sqlnf

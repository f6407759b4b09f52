// Randomized robustness: malformed text into the parsers and CSV
// reader must produce error statuses, never crashes or accepted
// garbage; random valid inputs must round-trip.

#include <string>

#include <gtest/gtest.h>

#include "sqlnf/constraints/parser.h"
#include "sqlnf/constraints/satisfies.h"
#include "sqlnf/constraints/serialize.h"
#include "sqlnf/core/encoded_table.h"
#include "sqlnf/engine/csv.h"
#include "sqlnf/engine/validate.h"
#include "test_util.h"

namespace sqlnf {
namespace {

using testing::Schema;

std::string RandomText(Rng* rng, int max_len) {
  static const char kAlphabet[] =
      "abcxyz ,;<>{}->sw\n\"\t0123456789#NULL";
  int len = static_cast<int>(rng->Uniform(0, max_len));
  std::string out;
  for (int i = 0; i < len; ++i) {
    out += kAlphabet[rng->Index(sizeof(kAlphabet) - 1)];
  }
  return out;
}

TEST(FuzzTest, ConstraintParserNeverCrashes) {
  Rng rng(404);
  TableSchema schema = Schema("abc", "a");
  for (int i = 0; i < 3000; ++i) {
    std::string text = RandomText(&rng, 40);
    auto fd = ParseFd(schema, text);
    auto key = ParseKey(schema, text);
    auto c = ParseConstraint(schema, text);
    auto set = ParseConstraintSet(schema, text);
    // If a full constraint set parses, every piece must render/reparse.
    if (set.ok()) {
      for (const Constraint& parsed : set->All()) {
        auto again =
            ParseConstraint(schema, ConstraintToString(parsed, schema));
        ASSERT_OK(again.status()) << text;
      }
    }
  }
}

TEST(FuzzTest, CsvReaderNeverCrashes) {
  Rng rng(505);
  for (int i = 0; i < 2000; ++i) {
    std::string text = RandomText(&rng, 80);
    auto table = ReadCsvString(text);
    if (table.ok()) {
      // Whatever parsed must serialize and reparse to the same shape.
      auto again = ReadCsvString(WriteCsvString(*table));
      ASSERT_OK(again.status()) << text;
      EXPECT_EQ(again->num_rows(), table->num_rows());
      EXPECT_EQ(again->num_columns(), table->num_columns());
    }
  }
}

TEST(FuzzTest, DesignParserNeverCrashes) {
  Rng rng(606);
  for (int i = 0; i < 2000; ++i) {
    std::string text = "table t\nattrs a b c\n" + RandomText(&rng, 60);
    auto design = ParseDesign(text);
    if (design.ok()) {
      auto again = ParseDesign(FormatDesign(*design));
      ASSERT_OK(again.status()) << text;
    }
  }
}

TEST(FuzzTest, CsvRoundTripsRandomTables) {
  Rng rng(707);
  for (int trial = 0; trial < 100; ++trial) {
    int cols = 1 + static_cast<int>(rng.Uniform(0, 5));
    TableSchema schema =
        Schema(std::string("abcdef").substr(0, cols));
    Table t(schema);
    int rows = static_cast<int>(rng.Uniform(0, 12));
    for (int r = 0; r < rows; ++r) {
      std::vector<Value> row;
      for (int c = 0; c < cols; ++c) {
        switch (rng.Uniform(0, 3)) {
          case 0:
            row.push_back(Value::Null());
            break;
          case 1:
            row.push_back(Value::Str(RandomText(&rng, 10)));
            break;
          default:
            row.push_back(Value::Str(std::to_string(rng.Uniform(0, 99))));
        }
      }
      ASSERT_OK(t.AddRow(Tuple(std::move(row))));
    }
    if (t.num_rows() == 0) continue;  // header-only CSV re-parses empty
    auto back = ReadCsvString(WriteCsvString(t));
    ASSERT_OK(back.status());
    ASSERT_EQ(back->num_rows(), t.num_rows());
    // Values round-trip as strings; ⊥ stays ⊥.
    for (int r = 0; r < t.num_rows(); ++r) {
      for (int c = 0; c < cols; ++c) {
        EXPECT_EQ(back->row(r)[c].is_null(), t.row(r)[c].is_null());
        if (!t.row(r)[c].is_null()) {
          EXPECT_EQ(back->row(r)[c].ToString(), t.row(r)[c].ToString());
        }
      }
    }
  }
}

// Any table the CSV reader accepts — including ones parsed from random
// garbage — must flow through the encoded validators without crashing,
// and their verdicts must match the all-pairs reference checker.
TEST(FuzzTest, CsvTablesThroughEncodedValidators) {
  Rng rng(808);
  int validated = 0;
  for (int i = 0; i < 2000; ++i) {
    auto table = ReadCsvString(RandomText(&rng, 80));
    if (!table.ok() || table->num_columns() == 0) continue;
    ++validated;
    const int n = table->num_columns();
    const EncodedTable enc(*table);
    for (int c = 0; c < 2; ++c) {
      FunctionalDependency fd;
      fd.lhs = testing::RandomSubset(&rng, n);
      fd.rhs = AttributeSet::Single(
          static_cast<AttributeId>(rng.Index(n)));
      KeyConstraint key;
      key.attrs = testing::RandomSubset(&rng, n, 0.5);
      if (key.attrs.empty()) key.attrs = fd.rhs;
      for (Mode mode : {Mode::kPossible, Mode::kCertain}) {
        fd.mode = mode;
        key.mode = mode;
        EXPECT_EQ(ValidateFdEncoded(enc, fd), Satisfies(*table, fd))
            << "iter=" << i;
        EXPECT_EQ(ValidateKeyEncoded(enc, key), Satisfies(*table, key))
            << "iter=" << i;
      }
    }
  }
  // The garbage alphabet parses often enough for this to bite.
  EXPECT_GT(validated, 50);
}

}  // namespace
}  // namespace sqlnf

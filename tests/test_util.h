// Shared helpers for the sqlnf test suite: terse constructors for
// schemas/constraints/tables using the paper's compact notation, and
// seeded random generators for the property-based sweeps.

#ifndef SQLNF_TESTS_TEST_UTIL_H_
#define SQLNF_TESTS_TEST_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "sqlnf/constraints/constraint.h"
#include "sqlnf/constraints/parser.h"
#include "sqlnf/core/encoded_table.h"
#include "sqlnf/core/table.h"
#include "sqlnf/engine/predicate.h"
#include "sqlnf/util/rng.h"

#define ASSERT_OK(expr) ASSERT_TRUE((expr).ok()) << (expr).ToString()
#define EXPECT_OK(expr) EXPECT_TRUE((expr).ok()) << (expr).ToString()
#define ASSERT_OK_AND_ASSIGN(lhs, expr)                        \
  auto SQLNF_CONCAT(_test_res_, __LINE__) = (expr);            \
  ASSERT_TRUE(SQLNF_CONCAT(_test_res_, __LINE__).ok())         \
      << SQLNF_CONCAT(_test_res_, __LINE__).status().ToString(); \
  lhs = std::move(SQLNF_CONCAT(_test_res_, __LINE__)).value()

namespace sqlnf::testing {

/// Schema with single-char attributes, e.g. Schema("oicp", "ocp").
inline TableSchema Schema(std::string_view attrs,
                          std::string_view not_null = "") {
  auto result = TableSchema::MakeCompact("T", attrs, not_null);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// WHERE column = value under marker equality: a ⊥ value matches
/// exactly the ⊥ cells.
inline Predicate WhereEq(AttributeId column, Value value) {
  return Predicate::And({Cmp(column, CompareOp::kEq, std::move(value))});
}

/// Parses an FD in compact notation, asserting success.
inline FunctionalDependency Fd(const TableSchema& schema,
                               std::string_view text) {
  auto result = ParseFd(schema, text);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

inline KeyConstraint Key(const TableSchema& schema, std::string_view text) {
  auto result = ParseKey(schema, text);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

inline ConstraintSet Sigma(const TableSchema& schema,
                           std::string_view text) {
  auto result = ParseConstraintSet(schema, text);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

inline AttributeSet Attrs(const TableSchema& schema,
                          std::string_view text) {
  auto result = ParseAttributeSet(schema, text);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// Builds a table from compact rows; each cell is one character,
/// '_' = ⊥. E.g. Rows(schema, {"01a", "01_"}).
inline Table Rows(const TableSchema& schema,
                  const std::vector<std::string>& rows) {
  Table table(schema);
  for (const std::string& r : rows) {
    EXPECT_EQ(static_cast<int>(r.size()), schema.num_attributes());
    std::vector<Value> values;
    for (char c : r) {
      values.push_back(c == '_' ? Value::Null()
                                : Value::Str(std::string(1, c)));
    }
    auto st = table.AddRow(Tuple(std::move(values)));
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  return table;
}

/// Random schema (n attributes, random NFS).
inline TableSchema RandomSchema(Rng* rng, int n) {
  std::string attrs, nfs;
  for (int i = 0; i < n; ++i) {
    char c = static_cast<char>('a' + i);
    attrs += c;
    if (rng->Chance(0.5)) nfs += c;
  }
  return Schema(attrs, nfs);
}

inline AttributeSet RandomSubset(Rng* rng, int n, double p = 0.4) {
  AttributeSet out;
  for (int i = 0; i < n; ++i) {
    if (rng->Chance(p)) out.Add(i);
  }
  return out;
}

/// Random constraint set: `fds` FDs and `keys` keys over n attributes.
inline ConstraintSet RandomSigma(Rng* rng, int n, int fds, int keys) {
  ConstraintSet sigma;
  for (int i = 0; i < fds; ++i) {
    FunctionalDependency fd;
    fd.lhs = RandomSubset(rng, n);
    fd.rhs = RandomSubset(rng, n);
    fd.mode = rng->Chance(0.5) ? Mode::kPossible : Mode::kCertain;
    if (fd.rhs.empty()) fd.rhs = AttributeSet::Single(
        static_cast<AttributeId>(rng->Index(n)));
    sigma.AddFd(fd);
  }
  for (int i = 0; i < keys; ++i) {
    KeyConstraint key;
    key.attrs = RandomSubset(rng, n, 0.5);
    if (key.attrs.empty()) key.attrs.Add(
        static_cast<AttributeId>(rng->Index(n)));
    key.mode = rng->Chance(0.5) ? Mode::kPossible : Mode::kCertain;
    sigma.AddKey(key);
  }
  return sigma;
}

/// Random instance over `schema`: values from a small pool so that
/// agreements happen; ⊥ only outside the NFS.
inline Table RandomInstance(Rng* rng, const TableSchema& schema, int rows,
                            int domain = 3, double null_rate = 0.25) {
  Table table(schema);
  for (int r = 0; r < rows; ++r) {
    std::vector<Value> values;
    for (AttributeId a = 0; a < schema.num_attributes(); ++a) {
      if (!schema.nfs().Contains(a) && rng->Chance(null_rate)) {
        values.push_back(Value::Null());
      } else {
        values.push_back(Value::Int(rng->Uniform(0, domain - 1)));
      }
    }
    auto st = table.AddRow(Tuple(std::move(values)));
    EXPECT_TRUE(st.ok());
  }
  return table;
}

/// One literal as SQL text: NULL, a (possibly negative) integer, or a
/// quoted string with every ' doubled.
inline std::string SqlLiteral(const Value& v) {
  if (v.is_null()) return "NULL";
  if (v.kind() == Value::Kind::kInt) return std::to_string(v.int_value());
  std::string out = "'";
  for (const char c : v.str_value()) {
    out += c;
    if (c == '\'') out += '\'';
  }
  return out + "'";
}

/// One predicate atom as SQL text over `schema`'s column names.
inline std::string SqlAtom(const TableSchema& schema,
                           const PredicateAtom& atom) {
  static const char* const kOps[] = {"=", "<>", "<", "<=", ">", ">="};
  std::string out = schema.attribute_name(atom.column);
  switch (atom.op) {
    case CompareOp::kBetween:
      return out + " BETWEEN " + SqlLiteral(atom.value) + " AND " +
             SqlLiteral(atom.upper);
    case CompareOp::kIn: {
      out += " IN (";
      for (size_t i = 0; i < atom.list.size(); ++i) {
        out += (i > 0 ? ", " : "") + SqlLiteral(atom.list[i]);
      }
      return out + ")";
    }
    default:
      return out + " " + kOps[static_cast<int>(atom.op)] + " " +
             SqlLiteral(atom.value);
  }
}

/// What EncodedTable::BitIdentical compares, captured by value — per
/// column the codes, the ⊥ count and the dictionary in code order — so
/// a before/after comparison cannot be fooled by storage that the two
/// sides share copy-on-write.
struct EncodingBits {
  std::vector<std::vector<uint32_t>> codes;
  std::vector<std::vector<Value>> dict;
  std::vector<int> nulls;

  explicit EncodingBits(const EncodedTable& t) {
    for (AttributeId c = 0; c < t.num_columns(); ++c) {
      codes.push_back(t.column(c));
      std::vector<Value> values;
      for (int code = 0; code < t.dictionary_size(c); ++code) {
        values.push_back(t.DecodeCode(c, static_cast<uint32_t>(code)));
      }
      dict.push_back(std::move(values));
      nulls.push_back(t.null_count(c));
    }
  }
  bool operator==(const EncodingBits&) const = default;
};

}  // namespace sqlnf::testing

#endif  // SQLNF_TESTS_TEST_UTIL_H_

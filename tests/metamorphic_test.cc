// Metamorphic properties of constraint satisfaction: transformations of
// the instance with a KNOWN effect on every verdict, checked across the
// reference checker and the columnar kernels.
//
//   * Row permutation   — satisfaction is set semantics; any row order
//                         gives the same verdict on every path.
//   * Duplicate row     — satisfies every FD (a duplicate pair agrees on
//                         everything) but violates every c-key, and
//                         violates a p-key iff the copied row is total
//                         on the key (Figure 3's phenomenon).
//   * Column reorder    — verdicts are invariant under relabelling the
//                         attributes of both the table and the
//                         constraint.
//   * Encode → decode   — EncodedTable(t).Decode(schema) reproduces the
//                         original table cell for cell.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sqlnf/constraints/satisfies.h"
#include "sqlnf/core/encoded_table.h"
#include "sqlnf/engine/predicate.h"
#include "sqlnf/engine/relops.h"
#include "sqlnf/engine/validate.h"
#include "sqlnf/reference/validate.h"
#include "sqlnf/util/rng.h"
#include "reference_oracle.h"
#include "test_util.h"

namespace sqlnf {
namespace {

using testing::RandomInstance;
using testing::RandomSchema;
using testing::RandomSubset;

// One verdict per path; the metamorphic laws quantify over all of them.
struct Verdicts {
  bool reference;
  bool tuple;
  bool encoded1;
  bool encoded4;
};

Verdicts FdVerdicts(const Table& table, const FunctionalDependency& fd) {
  const EncodedTable enc(table);
  return {Satisfies(table, fd), !FindFdViolationTuple(table, fd).has_value(),
          !FindFdViolationEncoded(enc, fd, ParallelOptions{1}).has_value(),
          !FindFdViolationEncoded(enc, fd, ParallelOptions{4}).has_value()};
}

Verdicts KeyVerdicts(const Table& table, const KeyConstraint& key) {
  const EncodedTable enc(table);
  return {Satisfies(table, key),
          !FindKeyViolationTuple(table, key).has_value(),
          !FindKeyViolationEncoded(enc, key, ParallelOptions{1}).has_value(),
          !FindKeyViolationEncoded(enc, key, ParallelOptions{4}).has_value()};
}

void ExpectVerdicts(const Verdicts& v, bool expect, const std::string& what) {
  EXPECT_EQ(v.reference, expect) << what << " [reference]";
  EXPECT_EQ(v.tuple, expect) << what << " [tuple]";
  EXPECT_EQ(v.encoded1, expect) << what << " [encoded t=1]";
  EXPECT_EQ(v.encoded4, expect) << what << " [encoded t=4]";
}

Table Permuted(const Table& table, const std::vector<int>& order) {
  Table out(table.schema());
  for (int r : order) {
    auto st = out.AddRow(table.row(r));
    EXPECT_TRUE(st.ok());
  }
  return out;
}

TEST(MetamorphicTest, RowPermutationInvariance) {
  Rng rng(11);
  for (int iter = 0; iter < 40; ++iter) {
    const int cols = static_cast<int>(rng.Uniform(2, 5));
    const TableSchema schema = RandomSchema(&rng, cols);
    const Table table = RandomInstance(&rng, schema,
                                       static_cast<int>(rng.Uniform(2, 30)),
                                       /*domain=*/3, 0.3);
    std::vector<int> order(table.num_rows());
    for (int i = 0; i < table.num_rows(); ++i) order[i] = i;
    rng.Shuffle(&order);
    const Table shuffled = Permuted(table, order);

    FunctionalDependency fd;
    fd.lhs = RandomSubset(&rng, cols);
    fd.rhs = AttributeSet::Single(static_cast<AttributeId>(rng.Index(cols)));
    KeyConstraint key;
    key.attrs = RandomSubset(&rng, cols, 0.5);
    if (key.attrs.empty()) key.attrs = fd.rhs;

    for (Mode mode : {Mode::kPossible, Mode::kCertain}) {
      fd.mode = mode;
      key.mode = mode;
      const std::string what = "iter=" + std::to_string(iter);
      ExpectVerdicts(FdVerdicts(shuffled, fd),
                     testing::OracleSatisfiesFd(table, fd), what + " fd");
      ExpectVerdicts(KeyVerdicts(shuffled, key),
                     testing::OracleSatisfiesKey(table, key), what + " key");
    }
  }
}

TEST(MetamorphicTest, DuplicateRowLaws) {
  Rng rng(22);
  for (int iter = 0; iter < 40; ++iter) {
    const int cols = static_cast<int>(rng.Uniform(2, 5));
    const TableSchema schema = RandomSchema(&rng, cols);
    const Table table = RandomInstance(&rng, schema,
                                       static_cast<int>(rng.Uniform(1, 20)),
                                       /*domain=*/3, 0.3);
    const int victim = static_cast<int>(rng.Index(table.num_rows()));
    Table dup = table;
    ASSERT_TRUE(dup.AddRow(table.row(victim)).ok());
    const std::string what = "iter=" + std::to_string(iter);

    // An FD's verdict never changes: the duplicate pair agrees on
    // everything, and pairs with other rows mirror the original row's.
    FunctionalDependency fd;
    fd.lhs = RandomSubset(&rng, cols);
    fd.rhs = AttributeSet::Single(static_cast<AttributeId>(rng.Index(cols)));
    for (Mode mode : {Mode::kPossible, Mode::kCertain}) {
      fd.mode = mode;
      ExpectVerdicts(FdVerdicts(dup, fd),
                     testing::OracleSatisfiesFd(table, fd), what + " fd");
    }

    // Keys: every c-key is now violated (the duplicate pair is weakly
    // similar on anything); a p-key is violated iff the copied row is
    // total on the key attributes — ⊥ breaks strong similarity.
    KeyConstraint key;
    key.attrs = RandomSubset(&rng, cols, 0.5);
    if (key.attrs.empty()) {
      key.attrs = AttributeSet::Single(
          static_cast<AttributeId>(rng.Index(cols)));
    }
    key.mode = Mode::kCertain;
    ExpectVerdicts(KeyVerdicts(dup, key), false, what + " c-key");

    key.mode = Mode::kPossible;
    bool total = true;
    for (AttributeId a : key.attrs) {
      if (table.row(victim)[a].is_null()) total = false;
    }
    if (total) {
      ExpectVerdicts(KeyVerdicts(dup, key), false, what + " p-key total");
    } else if (testing::OracleSatisfiesKey(table, key)) {
      // A non-total duplicate adds no strongly-similar pair.
      ExpectVerdicts(KeyVerdicts(dup, key), true, what + " p-key partial");
    }
  }
}

TEST(MetamorphicTest, ColumnReorderInvariance) {
  Rng rng(33);
  for (int iter = 0; iter < 40; ++iter) {
    const int cols = static_cast<int>(rng.Uniform(2, 5));
    const TableSchema schema = RandomSchema(&rng, cols);
    const Table table = RandomInstance(&rng, schema,
                                       static_cast<int>(rng.Uniform(0, 25)),
                                       /*domain=*/3, 0.3);

    // perm[old] = new position.
    std::vector<int> perm(cols);
    for (int i = 0; i < cols; ++i) perm[i] = i;
    rng.Shuffle(&perm);

    std::string attrs(cols, '?'), nfs;
    for (int a = 0; a < cols; ++a) attrs[perm[a]] = static_cast<char>('a' + a);
    for (int a = 0; a < cols; ++a) {
      if (schema.nfs().Contains(a)) nfs += attrs[perm[a]];
    }
    const TableSchema reordered_schema = testing::Schema(attrs, nfs);
    Table reordered(reordered_schema);
    for (int r = 0; r < table.num_rows(); ++r) {
      std::vector<Value> values(cols, Value::Null());
      for (int a = 0; a < cols; ++a) values[perm[a]] = table.row(r)[a];
      ASSERT_TRUE(reordered.AddRow(Tuple(std::move(values))).ok());
    }
    auto remap = [&](const AttributeSet& s) {
      AttributeSet out;
      for (AttributeId a : s) out.Add(perm[a]);
      return out;
    };

    FunctionalDependency fd, rfd;
    fd.lhs = RandomSubset(&rng, cols);
    fd.rhs = AttributeSet::Single(static_cast<AttributeId>(rng.Index(cols)));
    rfd.lhs = remap(fd.lhs);
    rfd.rhs = remap(fd.rhs);
    KeyConstraint key, rkey;
    key.attrs = RandomSubset(&rng, cols, 0.5);
    if (key.attrs.empty()) key.attrs = fd.rhs;
    rkey.attrs = remap(key.attrs);

    for (Mode mode : {Mode::kPossible, Mode::kCertain}) {
      fd.mode = rfd.mode = mode;
      key.mode = rkey.mode = mode;
      const std::string what = "iter=" + std::to_string(iter);
      ExpectVerdicts(FdVerdicts(reordered, rfd),
                     testing::OracleSatisfiesFd(table, fd), what + " fd");
      ExpectVerdicts(KeyVerdicts(reordered, rkey),
                     testing::OracleSatisfiesKey(table, key), what + " key");
    }
  }
}

TEST(MetamorphicTest, EncodeDecodeRoundTrip) {
  Rng rng(44);
  for (int iter = 0; iter < 30; ++iter) {
    const int cols = static_cast<int>(rng.Uniform(1, 6));
    const TableSchema schema = RandomSchema(&rng, cols);
    const Table table = RandomInstance(&rng, schema,
                                       static_cast<int>(rng.Uniform(0, 40)),
                                       /*domain=*/4, 0.3);
    const EncodedTable enc(table);
    const Table back = enc.Decode(schema);
    ASSERT_EQ(back.num_rows(), table.num_rows());
    for (int r = 0; r < table.num_rows(); ++r) {
      for (AttributeId a = 0; a < cols; ++a) {
        EXPECT_TRUE(back.row(r)[a] == table.row(r)[a])
            << "iter=" << iter << " row=" << r << " col=" << int{a};
      }
    }
    // And the encoding is equivalent to itself re-encoded from the
    // decode (dictionaries may re-number; EquivalentTo must not care).
    EXPECT_TRUE(enc.EquivalentTo(EncodedTable(back))) << "iter=" << iter;
  }
}

// ---- Metamorphic predicate laws: rewrites with a KNOWN effect on the
// selected row set, checked on the compiled columnar scan.

namespace {

Value RandomPredOperand(Rng* rng, int domain) {
  const double roll = rng->NextDouble();
  if (roll < 0.2) return Value::Null();
  if (roll < 0.35) return Value::Int(rng->Uniform(100, 104));  // absent
  return Value::Int(rng->Uniform(0, domain - 1));
}

std::vector<int> AllRows(const EncodedTable& enc) {
  std::vector<int> out(enc.num_rows());
  for (int i = 0; i < enc.num_rows(); ++i) out[i] = i;
  return out;
}

std::vector<int> Complement(const std::vector<int>& sel, int n) {
  std::vector<int> out;
  size_t next = 0;
  for (int i = 0; i < n; ++i) {
    if (next < sel.size() && sel[next] == i) {
      ++next;
    } else {
      out.push_back(i);
    }
  }
  return out;
}

}  // namespace

// De Morgan over marker equality: ¬(a=x ∧ b=y) ≡ (a<>x ∨ b<>y), which
// holds EXACTLY under marker semantics (kNe is the true complement of
// kEq, ⊥ included) — so the complement of the AND-selection equals the
// OR-of-negations selection, row for row.
TEST(MetamorphicTest, PredicateDeMorganEquality) {
  Rng rng(4601);
  for (int iter = 0; iter < 40; ++iter) {
    const int cols = static_cast<int>(rng.Uniform(2, 5));
    const TableSchema schema = RandomSchema(&rng, cols);
    const Table table = RandomInstance(&rng, schema,
                                       static_cast<int>(rng.Uniform(0, 50)),
                                       /*domain=*/3, 0.3);
    const EncodedTable enc(table);
    Conjunction conj;
    Predicate negated;  // OR of single-atom negations
    const int k = static_cast<int>(rng.Uniform(1, 3));
    for (int j = 0; j < k; ++j) {
      const AttributeId col =
          static_cast<AttributeId>(rng.Index(static_cast<size_t>(cols)));
      const Value v = RandomPredOperand(&rng, 3);
      conj.push_back(Cmp(col, CompareOp::kEq, v));
      negated.disjuncts.push_back({Cmp(col, CompareOp::kNe, v)});
    }
    const std::vector<int> sel =
        SelectRowsEncoded(enc, Predicate::And(conj));
    EXPECT_EQ(SelectRowsEncoded(enc, negated),
              Complement(sel, enc.num_rows()))
        << "iter=" << iter;
  }
}

// On ⊥-FREE columns the ordered complements are exact as well:
// ¬(col < v) ≡ col >= v and ¬(col <= v) ≡ col > v for a non-null
// operand. (With ⊥ present both sides exclude the ⊥ rows, so the
// complement law holds only ⊥-free — which is exactly the documented
// semantics.)
TEST(MetamorphicTest, PredicateOrderedComplementsNullFree) {
  Rng rng(4602);
  for (int iter = 0; iter < 40; ++iter) {
    const int cols = static_cast<int>(rng.Uniform(1, 4));
    std::string attrs;
    for (int i = 0; i < cols; ++i) {
      attrs += static_cast<char>('a' + i);
    }
    const TableSchema schema = testing::Schema(attrs, attrs);  // full NFS
    const Table table = RandomInstance(&rng, schema,
                                       static_cast<int>(rng.Uniform(0, 50)),
                                       /*domain=*/4, /*null_rate=*/0.0);
    const EncodedTable enc(table);
    const AttributeId col =
        static_cast<AttributeId>(rng.Index(static_cast<size_t>(cols)));
    const Value v = Value::Int(rng.Uniform(0, 4));
    const std::vector<int> lt = SelectRowsEncoded(
        enc, Predicate::And({Cmp(col, CompareOp::kLt, v)}));
    const std::vector<int> le = SelectRowsEncoded(
        enc, Predicate::And({Cmp(col, CompareOp::kLe, v)}));
    EXPECT_EQ(SelectRowsEncoded(
                  enc, Predicate::And({Cmp(col, CompareOp::kGe, v)})),
              Complement(lt, enc.num_rows()))
        << "iter=" << iter;
    EXPECT_EQ(SelectRowsEncoded(
                  enc, Predicate::And({Cmp(col, CompareOp::kGt, v)})),
              Complement(le, enc.num_rows()))
        << "iter=" << iter;
  }
}

// BETWEEN a AND b ≡ (col >= a) AND (col <= b); IN (a) ≡ (col = a);
// IN (list) ≡ OR of equalities — on every random table, ⊥ included.
TEST(MetamorphicTest, PredicateBetweenAndInRewrites) {
  Rng rng(4603);
  for (int iter = 0; iter < 40; ++iter) {
    const int cols = static_cast<int>(rng.Uniform(1, 4));
    const TableSchema schema = RandomSchema(&rng, cols);
    const Table table = RandomInstance(&rng, schema,
                                       static_cast<int>(rng.Uniform(0, 50)),
                                       /*domain=*/4, 0.25);
    const EncodedTable enc(table);
    const AttributeId col =
        static_cast<AttributeId>(rng.Index(static_cast<size_t>(cols)));
    const Value lo = RandomPredOperand(&rng, 4);
    const Value hi = RandomPredOperand(&rng, 4);
    EXPECT_EQ(SelectRowsEncoded(enc, Predicate::And({Between(col, lo, hi)})),
              SelectRowsEncoded(enc, Predicate::And(
                                         {Cmp(col, CompareOp::kGe, lo),
                                          Cmp(col, CompareOp::kLe, hi)})))
        << "iter=" << iter;
    EXPECT_EQ(SelectRowsEncoded(enc, Predicate::And({In(col, {lo})})),
              SelectRowsEncoded(enc,
                                Predicate::And({Cmp(col, CompareOp::kEq,
                                                    lo)})))
        << "iter=" << iter;
    Predicate ors;
    ors.disjuncts.push_back({Cmp(col, CompareOp::kEq, lo)});
    ors.disjuncts.push_back({Cmp(col, CompareOp::kEq, hi)});
    EXPECT_EQ(SelectRowsEncoded(enc, Predicate::And({In(col, {lo, hi})})),
              SelectRowsEncoded(enc, ors))
        << "iter=" << iter;
  }
}

// Selection vectors are emitted in ascending row order regardless of
// predicate shape, so shuffling disjuncts and the atoms inside each
// conjunction must reproduce the identical vector.
TEST(MetamorphicTest, PredicateOrderShuffleInvariance) {
  Rng rng(4604);
  for (int iter = 0; iter < 40; ++iter) {
    const int cols = static_cast<int>(rng.Uniform(2, 5));
    const TableSchema schema = RandomSchema(&rng, cols);
    const Table table = RandomInstance(&rng, schema,
                                       static_cast<int>(rng.Uniform(0, 50)),
                                       /*domain=*/3, 0.25);
    const EncodedTable enc(table);
    Predicate pred;
    const int disjuncts = static_cast<int>(rng.Uniform(1, 3));
    for (int dj = 0; dj < disjuncts; ++dj) {
      Conjunction conj;
      const int atoms = static_cast<int>(rng.Uniform(1, 3));
      for (int a = 0; a < atoms; ++a) {
        const AttributeId col =
            static_cast<AttributeId>(rng.Index(static_cast<size_t>(cols)));
        const Value v = RandomPredOperand(&rng, 3);
        switch (rng.Uniform(0, 2)) {
          case 0:
            conj.push_back(Cmp(col, CompareOp::kLe, v));
            break;
          case 1:
            conj.push_back(Cmp(col, CompareOp::kNe, v));
            break;
          default:
            conj.push_back(Between(col, v, RandomPredOperand(&rng, 3)));
        }
      }
      pred.disjuncts.push_back(std::move(conj));
    }
    const std::vector<int> sel = SelectRowsEncoded(enc, pred);
    Predicate shuffled = pred;
    rng.Shuffle(&shuffled.disjuncts);
    for (Conjunction& conj : shuffled.disjuncts) rng.Shuffle(&conj);
    EXPECT_EQ(SelectRowsEncoded(enc, shuffled), sel) << "iter=" << iter;
    (void)AllRows;  // helper shared with other predicate laws
  }
}

}  // namespace
}  // namespace sqlnf

// Cross-module edge cases: extreme schema sizes, empty/singleton
// instances, all-⊥ columns, empty constraint sets, and other boundary
// behaviour a downstream user will eventually hit.

#include <gtest/gtest.h>

#include "sqlnf/constraints/satisfies.h"
#include "sqlnf/decomposition/lossless.h"
#include "sqlnf/decomposition/vrnf_decompose.h"
#include "sqlnf/discovery/discover.h"
#include "sqlnf/engine/validate.h"
#include "sqlnf/normalform/normal_forms.h"
#include "sqlnf/normalform/redundancy.h"
#include "sqlnf/reasoning/implication.h"
#include "test_util.h"

namespace sqlnf {
namespace {

using testing::Fd;
using testing::Key;
using testing::Rows;
using testing::Schema;
using testing::Sigma;

TEST(EdgeCaseTest, SixtyFourAttributeSchema) {
  std::vector<std::string> names;
  for (int i = 0; i < 64; ++i) names.push_back("a" + std::to_string(i));
  ASSERT_OK_AND_ASSIGN(TableSchema schema,
                       TableSchema::Make("wide", names, {"a0", "a63"}));
  EXPECT_EQ(schema.num_attributes(), 64);
  EXPECT_EQ(schema.all().size(), 64);

  // Implication on the full width.
  ConstraintSet sigma;
  sigma.AddFd(FunctionalDependency::Certain({0}, schema.all()));
  Implication imp(schema, sigma);
  EXPECT_TRUE(
      imp.Implies(FunctionalDependency::Certain({0}, {63})));
  EXPECT_TRUE(imp.CClosure({0}) == schema.all());
}

TEST(EdgeCaseTest, EmptyInstanceSatisfiesEverything) {
  TableSchema schema = Schema("abc", "a");
  Table empty(schema);
  EXPECT_TRUE(Satisfies(empty, Fd(schema, "a ->w bc")));
  EXPECT_TRUE(Satisfies(empty, Key(schema, "c<a>")));
  EXPECT_TRUE(SatisfiesAll(empty, Sigma(schema, "a ->s b; p<ab>")));
  EXPECT_TRUE(IsRedundancyFreeInstance(empty, ConstraintSet()));
  EXPECT_TRUE(ValidateAll(empty, Sigma(schema, "a ->w b; c<a>")));
}

TEST(EdgeCaseTest, SingleRowInstance) {
  TableSchema schema = Schema("abc", "a");
  Table one = Rows(schema, {"1_2"});
  EXPECT_TRUE(Satisfies(one, Fd(schema, "a ->w bc")));
  EXPECT_TRUE(Satisfies(one, Key(schema, "c<{}>")));  // one row only
  // A single ⊥ is never redundant under FDs alone (it can become any
  // value without creating a second tuple to disagree with).
  EXPECT_FALSE(IsRedundantPosition(one, Sigma(schema, "a ->w b"),
                                   Position{0, 1}));
}

TEST(EdgeCaseTest, EmptyKeyAttrsMeansAtMostOneRow) {
  TableSchema schema = Schema("ab");
  KeyConstraint empty_p = Key(schema, "p<{}>");
  KeyConstraint empty_c = Key(schema, "c<{}>");
  Table one = Rows(schema, {"12"});
  Table two = Rows(schema, {"12", "34"});
  EXPECT_TRUE(Satisfies(one, empty_p));
  EXPECT_TRUE(Satisfies(one, empty_c));
  EXPECT_FALSE(Satisfies(two, empty_p));  // any two rows agree on ∅
  EXPECT_FALSE(Satisfies(two, empty_c));
  EXPECT_EQ(Satisfies(two, empty_p),
            !FindKeyViolationFast(two, empty_p).has_value());
  EXPECT_EQ(Satisfies(two, empty_c),
            !FindKeyViolationFast(two, empty_c).has_value());
}

TEST(EdgeCaseTest, AllNullColumn) {
  TableSchema schema = Schema("ab");
  Table t = Rows(schema, {"_1", "_2", "_1"});
  // Everything weakly agrees on the ⊥ column.
  EXPECT_FALSE(Satisfies(t, Fd(schema, "a ->w b")));
  EXPECT_TRUE(Satisfies(t, Fd(schema, "a ->s b")));  // never strongly
  EXPECT_EQ(!FindFdViolationFast(t, Fd(schema, "a ->w b")).has_value(),
            Satisfies(t, Fd(schema, "a ->w b")));
  // Discovery handles it: column 0 is not null-free and is no key.
  ASSERT_OK_AND_ASSIGN(DiscoveryResult mined, DiscoverConstraints(t));
  EXPECT_FALSE(mined.null_free_columns.Contains(0));
}

TEST(EdgeCaseTest, DuplicateOnlyTable) {
  TableSchema schema = Schema("ab", "ab");
  Table t = Rows(schema, {"11", "11", "11"});
  ASSERT_OK_AND_ASSIGN(DiscoveryResult mined, DiscoverConstraints(t));
  // No keys can hold; FDs trivially hold for every LHS (minimal: ∅).
  EXPECT_TRUE(mined.p_keys.empty());
  EXPECT_TRUE(mined.c_keys.empty());
  bool empty_lhs_found = false;
  for (const auto& fd : mined.classical_fds) {
    if (fd.lhs.empty()) empty_lhs_found = true;
  }
  EXPECT_TRUE(empty_lhs_found);
}

TEST(EdgeCaseTest, ImplicationWithEmptySigma) {
  TableSchema schema = Schema("abc", "b");
  Implication imp(schema, ConstraintSet());
  EXPECT_TRUE(imp.Implies(Fd(schema, "ab ->s a")));
  EXPECT_TRUE(imp.Implies(Fd(schema, "ab ->w b")));
  EXPECT_FALSE(imp.Implies(Fd(schema, "ab ->w a")));  // a nullable
  EXPECT_FALSE(imp.Implies(Key(schema, "p<abc>")));
  EXPECT_FALSE(imp.Implies(Key(schema, "c<abc>")));
}

TEST(EdgeCaseTest, VrnfOnSingleAttributeSchema) {
  TableSchema schema = Schema("a", "");
  SchemaDesign design{schema, ConstraintSet()};
  ASSERT_OK_AND_ASSIGN(VrnfResult result, VrnfDecompose(design));
  EXPECT_EQ(result.decomposition.components.size(), 1u);
  EXPECT_TRUE(result.steps.empty());
}

TEST(EdgeCaseTest, VrnfWithWholeSchemaKey) {
  TableSchema schema = Schema("abcd", "abcd");
  SchemaDesign design{schema, Sigma(schema, "c<a>")};
  ASSERT_OK_AND_ASSIGN(VrnfResult result, VrnfDecompose(design));
  // a is a key: no FD can violate (every LHS ⊇ nothing...); schema
  // stays whole.
  EXPECT_EQ(result.decomposition.components.size(), 1u);
}

TEST(EdgeCaseTest, DecomposeByFdCoveringWholeSchema) {
  // lhs ∪ rhs = T: the "rest" component degenerates to the LHS.
  TableSchema schema = Schema("abc");
  FunctionalDependency fd = Fd(schema, "a ->w bc");
  Decomposition d = DecomposeByFd(schema, fd);
  EXPECT_EQ(d.components[0].attrs, AttributeSet{0});
  Table t = Rows(schema, {"1xy", "1xy", "2pq"});
  ASSERT_TRUE(Satisfies(t, fd));
  ASSERT_OK_AND_ASSIGN(bool lossless, IsLosslessForInstance(t, d));
  EXPECT_TRUE(lossless);
}

TEST(EdgeCaseTest, ClosureEngineIsReusable) {
  TableSchema schema = Schema("abcd", "ab");
  ConstraintSet sigma = Sigma(schema, "a ->w b; b ->s c");
  ClosureEngine engine(sigma, schema.nfs());
  // Repeated and interleaved queries must not interfere.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(engine.PClosure({0}), (AttributeSet{0, 1, 2}));
    EXPECT_EQ(engine.CClosure({3}), AttributeSet{});
    EXPECT_EQ(engine.CClosure({0}), (AttributeSet{0, 1, 2}));
  }
}

TEST(EdgeCaseTest, RedundancyWithKeysOnly) {
  // Keys never force a value, so no position is redundant.
  TableSchema schema = Schema("ab", "ab");
  Table t = Rows(schema, {"11", "22"});
  ConstraintSet sigma = Sigma(schema, "c<a>");
  EXPECT_TRUE(IsRedundancyFreeInstance(t, sigma));
}

TEST(EdgeCaseTest, NormalFormsOnKeylessFdlessSchema) {
  TableSchema schema = Schema("abc", "ac");
  SchemaDesign design{schema, ConstraintSet()};
  EXPECT_TRUE(IsBcnf(design));
  ASSERT_OK_AND_ASSIGN(bool sql_bcnf, IsSqlBcnf(design));
  EXPECT_TRUE(sql_bcnf);
}

TEST(EdgeCaseTest, UnicodeAndSpecialCharactersInValues) {
  TableSchema schema = Schema("ab");
  Table t(schema);
  ASSERT_OK(t.AddRow(Tuple({Value::Str("köhler—link"),
                            Value::Str("tab\tand \"quote\"")})));
  ASSERT_OK(t.AddRow(Tuple({Value::Str("köhler—link"),
                            Value::Str("tab\tand \"quote\"")})));
  EXPECT_TRUE(Satisfies(t, Fd(schema, "a ->w b")));
  EXPECT_FALSE(Satisfies(t, Key(schema, "p<ab>")));
}

}  // namespace
}  // namespace sqlnf

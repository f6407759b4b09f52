// End-to-end flows across the whole library: mine a generated table,
// normalize its design, verify losslessness and redundancy elimination,
// and emit DDL — the full pipeline a downstream user would run.

#include <gtest/gtest.h>

#include "sqlnf/constraints/satisfies.h"
#include "sqlnf/datagen/generator.h"
#include "sqlnf/datagen/lmrp.h"
#include "sqlnf/decomposition/lossless.h"
#include "sqlnf/decomposition/report.h"
#include "sqlnf/decomposition/vrnf_decompose.h"
#include "sqlnf/discovery/discover.h"
#include "sqlnf/engine/csv.h"
#include "sqlnf/engine/ddl.h"
#include "sqlnf/engine/session.h"
#include "sqlnf/engine/validate.h"
#include "sqlnf/normalform/normal_forms.h"
#include "sqlnf/normalform/redundancy.h"
#include "sqlnf/reasoning/cover.h"
#include "test_util.h"

namespace sqlnf {
namespace {

using testing::Rows;
using testing::Schema;
using testing::Sigma;

// The paper's end-to-end story on the running example: detect the
// normal-form violation, decompose, verify the result.
TEST(IntegrationTest, PurchaseStory) {
  TableSchema schema = Schema("oicp", "oip");
  SchemaDesign design{schema, Sigma(schema, "oic ->w oicp")};

  // 1. Not in VRNF.
  ASSERT_OK_AND_ASSIGN(bool vrnf_before, IsVrnf(design));
  EXPECT_FALSE(vrnf_before);

  // 2. An instance with redundancy exists (⊥ positions in Figure §6.2).
  Table instance = Rows(schema, {"1F_X", "1F_X", "3DKY", "3DKY"});
  ASSERT_TRUE(SatisfiesAll(instance, design.sigma));
  EXPECT_FALSE(IsRedundancyFreeInstance(instance, design.sigma));

  // 3. Decompose; every component is in VRNF and the instance
  //    reconstructs exactly.
  ASSERT_OK_AND_ASSIGN(VrnfResult result, VrnfDecompose(design));
  ASSERT_OK_AND_ASSIGN(bool vrnf_components,
                       AllComponentsVrnf(design, result));
  EXPECT_TRUE(vrnf_components);
  ASSERT_OK_AND_ASSIGN(bool lossless,
                       IsLosslessForInstance(instance,
                                             result.decomposition));
  EXPECT_TRUE(lossless);

  // 4. The projected instances are free of VALUE redundancy (VRNF's
  //    semantic guarantee, Theorem 15).
  ASSERT_OK_AND_ASSIGN(auto tables,
                       ProjectAll(instance, result.decomposition));
  for (size_t i = 0; i < tables.size(); ++i) {
    ConstraintSet component_sigma;
    for (const KeyConstraint& k : result.component_keys[i]) {
      // Translate global ids to local ones.
      AttributeSet local;
      for (AttributeId a : k.attrs) {
        auto id = tables[i].schema().FindAttribute(
            schema.attribute_name(a));
        ASSERT_OK(id.status());
        local.Add(*id);
      }
      component_sigma.AddKey(KeyConstraint::Certain(local));
      EXPECT_TRUE(Satisfies(tables[i], KeyConstraint::Certain(local)))
          << tables[i].ToString();
    }
    EXPECT_TRUE(IsValueRedundancyFreeInstance(tables[i], component_sigma))
        << tables[i].ToString();
  }

  // 5. DDL names every component; the Theorem-12 key c<oic> has the
  //    nullable catalog column, so it is emitted as a trigger note
  //    rather than a declarative PRIMARY KEY.
  std::string ddl = EmitDecompositionDdl(design, result);
  EXPECT_NE(ddl.find("CREATE TABLE"), std::string::npos);
  EXPECT_NE(ddl.find("trigger-based"), std::string::npos);
}

// CSV in → mining → normalization → DDL out (the schema-advisor flow).
TEST(IntegrationTest, CsvToAdvisedSchema) {
  const char* csv =
      "emp,dept,mgr,site\n"
      "e1,d1,m1,s1\n"
      "e2,d1,m1,s1\n"
      "e3,d2,m2,s1\n"
      "e4,d2,m2,NULL\n"
      "e5,d3,m3,s2\n";
  ASSERT_OK_AND_ASSIGN(Table t, ReadCsvString(csv));
  ASSERT_OK_AND_ASSIGN(DiscoveryResult mined, DiscoverConstraints(t));
  FdClassification cls = ClassifyDiscovered(t, mined);
  // dept ->w mgr should be discovered as a certain (indeed total) FD.
  ASSERT_OK_AND_ASSIGN(AttributeId dept,
                       t.schema().FindAttribute("dept"));
  ASSERT_OK_AND_ASSIGN(AttributeId mgr, t.schema().FindAttribute("mgr"));
  bool found = false;
  for (const auto& fd : cls.lambda_fds) {
    if (fd.lhs == AttributeSet::Single(dept) && fd.rhs.Contains(mgr)) {
      found = true;
    }
  }
  EXPECT_TRUE(found);

  // Feed the λ-FDs into Algorithm 3 over the inferred NFS.
  TableSchema schema = t.schema();
  ASSERT_OK(schema.SetNfs(mined.null_free_columns));
  ConstraintSet sigma;
  for (const auto& fd : cls.lambda_fds) sigma.AddUniqueFd(fd);
  SchemaDesign design{schema, sigma};
  ASSERT_OK_AND_ASSIGN(VrnfResult result, VrnfDecompose(design));
  EXPECT_GE(result.decomposition.components.size(), 2u);
  ASSERT_OK_AND_ASSIGN(bool lossless,
                       IsLosslessForInstance(t, result.decomposition));
  EXPECT_TRUE(lossless);
}

// Generate → mine → validate: mined constraints hold via the fast
// validators, and cover-reduction keeps the mined FD set equivalent.
TEST(IntegrationTest, GenerateMineValidate) {
  TableSpec spec;
  spec.num_columns = 6;
  spec.num_rows = 150;
  spec.fds = {{{0}, {1}}, {{2, 3}, {4}}};
  spec.null_rates.assign(6, 0.1);
  spec.duplicate_rate = 0.05;
  spec.seed = 321;
  ASSERT_OK_AND_ASSIGN(Table t, GenerateTable(spec));
  ASSERT_OK_AND_ASSIGN(DiscoveryResult mined, DiscoverConstraints(t));

  ConstraintSet sigma;
  for (const auto& fd : mined.c_fds) sigma.AddUniqueFd(fd);
  for (const auto& key : mined.c_keys) sigma.AddUniqueKey(key);
  EXPECT_TRUE(ValidateAll(t, sigma));

  TableSchema schema = t.schema();
  ASSERT_OK(schema.SetNfs(mined.null_free_columns));
  ConstraintSet reduced = ReducedCover(schema, sigma);
  EXPECT_TRUE(EquivalentSigmas(schema, sigma, reduced));
  EXPECT_TRUE(ValidateAll(t, reduced));
}

// Generated DDL executes on the bundled SQL engine: normalize, emit
// CREATE TABLE statements, run them, load the projected data through
// INSERTs, and watch the declared keys do their job.
TEST(IntegrationTest, DdlRoundTripsThroughSqlEngine) {
  WriterScope writer;
  TableSchema schema = Schema("oicp", "oip");
  SchemaDesign design{schema, Sigma(schema, "oic ->w oicp")};
  ASSERT_OK_AND_ASSIGN(VrnfResult vrnf, VrnfDecompose(design));
  std::string ddl = EmitDecompositionDdl(design, vrnf);

  Database db;
  SessionRegistry registry(&db);
  const ResultSet created = Session(&registry).Execute(ddl);
  ASSERT_OK(created.status) << ddl;
  // Both component tables exist.
  EXPECT_EQ(db.TableNames().size(), 2u);

  // Load the §6.2 instance's projections.
  Table instance = Rows(schema, {"1F_X", "1F_X", "3DKY", "3DKY"});
  ASSERT_OK_AND_ASSIGN(auto parts,
                       ProjectAll(instance, vrnf.decomposition));
  for (size_t i = 0; i < parts.size(); ++i) {
    const std::string& name = parts[i].schema().name();
    ASSERT_TRUE(db.HasTable(name)) << name;
    for (const Tuple& t : parts[i].rows()) {
      EXPECT_OK(db.Insert(name, t));
    }
  }
  // The multiset component kept its duplicates; the set component is
  // deduplicated (and its rows were accepted under the declared keys).
  ASSERT_OK_AND_ASSIGN(const StoredTable* rest,
                       db.Find(parts[0].schema().name()));
  ASSERT_OK_AND_ASSIGN(const StoredTable* set_part,
                       db.Find(parts[1].schema().name()));
  EXPECT_EQ(rest->num_rows(), 4);
  EXPECT_EQ(set_part->num_rows(), 2);
}

// The full LMRP contractor pipeline with validators instead of the
// reference checker (larger data).
TEST(IntegrationTest, ContractorValidatesAndDecomposes) {
  ASSERT_OK_AND_ASSIGN(Table contractor, Contractor());
  ASSERT_OK_AND_ASSIGN(ConstraintSet lambda,
                       ContractorLambdaFds(contractor.schema()));
  EXPECT_TRUE(ValidateAll(contractor, lambda));

  SchemaDesign design{contractor.schema(), lambda};
  ASSERT_OK_AND_ASSIGN(VrnfResult result, VrnfDecompose(design));
  ASSERT_OK_AND_ASSIGN(auto report,
                       ReportDecomposition(contractor,
                                           result.decomposition));
  EXPECT_LT(report.cells_after, report.cells_before);
  std::string ddl = EmitDecompositionDdl(design, result);
  EXPECT_NE(ddl.find("url"), std::string::npos);
}

}  // namespace
}  // namespace sqlnf

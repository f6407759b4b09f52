// Differential test harness: every validation path in the repo must
// agree with the literal Definition-1/2 oracle (reference_oracle.h) on
// hundreds of seeded-random tables.
//
// Paths crossed per (table, constraint):
//   * the oracle (all-pairs, similarity inlined),
//   * constraints/satisfies.h (the reference checker),
//   * the legacy tuple-hashing path (FindFdViolationTuple / ...KeyTuple),
//   * the columnar kernels on a full EncodedTable,
//   * the Table entry points (Find*Fast),
//   * ValidateConstraints over a whole Σ,
//   * the possible-world enumeration for keys on small tables.
//
// Verdicts must be identical everywhere. Witnesses are compared pair
// for pair: the encoded kernels, the Table entry points and every
// ValidateConstraints entry must return the reference checker's
// witness, the lexicographically smallest violating pair
// (engine/validate.h's witness rule). The reference witness and the
// tuple path's (which follows its hash map's iteration order) are
// re-checked against the oracle's similarity predicates. The random
// tables of the first sweeps have at most 120 rows; a separate sweep of
// 2,048–4,000-row tables checks the kernels and ValidateConstraints
// against the reference checker alone.
//
// SQLNF_DIFF_ITERS (integer ≥ 1, default 1) multiplies every sweep —
// the nightly CI job runs the suite with a larger multiplier.

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sqlnf/constraints/satisfies.h"
#include "sqlnf/core/encoded_table.h"
#include "sqlnf/core/simd_kernels.h"
#include "sqlnf/datagen/generator.h"
#include "sqlnf/decomposition/encoded_ops.h"
#include "sqlnf/decomposition/lossless.h"
#include "sqlnf/engine/catalog.h"
#include "sqlnf/engine/enforcer.h"
#include "sqlnf/engine/relops.h"
#include "sqlnf/engine/result.h"
#include "sqlnf/engine/session.h"
#include "sqlnf/engine/sql.h"
#include "sqlnf/engine/validate.h"
#include "sqlnf/reference/relops.h"
#include "sqlnf/reference/validate.h"
#include "sqlnf/util/json.h"
#include "sqlnf/util/rng.h"
#include "reference_oracle.h"
#include "test_util.h"

namespace sqlnf {
namespace {

using testing::Attrs;
using testing::OracleEqualOn;
using testing::OracleSatisfiesFd;
using testing::OracleSatisfiesKey;
using testing::OracleSatisfiesKeyByWorlds;
using testing::OracleStronglySimilar;
using testing::OracleWeaklySimilar;
using testing::RandomInstance;
using testing::RandomSchema;
using testing::RandomSubset;
using testing::SqlAtom;

int IterMultiplier() {
  const char* env = std::getenv("SQLNF_DIFF_ITERS");
  if (env == nullptr) return 1;
  const int v = std::atoi(env);
  return v >= 1 ? v : 1;
}

int ScaledIters(int base) { return base * IterMultiplier(); }

// Every SIMD dispatch level this machine can run, scalar (the
// differential oracle implementation) first.
std::vector<simd::Level> SweepLevels() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::DetectedLevel() >= simd::Level::kSimd128) {
    levels.push_back(simd::Level::kSimd128);
  }
  if (simd::DetectedLevel() >= simd::Level::kAvx2) {
    levels.push_back(simd::Level::kAvx2);
  }
  return levels;
}

// Unpins the dispatch level even when an ASSERT bails out of a sweep.
struct LevelSweepGuard {
  ~LevelSweepGuard() { simd::ClearLevelForTesting(); }
};

// The witness a path returned must itself be a violating pair under the
// oracle's definitions — verdict equality alone would let a path return
// "violated" with a bogus pair.
void ExpectGenuineFdWitness(const Table& table, const FunctionalDependency& fd,
                            const Violation& v, const std::string& context) {
  ASSERT_GE(v.row1, 0) << context;
  ASSERT_LT(v.row1, table.num_rows()) << context;
  ASSERT_GE(v.row2, 0) << context;
  ASSERT_LT(v.row2, table.num_rows()) << context;
  const Tuple& t = table.row(v.row1);
  const Tuple& u = table.row(v.row2);
  const bool similar = fd.is_possible() ? OracleStronglySimilar(t, u, fd.lhs)
                                        : OracleWeaklySimilar(t, u, fd.lhs);
  EXPECT_TRUE(similar && !OracleEqualOn(t, u, fd.rhs))
      << context << ": reported pair (" << v.row1 << "," << v.row2
      << ") is not a violation of " << fd.ToString(table.schema());
}

void ExpectGenuineKeyWitness(const Table& table, const KeyConstraint& key,
                             const Violation& v, const std::string& context) {
  ASSERT_GE(v.row1, 0) << context;
  ASSERT_LT(v.row1, table.num_rows()) << context;
  ASSERT_GE(v.row2, 0) << context;
  ASSERT_LT(v.row2, table.num_rows()) << context;
  ASSERT_NE(v.row1, v.row2) << context;
  const Tuple& t = table.row(v.row1);
  const Tuple& u = table.row(v.row2);
  EXPECT_TRUE(key.is_possible() ? OracleStronglySimilar(t, u, key.attrs)
                                : OracleWeaklySimilar(t, u, key.attrs))
      << context << ": reported pair (" << v.row1 << "," << v.row2
      << ") is not a violation of " << key.ToString(table.schema());
}

// A path's witness must be the reference checker's pair exactly.
void ExpectReferenceWitness(const std::optional<Violation>& reference,
                            const std::optional<Violation>& got,
                            const std::string& context) {
  ASSERT_EQ(got.has_value(), reference.has_value()) << context;
  if (!reference) return;
  EXPECT_EQ(std::make_pair(got->row1, got->row2),
            std::make_pair(reference->row1, reference->row2))
      << context << ": witness differs from satisfies.h's";
}

// The encoded kernel and Find*Fast against the reference witness.
void CheckFdWitnesses(const Table& table, const EncodedTable& enc,
                      const FunctionalDependency& fd,
                      const std::optional<Violation>& reference,
                      const std::string& what) {
  ExpectReferenceWitness(reference, FindFdViolationEncoded(enc, fd),
                         what + " [encoded]");
  ExpectReferenceWitness(reference, FindFdViolationFast(table, fd),
                         what + " [fast]");
}

void CheckKeyWitnesses(const Table& table, const EncodedTable& enc,
                       const KeyConstraint& key,
                       const std::optional<Violation>& reference,
                       const std::string& what) {
  ExpectReferenceWitness(reference, FindKeyViolationEncoded(enc, key),
                         what + " [encoded]");
  ExpectReferenceWitness(reference, FindKeyViolationFast(table, key),
                         what + " [fast]");
}

void CheckFdAllPaths(const Table& table, const EncodedTable& enc,
                     const FunctionalDependency& fd,
                     const std::string& context) {
  const bool expect = OracleSatisfiesFd(table, fd);
  const std::string what = context + " fd=" + fd.ToString(table.schema());

  const std::optional<Violation> reference = FindFdViolation(table, fd);
  EXPECT_EQ(!reference.has_value(), expect) << what << " [satisfies.h]";
  if (reference) {
    ExpectGenuineFdWitness(table, fd, *reference, what + " [satisfies.h]");
  }

  auto tuple = FindFdViolationTuple(table, fd);
  EXPECT_EQ(!tuple.has_value(), expect) << what << " [tuple]";
  if (tuple) ExpectGenuineFdWitness(table, fd, *tuple, what + " [tuple]");

  CheckFdWitnesses(table, enc, fd, reference, what);
}

void CheckKeyAllPaths(const Table& table, const EncodedTable& enc,
                      const KeyConstraint& key, const std::string& context) {
  const bool expect = OracleSatisfiesKey(table, key);
  const std::string what = context + " key=" + key.ToString(table.schema());

  const std::optional<Violation> reference = FindKeyViolation(table, key);
  EXPECT_EQ(!reference.has_value(), expect) << what << " [satisfies.h]";
  if (reference) {
    ExpectGenuineKeyWitness(table, key, *reference, what + " [satisfies.h]");
  }

  auto tuple = FindKeyViolationTuple(table, key);
  EXPECT_EQ(!tuple.has_value(), expect) << what << " [tuple]";
  if (tuple) ExpectGenuineKeyWitness(table, key, *tuple, what + " [tuple]");

  CheckKeyWitnesses(table, enc, key, reference, what);
}

// All four constraint classes (p-/c-FD, p-/c-key) over random column
// subsets of one table, through every path.
void CheckTableAllClasses(const Table& table, Rng* rng,
                          const std::string& context,
                          int constraints_per_class = 3) {
  const int n = table.schema().num_attributes();
  const EncodedTable enc(table);
  for (int i = 0; i < constraints_per_class; ++i) {
    FunctionalDependency fd;
    fd.lhs = RandomSubset(rng, n);
    fd.rhs = RandomSubset(rng, n);
    if (fd.rhs.empty()) {
      fd.rhs = AttributeSet::Single(static_cast<AttributeId>(rng->Index(n)));
    }
    for (Mode mode : {Mode::kPossible, Mode::kCertain}) {
      fd.mode = mode;
      CheckFdAllPaths(table, enc, fd, context);
    }
    KeyConstraint key;
    key.attrs = RandomSubset(rng, n, 0.5);
    if (key.attrs.empty()) {
      key.attrs =
          AttributeSet::Single(static_cast<AttributeId>(rng->Index(n)));
    }
    for (Mode mode : {Mode::kPossible, Mode::kCertain}) {
      key.mode = mode;
      CheckKeyAllPaths(table, enc, key, context);
    }
  }
}

// --- Sweep 1: hand-rolled random instances with random NOT NULL sets.
// RandomInstance draws from a 3-value domain, so agreements, weak
// similarity through ⊥, and genuine violations all occur frequently.
TEST(DifferentialTest, RandomInstancesAllPaths) {
  Rng rng(20260806);
  const int tables = ScaledIters(120);
  for (int iter = 0; iter < tables; ++iter) {
    const int cols = static_cast<int>(rng.Uniform(2, 6));
    const TableSchema schema = RandomSchema(&rng, cols);
    const int rows = static_cast<int>(rng.Uniform(1, 60));
    const double null_rate = rng.NextDouble() * 0.5;
    const Table table = RandomInstance(&rng, schema, rows, /*domain=*/3,
                                       null_rate);
    CheckTableAllClasses(table, &rng,
                         "random iter=" + std::to_string(iter));
  }
}

// --- Sweep 2: datagen/generator tables — planted FDs, duplicate rows,
// dirty perturbations, per-column null rates. Exercises the string-typed
// value path and realistic (FD-respecting) data shapes.
TEST(DifferentialTest, GeneratorTablesAllPaths) {
  Rng rng(777);
  const int tables = ScaledIters(80);
  for (int iter = 0; iter < tables; ++iter) {
    TableSpec spec;
    spec.num_columns = static_cast<int>(rng.Uniform(3, 7));
    spec.num_rows = static_cast<int>(rng.Uniform(10, 120));
    spec.seed = 1000 + static_cast<uint64_t>(iter);
    for (int c = 0; c < spec.num_columns; ++c) {
      spec.domain_sizes.push_back(static_cast<int>(rng.Uniform(2, 8)));
      spec.null_rates.push_back(rng.Chance(0.5) ? rng.NextDouble() * 0.4
                                                : 0.0);
    }
    if (rng.Chance(0.7) && spec.num_columns >= 2) {
      PlantedFd fd;
      fd.lhs.push_back(static_cast<int>(rng.Index(spec.num_columns)));
      int rhs = static_cast<int>(rng.Index(spec.num_columns));
      if (rhs == fd.lhs[0]) rhs = (rhs + 1) % spec.num_columns;
      fd.rhs.push_back(rhs);
      spec.fds.push_back(fd);
    }
    spec.duplicate_rate = rng.Chance(0.5) ? rng.NextDouble() * 0.3 : 0.0;
    spec.dirty_rate = rng.Chance(0.5) ? rng.NextDouble() * 0.2 : 0.0;

    auto table = GenerateTable(spec);
    ASSERT_OK(table.status());
    CheckTableAllClasses(table.value(), &rng,
                         "generated iter=" + std::to_string(iter));
  }
}

// --- Sweep 3: whole-Σ validation. ValidateAll / ValidateAllEncoded
// must agree with SatisfiesAll (which includes the schema NFS).
TEST(DifferentialTest, WholeSigmaValidation) {
  Rng rng(4242);
  const int tables = ScaledIters(60);
  for (int iter = 0; iter < tables; ++iter) {
    const int cols = static_cast<int>(rng.Uniform(2, 6));
    const TableSchema schema = RandomSchema(&rng, cols);
    const Table table =
        RandomInstance(&rng, schema, static_cast<int>(rng.Uniform(0, 40)),
                       /*domain=*/3, rng.NextDouble() * 0.4);
    const ConstraintSet sigma = testing::RandomSigma(
        &rng, cols, /*fds=*/static_cast<int>(rng.Uniform(0, 3)),
        /*keys=*/static_cast<int>(rng.Uniform(0, 2)));

    bool expect = true;
    for (AttributeId a : schema.nfs()) {
      for (int r = 0; r < table.num_rows(); ++r) {
        if (table.row(r)[a].is_null()) expect = false;
      }
    }
    for (const auto& fd : sigma.fds()) {
      if (!OracleSatisfiesFd(table, fd)) expect = false;
    }
    for (const auto& key : sigma.keys()) {
      if (!OracleSatisfiesKey(table, key)) expect = false;
    }

    EXPECT_EQ(SatisfiesAll(table, sigma), expect) << "iter=" << iter;
    const EncodedTable enc(table);
    EXPECT_EQ(ValidateAll(table, sigma), expect) << "iter=" << iter;
    EXPECT_EQ(ValidateAllEncoded(enc, schema.nfs(), sigma), expect)
        << "iter=" << iter;
  }
}

// --- Sweep 4: the possible-world semantics itself. On small tables the
// key definitions must coincide with their world characterization:
// p⟨X⟩ ⟺ some completion duplicate-free on X, c⟨X⟩ ⟺ every one.
TEST(DifferentialTest, KeyWorldSemanticsOnSmallTables) {
  Rng rng(9001);
  const int tables = ScaledIters(40);
  int enumerated = 0;
  for (int iter = 0; iter < tables; ++iter) {
    const int cols = static_cast<int>(rng.Uniform(2, 4));
    const TableSchema schema = RandomSchema(&rng, cols);
    const Table table =
        RandomInstance(&rng, schema, static_cast<int>(rng.Uniform(1, 5)),
                       /*domain=*/2, 0.4);
    const EncodedTable enc(table);
    KeyConstraint key;
    key.attrs = RandomSubset(&rng, cols, 0.6);
    if (key.attrs.empty()) {
      key.attrs =
          AttributeSet::Single(static_cast<AttributeId>(rng.Index(cols)));
    }
    for (Mode mode : {Mode::kPossible, Mode::kCertain}) {
      key.mode = mode;
      WorldLimits limits;
      limits.max_worlds = 50'000;
      auto worlds = OracleSatisfiesKeyByWorlds(table, key, limits);
      if (!worlds.ok()) continue;  // enumeration too large for this draw
      ++enumerated;
      const bool expect = worlds.value();
      EXPECT_EQ(OracleSatisfiesKey(table, key), expect)
          << "iter=" << iter << " key=" << key.ToString(schema);
      EXPECT_EQ(!FindKeyViolationEncoded(enc, key).has_value(), expect)
          << "iter=" << iter << " key=" << key.ToString(schema);
    }
  }
  // The sweep must actually exercise the enumeration, not skip it all.
  EXPECT_GE(enumerated, tables / 2);
}

// --- Pinned regressions: hand-written corners every path must agree on.
TEST(DifferentialTest, PinnedCorners) {
  using testing::Fd;
  using testing::Key;
  using testing::Rows;
  using testing::Schema;

  struct Case {
    const char* schema;
    std::vector<std::string> rows;
  };
  const std::vector<Case> cases = {
      {"ab", {}},                              // empty instance
      {"ab", {"1x"}},                          // single row
      {"ab", {"1x", "1x"}},                    // exact duplicates
      {"ab", {"1x", "1y"}},                    // FD violation, total
      {"ab", {"_x", "_y"}},                    // all-⊥ LHS
      {"ab", {"1x", "_y"}},                    // ⊥ meets value
      {"abc", {"1_x", "_2x", "12y"}},          // transitive weak links
      {"abc", {"11a", "11a", "1_b", "_1c"}},   // duplicates + nulls
      {"ab", {"__", "__"}},                    // fully null rows
  };
  Rng rng(5);
  int idx = 0;
  for (const Case& c : cases) {
    const TableSchema schema = Schema(c.schema);
    const Table table = Rows(schema, c.rows);
    const EncodedTable enc(table);
    const int n = schema.num_attributes();
    // Exhaustive over all non-empty attr subsets in both modes.
    for (uint64_t bits = 1; bits < (1ull << n); ++bits) {
      AttributeSet x;
      for (int a = 0; a < n; ++a) {
        if (bits & (1ull << a)) x.Add(a);
      }
      for (Mode mode : {Mode::kPossible, Mode::kCertain}) {
        KeyConstraint key;
        key.attrs = x;
        key.mode = mode;
        CheckKeyAllPaths(table, enc, key, "pinned case " +
                                              std::to_string(idx));
        FunctionalDependency fd;
        fd.lhs = x;
        fd.rhs = AttributeSet::Single(
            static_cast<AttributeId>(rng.Index(n)));
        fd.mode = mode;
        CheckFdAllPaths(table, enc, fd, "pinned case " +
                                            std::to_string(idx));
      }
    }
    ++idx;
  }
}

// Like RandomInstance, but each column draws from its own domain: 3 or
// 40 values, or rows²/4, where one column alone holds about two equal
// pairs, so the smallest violating pair can sit anywhere in the table.
Table MixedDomainInstance(Rng* rng, const TableSchema& schema, int rows,
                          double null_rate) {
  std::vector<int64_t> domains;
  for (AttributeId a = 0; a < schema.num_attributes(); ++a) {
    domains.push_back(
        std::vector<int64_t>{3, 40, int64_t{rows} * rows / 4}[rng->Index(3)]);
  }
  Table table(schema);
  for (int r = 0; r < rows; ++r) {
    std::vector<Value> values;
    for (AttributeId a = 0; a < schema.num_attributes(); ++a) {
      if (!schema.nfs().Contains(a) && rng->Chance(null_rate)) {
        values.push_back(Value::Null());
      } else {
        values.push_back(Value::Int(rng->Uniform(0, domains[a] - 1)));
      }
    }
    const Status st = table.AddRow(Tuple(std::move(values)));
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  return table;
}

// --- Sweep 5: tables of 2,048–4,000 rows. Each table's drawn
// constraints also form one Σ, and every ValidateConstraints report
// entry, in Σ order, must be the reference witness. Every nullable
// column holds ⊥, so certain constraints group on part of their LHS and
// compare the rest weakly. The O(n²) oracle and the tuple path stay
// with the smaller sweeps; the reference checker stops at its witness,
// so only satisfied constraints cost it a full pair scan.
TEST(DifferentialTest, LargeTablesWitnesses) {
  Rng rng(20261017);
  const int tables = ScaledIters(12);
  int satisfied = 0, weak_rest = 0, deep = 0;
  for (int iter = 0; iter < tables; ++iter) {
    const int cols = static_cast<int>(rng.Uniform(2, 5));
    const TableSchema schema = RandomSchema(&rng, cols);
    const int rows = static_cast<int>(rng.Uniform(2048, 4000));
    const Table table = MixedDomainInstance(&rng, schema, rows,
                                            0.02 + rng.NextDouble() * 0.2);
    const EncodedTable enc(table);
    const std::string context =
        "large iter=" + std::to_string(iter) + " rows=" + std::to_string(rows);
    ConstraintSet sigma;
    std::vector<std::optional<Violation>> fd_refs, key_refs;
    for (Mode mode : {Mode::kPossible, Mode::kCertain}) {
      FunctionalDependency fd;
      fd.rhs = AttributeSet::Single(static_cast<AttributeId>(rng.Index(cols)));
      fd.lhs = RandomSubset(&rng, cols, 0.5).Difference(fd.rhs);
      fd.mode = mode;
      const std::optional<Violation> fd_ref = FindFdViolation(table, fd);
      CheckFdWitnesses(table, enc, fd, fd_ref,
                       context + " fd=" + fd.ToString(schema));

      KeyConstraint key;
      key.attrs = RandomSubset(&rng, cols, 0.5);
      if (key.attrs.empty()) {
        key.attrs =
            AttributeSet::Single(static_cast<AttributeId>(rng.Index(cols)));
      }
      key.mode = mode;
      const std::optional<Violation> key_ref = FindKeyViolation(table, key);
      CheckKeyWitnesses(table, enc, key, key_ref,
                        context + " key=" + key.ToString(schema));

      sigma.AddFd(fd);
      fd_refs.push_back(fd_ref);
      sigma.AddKey(key);
      key_refs.push_back(key_ref);
      for (const std::optional<Violation>& ref : {fd_ref, key_ref}) {
        satisfied += !ref.has_value();
        deep += ref.has_value() && ref->row1 >= rows / 8;
      }
      if (mode == Mode::kCertain) {
        weak_rest += !fd.lhs.IsSubsetOf(enc.NullFreeColumns()) +
                     !key.attrs.IsSubsetOf(enc.NullFreeColumns());
      }
    }

    // The report lists FDs, then keys, each in draw order.
    std::vector<std::optional<Violation>> refs = fd_refs;
    refs.insert(refs.end(), key_refs.begin(), key_refs.end());
    std::vector<std::string> texts;
    for (const auto& fd : sigma.fds()) texts.push_back(fd.ToString(schema));
    for (const auto& key : sigma.keys()) texts.push_back(key.ToString(schema));
    const ValidationReport report = ValidateConstraints(schema, enc, sigma, 1);
    const std::string tag = context + " [ValidateConstraints]";
    ASSERT_EQ(report.checks.size(), refs.size()) << tag;
    int violated = 0;
    for (size_t i = 0; i < refs.size(); ++i) {
      const ConstraintCheck& check = report.checks[i];
      EXPECT_EQ(check.text, texts[i]) << tag;
      std::optional<Violation> got;
      if (check.violated) {
        got = Violation{check.row1, check.row2, std::nullopt, std::nullopt};
      }
      ExpectReferenceWitness(refs[i], got, tag + " " + texts[i]);
      violated += check.violated;
    }
    EXPECT_EQ(report.violated, violated) << tag;
  }
  // The draws must reach satisfied constraints, certain ones with ⊥ in
  // the LHS, and witnesses past the first eighth of the table.
  EXPECT_GT(satisfied, 0);
  EXPECT_GT(weak_rest, 0);
  EXPECT_GT(deep, 0);
}

// ===================== Columnar executor section =====================
//
// The encoded operators (decomposition/encoded_ops.h, the encoded DML
// of engine/relops.h, and the Database columnar paths) must produce
// multiset-identical results to their row-major reference counterparts
// on the same instance. Theorem-11 lossless verdicts must agree
// between the two executors.

// Decoded result of an encoded operator vs its row-major reference:
// multiset-equal under Table semantics AND code-level multiset-equal
// after re-encoding the reference (so SameMultisetEncoded's dictionary
// translation is crossed against Table::SameMultiset on every draw).
void ExpectSameRelation(const Table& ref, const EncodedRelation& got,
                        const std::string& what) {
  const Table decoded = got.ToTable();
  EXPECT_EQ(ref.num_rows(), decoded.num_rows()) << what;
  EXPECT_TRUE(ref.SameMultiset(decoded)) << what;
  EXPECT_TRUE(SameMultisetEncoded(EncodedTable(ref), got.columns)) << what;
}

// Bit-identity between two runs of the same encoded operator: same
// schema, same row count, and code-for-code equal column vectors — the
// dispatch-level contract of the join (multiset equality would let a
// level-dependent row order slip through).
void ExpectBitIdentical(const EncodedRelation& want,
                        const EncodedRelation& got, const std::string& what) {
  ASSERT_EQ(want.schema.num_attributes(), got.schema.num_attributes())
      << what;
  for (AttributeId a = 0; a < want.schema.num_attributes(); ++a) {
    EXPECT_EQ(want.schema.attribute_name(a), got.schema.attribute_name(a))
        << what;
  }
  ASSERT_EQ(want.columns.num_rows(), got.columns.num_rows()) << what;
  for (AttributeId a = 0; a < want.schema.num_attributes(); ++a) {
    EXPECT_EQ(want.columns.column(a), got.columns.column(a))
        << what << " col " << a;
  }
}

// Random WHERE clause over `table`: a conjunction of 1–2 column = value
// atoms, values mostly drawn from stored rows (hits), sometimes ⊥
// (matches exactly the ⊥ cells) or a constant no dictionary has seen
// (matches nothing).
Predicate RandomEqualities(Rng* rng, const Table& table) {
  Conjunction conj;
  const int k = 1 + static_cast<int>(rng->Index(2));
  for (int i = 0; i < k; ++i) {
    const AttributeId col =
        static_cast<AttributeId>(rng->Index(table.num_columns()));
    Value v;
    if (table.num_rows() > 0 && rng->Chance(0.7)) {
      v = table.row(static_cast<int>(rng->Index(table.num_rows())))[col];
    } else if (rng->Chance(0.4)) {
      v = Value::Null();
    } else {
      v = Value::Str("never-stored");
    }
    conj.push_back(Cmp(col, CompareOp::kEq, std::move(v)));
  }
  return Predicate::And(std::move(conj));
}

// --- Executor sweep 1: projections, joins, and the Theorem-11 lossless
// round trip, encoded vs row-major, on ~100 seeded random tables.
TEST(DifferentialTest, ExecutorProjectionsAndJoins) {
  Rng rng(20260807);
  const int tables = ScaledIters(100);
  for (int iter = 0; iter < tables; ++iter) {
    const int cols = static_cast<int>(rng.Uniform(2, 6));
    const TableSchema schema = RandomSchema(&rng, cols);
    const Table table =
        RandomInstance(&rng, schema, static_cast<int>(rng.Uniform(0, 60)),
                       /*domain=*/3, rng.NextDouble() * 0.5);
    const EncodedTable enc(table);
    const std::string what = "executor iter=" + std::to_string(iter);

    // Projections I[X] and I[[X]] on a random non-empty X.
    AttributeSet x = RandomSubset(&rng, cols);
    if (x.empty()) {
      x = AttributeSet::Single(static_cast<AttributeId>(rng.Index(cols)));
    }
    auto set_ref = ProjectSet(table, x, "p");
    auto set_enc = ProjectSetEncoded(schema, enc, x, "p");
    ASSERT_OK(set_ref.status()) << what;
    ASSERT_OK(set_enc.status()) << what;
    ExpectSameRelation(set_ref.value(), set_enc.value(), what + " [set]");

    auto multi_ref = ProjectMultiset(table, x, "m");
    auto multi_enc = ProjectMultisetEncoded(schema, enc, x, "m");
    ASSERT_OK(multi_ref.status()) << what;
    ASSERT_OK(multi_enc.status()) << what;
    ExpectSameRelation(multi_ref.value(), multi_enc.value(),
                       what + " [multiset]");

    // Theorem 11 decomposition by a random FD: the encoded join of the
    // encoded projections must reproduce the row-major join, and the
    // lossless-for-instance verdicts must agree.
    // LHS must be non-empty: an empty X with XY = T makes the first
    // component X(T−XY) empty, which both executors reject.
    FunctionalDependency fd;
    fd.lhs = RandomSubset(&rng, cols);
    fd.rhs = RandomSubset(&rng, cols);
    if (fd.lhs.empty()) {
      fd.lhs = AttributeSet::Single(static_cast<AttributeId>(rng.Index(cols)));
    }
    if (fd.rhs.empty()) {
      fd.rhs = AttributeSet::Single(static_cast<AttributeId>(rng.Index(cols)));
    }
    const Decomposition d = DecomposeByFd(schema, fd);
    auto join_ref = JoinComponents(table, d);
    ASSERT_OK(join_ref.status()) << what;
    auto lossless_ref = IsLosslessForInstance(table, d);
    ASSERT_OK(lossless_ref.status()) << what;
    auto join_enc = JoinComponentsEncoded(schema, enc, d);
    ASSERT_OK(join_enc.status()) << what;
    // Align the join's component-ordered columns with the reference.
    std::vector<AttributeId> mapping;
    for (AttributeId a = 0; a < join_ref.value().num_columns(); ++a) {
      auto j = join_enc.value().schema.FindAttribute(
          join_ref.value().schema().attribute_name(a));
      ASSERT_OK(j.status()) << what;
      mapping.push_back(j.value());
    }
    const EncodedRelation aligned{
        join_ref.value().schema(),
        join_enc.value().columns.GatherColumns(mapping)};
    ExpectSameRelation(join_ref.value(), aligned, what + " [join]");

    auto lossless_enc = IsLosslessForInstanceEncoded(schema, enc, d);
    ASSERT_OK(lossless_enc.status()) << what;
    EXPECT_EQ(lossless_enc.value(), lossless_ref.value()) << what;
    // Theorem 11 itself: when the instance satisfies the c-FD, the
    // decomposition must be lossless for it.
    fd.mode = Mode::kCertain;
    if (Satisfies(table, fd)) {
      EXPECT_TRUE(lossless_ref.value()) << what << " [thm11]";
    }
  }
}

// --- Executor join corners: adversarial shapes for the join's count
// and fill loops — a single-hot-key skew table (one bucket holds every
// build row), hot-key left inputs around the 512-row hashing tile, a
// zero-match join (the count loop totals 0), empty inputs on either
// side, and a join with no common columns (the cartesian path). Each
// is crossed against the row-major join — including the exact emitted
// row ORDER, which both executors pin to left-major / right-ascending
// — and every dispatch level must reproduce the scalar run bit for
// bit.

Table MakeJoinInput(const std::string& name,
                    const std::vector<std::string>& attrs,
                    const std::vector<std::vector<Value>>& rows) {
  auto schema = TableSchema::Make(name, attrs, {});
  EXPECT_TRUE(schema.ok()) << schema.status().ToString();
  Table t(std::move(schema).value());
  for (const std::vector<Value>& r : rows) {
    auto st = t.AddRow(Tuple(r));
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  return t;
}

void CheckJoinCorner(const Table& left, const Table& right,
                     const std::string& what) {
  auto ref = EqualityJoin(left, right, "j");
  ASSERT_OK(ref.status()) << what;
  const EncodedRelation el = EncodedRelation::FromTable(left);
  const EncodedRelation er = EncodedRelation::FromTable(right);
  // The scalar run anchors the sweep: every level must reproduce it bit
  // for bit (the hash/probe/emit kernels are bit-identical across
  // dispatch levels by contract).
  std::optional<EncodedRelation> scalar;
  LevelSweepGuard guard;
  for (const simd::Level level : SweepLevels()) {
    simd::SetLevelForTesting(level);
    const std::string tag = what + " level " + simd::LevelName(level);
    auto got = EqualityJoinEncoded(el.schema, el.columns, er.schema,
                                   er.columns, "j");
    ASSERT_OK(got.status()) << tag;
    if (!scalar.has_value()) {
      ExpectSameRelation(ref.value(), got.value(), what + " [scalar]");
      const Table decoded = got.value().ToTable();
      ASSERT_EQ(ref.value().num_rows(), decoded.num_rows()) << what;
      for (int i = 0; i < decoded.num_rows(); ++i) {
        ASSERT_EQ(ref.value().row(i), decoded.row(i))
            << what << " row " << i;
      }
      scalar = std::move(got).value();
    } else {
      ExpectBitIdentical(*scalar, got.value(), tag);
    }
  }
}

TEST(DifferentialTest, ExecutorJoinCorners) {
  // Skew: every left and right row carries the same key, so the CSR
  // index degenerates to one full bucket and each left row emits the
  // right rows of its key. A sprinkle of ⊥ keys exercises kNullCode
  // equality.
  {
    std::vector<std::vector<Value>> lrows, rrows;
    for (int i = 0; i < 400; ++i) {
      const Value k = i % 11 == 0 ? Value::Null() : Value::Str("hot");
      lrows.push_back({k, Value::Int(i % 7)});
    }
    for (int j = 0; j < 23; ++j) {
      const Value k = j % 5 == 0 ? Value::Null() : Value::Str("hot");
      rrows.push_back({k, Value::Int(j)});
    }
    CheckJoinCorner(MakeJoinInput("L", {"k", "l"}, lrows),
                    MakeJoinInput("R", {"k", "r"}, rrows), "skew");
  }

  // Hot-key left inputs one row short of, at, one row past and one row
  // past two 512-row hashing tiles: both loops hash the left rows a
  // tile at a time, so a row lost or repeated at a tile seam shows in
  // the row order.
  for (int left : {511, 512, 513, 1025}) {
    std::vector<std::vector<Value>> lrows, rrows;
    for (int i = 0; i < left; ++i) {
      lrows.push_back({Value::Str("hot"), Value::Int(i)});
    }
    for (int j = 0; j < 3; ++j) {
      rrows.push_back({Value::Str("hot"), Value::Int(j)});
    }
    CheckJoinCorner(MakeJoinInput("L", {"k", "l"}, lrows),
                    MakeJoinInput("R", {"k", "r"}, rrows),
                    "hot key, " + std::to_string(left) + " left rows");
  }

  // Zero matches: shared column, disjoint key sets — the count pass
  // totals zero and the output must be an empty 3-column relation.
  {
    std::vector<std::vector<Value>> lrows, rrows;
    for (int i = 0; i < 50; ++i) {
      lrows.push_back({Value::Int(i), Value::Str("l")});
      rrows.push_back({Value::Int(1000 + i), Value::Str("r")});
    }
    CheckJoinCorner(MakeJoinInput("L", {"k", "l"}, lrows),
                    MakeJoinInput("R", {"k", "r"}, rrows), "zero-match");
  }

  // Empty inputs on either side (and both).
  {
    std::vector<std::vector<Value>> rows;
    for (int i = 0; i < 20; ++i) {
      rows.push_back({Value::Int(i % 4), Value::Int(i)});
    }
    const Table empty_l = MakeJoinInput("L", {"k", "l"}, {});
    const Table empty_r = MakeJoinInput("R", {"k", "r"}, {});
    CheckJoinCorner(empty_l, MakeJoinInput("R", {"k", "r"}, rows),
                    "empty-left");
    CheckJoinCorner(MakeJoinInput("L", {"k", "l"}, rows), empty_r,
                    "empty-right");
    CheckJoinCorner(empty_l, empty_r, "empty-both");
  }

  // No common columns: the cartesian path. Before the special case this
  // hashed every row to the same FNV offset basis — one giant bucket.
  {
    std::vector<std::vector<Value>> lrows, rrows;
    for (int i = 0; i < 37; ++i) {
      lrows.push_back({Value::Int(i), i % 6 == 0 ? Value::Null()
                                                 : Value::Str("x")});
    }
    for (int j = 0; j < 29; ++j) {
      rrows.push_back({Value::Str("y" + std::to_string(j % 3))});
    }
    CheckJoinCorner(MakeJoinInput("L", {"a", "b"}, lrows),
                    MakeJoinInput("R", {"c"}, rrows), "cartesian");
    CheckJoinCorner(MakeJoinInput("L", {"a", "b"}, lrows),
                    MakeJoinInput("R", {"c"}, {}), "cartesian-empty-right");
  }
}

// --- The join's row bound. Two one-column 46,341-row tables with
// different column names join as a cartesian product of 46,341² =
// 2,147,488,281 rows, just past the 2^31 − 1 = 2,147,483,647 that an
// int row id can address. The join must refuse it from the row counts
// before it allocates the 2 × 8 GiB of output codes.
TEST(DifferentialTest, ExecutorJoinRefusesResultsPast2To31Rows) {
  constexpr int kRows = 46341;
  std::vector<std::vector<Value>> lrows, rrows;
  for (int i = 0; i < kRows; ++i) {
    lrows.push_back({Value::Int(i)});
    rrows.push_back({Value::Int(i)});
  }
  const EncodedRelation left =
      EncodedRelation::FromTable(MakeJoinInput("L", {"a"}, lrows));
  const EncodedRelation right =
      EncodedRelation::FromTable(MakeJoinInput("R", {"b"}, rrows));
  auto got = EqualityJoinEncoded(left.schema, left.columns, right.schema,
                                 right.columns, "j");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(got.status().message(), "join result exceeds 2^31 rows");
}

// --- Executor sweep 2: DML on codes vs DML on rows. SelectRowsEncoded
// and the catalog's UPDATE / DELETE (Database::Update/Delete, with an
// empty Σ) against the row-major reference operators, which evaluate
// the same WHERE through the MatchesPredicate oracle.
TEST(DifferentialTest, ExecutorDmlOnCodes) {
  WriterScope writer;
  Rng rng(31337);
  const int tables = ScaledIters(100);
  for (int iter = 0; iter < tables; ++iter) {
    const int cols = static_cast<int>(rng.Uniform(2, 6));
    const TableSchema schema = RandomSchema(&rng, cols);
    const Table table =
        RandomInstance(&rng, schema, static_cast<int>(rng.Uniform(0, 50)),
                       /*domain=*/3, rng.NextDouble() * 0.5);
    const std::string what = "dml iter=" + std::to_string(iter);
    const Predicate where = RandomEqualities(&rng, table);
    auto pred = [&](const Tuple& t) { return MatchesPredicate(t, where); };

    // Selection: same rows, in the same (ascending) scan order, at
    // every dispatch level.
    const EncodedTable enc(table);
    const Table sel_ref = SelectWhere(table, pred);
    const std::vector<int> sel = SelectRowsEncoded(enc, where);
    const Table sel_enc = enc.GatherRows(sel).Decode(schema);
    EXPECT_EQ(sel_ref.num_rows(), sel_enc.num_rows()) << what;
    for (int i = 0; i < sel_ref.num_rows() && i < sel_enc.num_rows(); ++i) {
      EXPECT_EQ(sel_ref.row(i), sel_enc.row(i)) << what << " row " << i;
    }
    {
      LevelSweepGuard guard;
      for (const simd::Level level : SweepLevels()) {
        simd::SetLevelForTesting(level);
        EXPECT_EQ(SelectRowsEncoded(enc, where), sel)
            << what << " level " << simd::LevelName(level);
      }
    }

    // Update: a fresh non-⊥ value into a random column (the reference
    // path refuses ⊥ in a NOT NULL column even when no row matches,
    // while the catalog checks only the rows it changes).
    const AttributeId target =
        static_cast<AttributeId>(rng.Index(cols));
    const Value new_value =
        rng.Chance(0.5)
            ? Value::Str("updated-" + std::to_string(iter))
            : (table.num_rows() > 0
                   ? table.row(static_cast<int>(
                         rng.Index(table.num_rows())))[target]
                   : Value::Str("updated"));
    if (!new_value.is_null()) {
      Table upd_ref = table;
      Database upd_db;
      ASSERT_OK(upd_db.IngestTable(table, ConstraintSet{})) << what;
      auto changed_ref = UpdateWhere(&upd_ref, pred, target, new_value);
      ASSERT_OK(changed_ref.status()) << what;
      auto changed =
          upd_db.Update(schema.name(), where, target, new_value);
      ASSERT_OK(changed.status()) << what;
      EXPECT_EQ(changed_ref.value(), changed.value()) << what;
      ASSERT_OK_AND_ASSIGN(const StoredTable* stored,
                           upd_db.Find(schema.name()));
      EXPECT_TRUE(upd_ref.SameMultiset(stored->Materialize())) << what;
    }

    // Delete: same removed count, identical survivors.
    Table del_ref = table;
    Database del_db;
    ASSERT_OK(del_db.IngestTable(table, ConstraintSet{})) << what;
    const int removed_ref = DeleteWhere(&del_ref, pred);
    auto removed = del_db.Delete(schema.name(), where);
    ASSERT_OK(removed.status()) << what;
    EXPECT_EQ(removed_ref, removed.value()) << what;
    ASSERT_OK_AND_ASSIGN(const StoredTable* stored,
                         del_db.Find(schema.name()));
    EXPECT_TRUE(del_ref.SameMultiset(stored->Materialize())) << what;
  }
}

// --- Executor sweep 2b: key-pinned writes. Database::Update and Delete
// read the rows of a WHERE that pins a constraint index's key off that
// index (IncrementalEnforcer::SelectPinned) instead of scanning. On
// random tables under random Σ — stable sets full (possible
// constraints, certain ones on NOT NULL columns), partial and empty —
// whose chains left row order through in-place re-adds and erasures,
// the probe must apply exactly when the WHERE is one conjunction with
// a non-⊥ `=` atom on every column of some non-empty stable set, and
// then return SelectRowsEncoded's rows. The WHEREs mix literals absent
// from the dictionaries, `= NULL`, repeated and contradictory `=`
// atoms on one column, IN, `<>` and ranges; an OR falls back to the
// scan.
TEST(DifferentialTest, KeyPinnedProbeMatchesScan) {
  WriterScope writer;
  Rng rng(424242);
  const int tables = ScaledIters(80);
  int full = 0, partial = 0, empty = 0, absent = 0, ors = 0;
  for (int iter = 0; iter < tables; ++iter) {
    const int cols = static_cast<int>(rng.Uniform(2, 5));
    const TableSchema schema = RandomSchema(&rng, cols);
    const ConstraintSet sigma = testing::RandomSigma(&rng, cols, 1, 2);
    const Table table =
        RandomInstance(&rng, schema, static_cast<int>(rng.Uniform(0, 60)),
                       /*domain=*/3, /*null_rate=*/0.3);
    const std::string what = "pinned iter=" + std::to_string(iter) + " " +
                             sigma.ToString(schema);

    // Add() indexes without checking, so the rows need not satisfy Σ
    // and chains grow long. Re-adds go to their chains' tails.
    IncrementalEnforcer enforcer(schema, sigma);
    Table rows = table;
    for (int r = 0; r < rows.num_rows(); ++r) enforcer.Add(rows.row(r), r);
    for (int k = 0; k < rows.num_rows() / 3; ++k) {
      const int r = static_cast<int>(rng.Index(rows.num_rows()));
      const AttributeId a = static_cast<AttributeId>(rng.Index(cols));
      Tuple& t = *rows.mutable_row(r);
      t[a] = !schema.nfs().Contains(a) && rng.Chance(0.3)
                 ? Value::Null()
                 : Value::Int(rng.Uniform(0, 2));
      enforcer.Remove(r);
      enforcer.Add(t, r);
    }
    std::vector<int> erased;
    for (int r = 0; r < rows.num_rows(); ++r) {
      if (rng.Chance(0.2)) erased.push_back(r);
    }
    for (int r : erased) enforcer.Remove(r);
    enforcer.CompactAfterErase(erased);
    ASSERT_OK(enforcer.CheckInvariants()) << what;
    const EncodedTable& enc = enforcer.encoding();

    // Stable sets in the enforcer's index order: FDs, then keys.
    std::vector<AttributeSet> stable, similarity;
    for (const auto& fd : sigma.fds()) {
      similarity.push_back(fd.lhs);
      stable.push_back(fd.is_possible() ? fd.lhs
                                        : fd.lhs.Intersect(schema.nfs()));
    }
    for (const auto& key : sigma.keys()) {
      similarity.push_back(key.attrs);
      stable.push_back(key.is_possible() ? key.attrs
                                         : key.attrs.Intersect(schema.nfs()));
    }
    for (const AttributeSet& s : stable) empty += s.empty();

    auto literal = [&](AttributeId a) {
      if (enc.num_rows() > 0 && rng.Chance(0.65)) {
        const int r = static_cast<int>(rng.Index(enc.num_rows()));
        return enc.DecodeCode(a, enc.code(a, r));
      }
      return rng.Chance(0.4) ? Value::Null() : Value::Int(7);  // 7: absent
    };
    auto conjunction = [&]() {
      Conjunction conj;
      const AttributeSet& pin = stable[rng.Index(stable.size())];
      for (AttributeId a : pin) {
        if (rng.Chance(0.9)) {
          conj.push_back(Cmp(a, CompareOp::kEq, literal(a)));
        }
      }
      for (int extra = static_cast<int>(rng.Index(3)); extra > 0; --extra) {
        const AttributeId a = static_cast<AttributeId>(rng.Index(cols));
        switch (rng.Index(4)) {
          case 0:  // repeated, possibly contradictory
            conj.push_back(Cmp(a, CompareOp::kEq, literal(a)));
            break;
          case 1:
            conj.push_back(In(a, {literal(a), literal(a)}));
            break;
          case 2:
            conj.push_back(Cmp(a, CompareOp::kNe, literal(a)));
            break;
          default:
            conj.push_back(
                Cmp(a, CompareOp::kLe, Value::Int(rng.Uniform(0, 2))));
            break;
        }
      }
      std::shuffle(conj.begin(), conj.end(), rng.engine());
      return conj;
    };

    for (int q = 0; q < 12; ++q) {
      Predicate where = Predicate::And(conjunction());
      if (rng.Chance(0.15)) where.disjuncts.push_back(conjunction());
      std::string sql;
      for (size_t d = 0; d < where.disjuncts.size(); ++d) {
        sql += d > 0 ? " OR " : "";
        for (size_t i = 0; i < where.disjuncts[d].size(); ++i) {
          sql += (i > 0 ? " AND " : "") +
                 SqlAtom(schema, where.disjuncts[d][i]);
        }
      }
      // The first index every stable column of which the WHERE pins.
      int used = -1;
      for (size_t i = 0; where.disjuncts.size() == 1 && i < stable.size() &&
                         used < 0;
           ++i) {
        bool pinned = !stable[i].empty();
        for (AttributeId a : stable[i]) {
          bool eq = false;
          for (const PredicateAtom& atom : where.disjuncts[0]) {
            eq = eq || (atom.column == a && atom.op == CompareOp::kEq &&
                        !atom.value.is_null());
          }
          pinned = pinned && eq;
        }
        if (pinned) used = static_cast<int>(i);
      }
      const std::optional<std::vector<int>> got = enforcer.SelectPinned(where);
      ASSERT_EQ(got.has_value(), used >= 0) << what << "\nWHERE " << sql;
      ors += where.disjuncts.size() > 1;
      if (!got) continue;
      EXPECT_EQ(*got, SelectRowsEncoded(enc, where))
          << what << "\nWHERE " << sql;
      (stable[used] == similarity[used] ? full : partial) += 1;
      for (const PredicateAtom& atom : where.disjuncts[0]) {
        if (stable[used].Contains(atom.column) &&
            atom.op == CompareOp::kEq &&
            enc.LookupCode(atom.column, atom.value) ==
                EncodedTable::kMissingCode) {
          ++absent;
          break;
        }
      }
    }
  }
  // Every kind of stable set and WHERE the comment names came up.
  EXPECT_GT(full, 0);
  EXPECT_GT(partial, 0);
  EXPECT_GT(empty, 0);
  EXPECT_GT(absent, 0);
  EXPECT_GT(ors, 0);
}

// --- Executor sweep 3: the Database columnar DML end to end. With an
// empty Σ (and an empty NFS, so no rejections) every Insert / Update /
// Delete through the catalog, and every selection over its live
// columns, must track a shadow row-major Table driven by the reference
// operators.
TEST(DifferentialTest, DatabaseColumnarDmlMatchesShadowTable) {
  WriterScope writer;
  Rng rng(60606);
  const int runs = ScaledIters(40);
  for (int iter = 0; iter < runs; ++iter) {
    const int cols = static_cast<int>(rng.Uniform(2, 5));
    std::string attrs;
    for (int i = 0; i < cols; ++i) attrs.push_back(static_cast<char>('a' + i));
    const TableSchema schema = testing::Schema(attrs, /*not_null=*/"");
    Table shadow =
        RandomInstance(&rng, schema, static_cast<int>(rng.Uniform(0, 40)),
                       /*domain=*/3, rng.NextDouble() * 0.4);
    const std::string what = "db iter=" + std::to_string(iter);

    Database db;
    ASSERT_OK(db.IngestTable(shadow, ConstraintSet{})) << what;
    auto stored = db.Find(schema.name());
    ASSERT_OK(stored.status()) << what;

    const int ops = static_cast<int>(rng.Uniform(3, 8));
    for (int op = 0; op < ops; ++op) {
      const Predicate where = RandomEqualities(&rng, shadow);
      auto pred = [&](const Tuple& t) { return MatchesPredicate(t, where); };
      const int kind = static_cast<int>(rng.Index(4));
      if (kind == 0) {  // INSERT
        std::vector<Value> row;
        for (int c = 0; c < cols; ++c) {
          row.push_back(rng.Chance(0.2)
                            ? Value::Null()
                            : Value::Int(rng.Uniform(0, 2)));
        }
        Tuple t{std::move(row)};
        ASSERT_OK(db.Insert(schema.name(), t)) << what;
        ASSERT_OK(shadow.AddRow(t)) << what;
      } else if (kind == 1) {  // SELECT
        const EncodedTable& columns = (*stored)->columns();
        const Table got =
            columns.GatherRows(SelectRowsEncoded(columns, where))
                .Decode(schema);
        EXPECT_TRUE(SelectWhere(shadow, pred).SameMultiset(got)) << what;
      } else if (kind == 2) {  // UPDATE (non-⊥ value: Σ empty, NFS empty)
        const AttributeId target = static_cast<AttributeId>(rng.Index(cols));
        const Value v = Value::Int(rng.Uniform(0, 2));
        auto changed = db.Update(schema.name(), where, target, v);
        ASSERT_OK(changed.status()) << what;
        auto changed_ref = UpdateWhere(&shadow, pred, target, v);
        ASSERT_OK(changed_ref.status()) << what;
        EXPECT_EQ(changed.value(), changed_ref.value()) << what;
      } else {  // DELETE
        auto removed = db.Delete(schema.name(), where);
        ASSERT_OK(removed.status()) << what;
        EXPECT_EQ(removed.value(), DeleteWhere(&shadow, pred)) << what;
      }
      EXPECT_TRUE((*stored)->Materialize().SameMultiset(shadow))
          << what << " after op " << op;
    }
  }
}

// --- Executor sweep 3b: scans that skip blocks. The tables above are
// small and unclustered, so their zones rarely rule a block out. Here
// column k is clustered (ascending in runs of 100 rows, with ⊥ runs
// inside zoned blocks), so selective atoms on k skip most blocks
// (CompiledPredicate::BlockMayMatch), and the row counts straddle the
// 2,048-row block seams. Every scan must return the oracle's row ids,
// in order, at every dispatch level. It must keep doing so after an
// UPDATE loosens a zone, a DELETE shifts rows across blocks, a
// transaction of INSERT/UPDATE/DELETE rolls back, an out-of-order
// INSERT leaves k's dictionary unordered (ranges then compile to rank
// intervals), and VACUUM re-encodes the table.
TEST(DifferentialTest, ExecutorZoneSkipsOnClusteredTables) {
  WriterScope writer;
  constexpr int kRun = 100;
  constexpr AttributeId k = 0;
  constexpr AttributeId v = 1;
  const Value absent = Value::Int(1000000);
  for (const int rows : {2047, 2048, 2049, 4097, 6200}) {
    const std::string what = "rows=" + std::to_string(rows);
    const TableSchema schema = testing::Schema("kv");
    Table shadow(schema);
    for (int r = 0; r < rows; ++r) {
      const bool null_k = (r >= 700 && r < 710) || (r >= 3000 && r < 3005);
      ASSERT_OK(shadow.AddRow(Tuple(
          {null_k ? Value::Null() : Value::Int(r / kRun), Value::Int(r % 7)})));
    }
    Database db;
    ASSERT_OK(db.IngestTable(shadow, ConstraintSet{})) << what;
    ASSERT_OK_AND_ASSIGN(const StoredTable* stored, db.Find(schema.name()));

    const int last = (rows - 1) / kRun;
    Predicate two_ranges;
    two_ranges.disjuncts.push_back({Cmp(k, CompareOp::kEq, Value::Int(2))});
    two_ranges.disjuncts.push_back(
        {Between(k, Value::Int(30), Value::Int(31)),
         Cmp(v, CompareOp::kNe, Value::Int(1))});
    const std::vector<Predicate> preds = {
        testing::WhereEq(k, Value::Int(5)),
        testing::WhereEq(k, Value::Int(20)),  // straddles the first seam
        testing::WhereEq(k, Value::Int(last)),
        testing::WhereEq(k, Value::Null()),
        testing::WhereEq(k, absent),
        Predicate::And({Cmp(k, CompareOp::kNe, Value::Int(3))}),
        Predicate::And({Between(k, Value::Int(19), Value::Int(21))}),
        Predicate::And({Cmp(k, CompareOp::kLt, Value::Int(3))}),
        Predicate::And({Cmp(k, CompareOp::kGe, Value::Int(last))}),
        Predicate::And({In(k, {Value::Int(1), Value::Null(), absent})}),
        Predicate::And({In(k, {absent})}),
        Predicate::And({Cmp(k, CompareOp::kGt, Value::Int(10)),
                        Cmp(v, CompareOp::kEq, Value::Int(3))}),
        two_ranges,
        Predicate::True(),
    };
    auto check = [&](const std::string& stage) {
      ASSERT_OK(stored->enforcer().CheckInvariants()) << what << stage;
      const EncodedTable& columns = stored->columns();
      for (size_t p = 0; p < preds.size(); ++p) {
        std::vector<int> want;
        for (int r = 0; r < shadow.num_rows(); ++r) {
          if (MatchesPredicate(shadow.row(r), preds[p])) want.push_back(r);
        }
        LevelSweepGuard guard;
        for (const simd::Level level : SweepLevels()) {
          simd::SetLevelForTesting(level);
          EXPECT_EQ(SelectRowsEncoded(columns, preds[p]), want)
              << what << stage << " pred " << p << " level "
              << simd::LevelName(level);
        }
      }
    };
    auto admitted = [&](const Predicate& pred) {
      const CompiledPredicate compiled(stored->columns(), pred);
      int n = 0;
      for (int at = 0; at < stored->num_rows();
           at += CompiledPredicate::kBlock) {
        n += compiled.BlockMayMatch(at / CompiledPredicate::kBlock);
      }
      return n;
    };

    check(" initial");
    // The skip fires: one run of k lies in one block.
    EXPECT_EQ(admitted(preds[0]), 1) << what;
    EXPECT_EQ(admitted(preds[4]), 0) << what;

    // UPDATE moves a run of block 0 to the last key: block 0's zone
    // widens to it and stays loose.
    const Predicate run12 = testing::WhereEq(k, Value::Int(12));
    ASSERT_OK_AND_ASSIGN(const int updated,
                         db.Update(schema.name(), run12, k, Value::Int(last)));
    ASSERT_OK_AND_ASSIGN(const int updated_ref,
                         UpdateWhere(&shadow,
                                     [&](const Tuple& t) {
                                       return MatchesPredicate(t, run12);
                                     },
                                     k, Value::Int(last)));
    EXPECT_EQ(updated, updated_ref) << what;
    check(" after update");

    // DELETE a run of block 0: every later row shifts down 90 slots,
    // across the block seams.
    const Predicate run7 = testing::WhereEq(k, Value::Int(7));
    ASSERT_OK_AND_ASSIGN(const int deleted, db.Delete(schema.name(), run7));
    EXPECT_EQ(deleted, DeleteWhere(&shadow, [&](const Tuple& t) {
                return MatchesPredicate(t, run7);
              }))
        << what;
    check(" after delete");

    // A transaction's INSERT, UPDATE and DELETE roll back.
    ASSERT_OK(db.Begin());
    ASSERT_OK(db.Insert(schema.name(), Tuple({Value::Int(-5), Value::Int(0)})));
    ASSERT_OK(db.Update(schema.name(), testing::WhereEq(k, Value::Int(15)), k,
                        Value::Int(-5))
                  .status());
    ASSERT_OK(db.Delete(schema.name(), testing::WhereEq(k, Value::Int(3)))
                  .status());
    ASSERT_OK(db.Rollback());
    check(" after rollback");

    // An out-of-order INSERT: k's dictionary is no longer ordered, so
    // the range atoms compile to rank intervals, which skip nothing.
    const Tuple low({Value::Int(-5), Value::Int(0)});
    ASSERT_OK(db.Insert(schema.name(), low));
    ASSERT_OK(shadow.AddRow(low));
    EXPECT_FALSE(stored->columns().DictionaryOrdered(k)) << what;
    check(" after out-of-order insert");

    // Deleting the low row recomputes the tail zone; VACUUM then
    // re-encodes k in value order and rebuilds its zones, so `k = 5`
    // is back to its one block.
    const Predicate low_key = testing::WhereEq(k, Value::Int(-5));
    ASSERT_OK(db.Delete(schema.name(), low_key).status());
    DeleteWhere(&shadow,
                [&](const Tuple& t) { return MatchesPredicate(t, low_key); });
    check(" after deleting the low row");
    ASSERT_OK(db.CompactTable(schema.name()).status());
    EXPECT_TRUE(stored->columns().DictionaryOrdered(k)) << what;
    check(" after vacuum");
    EXPECT_EQ(admitted(preds[0]), 1) << what;
  }
}

// --- Executor sweep 4: SELECT over NATURAL JOINs. The executor filters
// each join input by what the WHERE implies for it (JoinInputFilters),
// joins the filtered inputs and applies the whole WHERE to the join's
// output. Random 2-, 3- and 4-way joins over small tables — ⊥,
// duplicates and values present on one side only in the shared columns
// — under random DNF WHEREs: atoms on join columns (=, = NULL, <>,
// ranges, IN), atoms on one input's own columns, and ORs spanning
// inputs. Each query runs through ExecuteReadOnly on a SnapshotAll map
// and through SqlSession::Execute at every SIMD level, and must return
// the rows of JoinAll + SelectWhere, row for row and in order. Each
// input's filter is checked as well: every joined row the WHERE keeps
// satisfies it (sound), and it keeps every atom of a disjunct on the
// input's columns, so an atom on a join column reaches every input
// holding the column.

// `SELECT <cols> FROM t NATURAL JOIN u ... [WHERE <dnf>]`; AND binds
// tighter than OR, so the disjuncts need no parentheses.
std::string JoinSelectSql(const std::vector<std::string>& tables,
                          const std::vector<std::string>& cols,
                          const TableSchema& joined, const Predicate& where) {
  std::string sql = "SELECT ";
  for (size_t i = 0; i < cols.size(); ++i) sql += (i > 0 ? ", " : "") + cols[i];
  if (cols.empty()) sql += "*";
  sql += " FROM " + tables[0];
  for (size_t i = 1; i < tables.size(); ++i) {
    sql += " NATURAL JOIN " + tables[i];
  }
  if (where.IsTrue()) return sql + ";";
  sql += " WHERE ";
  for (size_t d = 0; d < where.disjuncts.size(); ++d) {
    if (d > 0) sql += " OR ";
    for (size_t a = 0; a < where.disjuncts[d].size(); ++a) {
      if (a > 0) sql += " AND ";
      sql += SqlAtom(joined, where.disjuncts[d][a]);
    }
  }
  return sql + ";";
}

// A join input: shared int columns drawn from [index, index + 3] with
// ⊥ (duplicates, ⊥ = ⊥ matches, and values on one side only), plus one
// string column of its own.
Table RandomJoinInput(Rng* rng, int index,
                      const std::vector<std::string>& shared, int rows) {
  std::vector<std::string> attrs = shared;
  attrs.push_back("o" + std::to_string(index));
  std::vector<std::vector<Value>> cells;
  for (int r = 0; r < rows; ++r) {
    std::vector<Value> row;
    for (size_t c = 0; c < shared.size(); ++c) {
      row.push_back(rng->Chance(0.2)
                        ? Value::Null()
                        : Value::Int(index + rng->Uniform(0, 3)));
    }
    row.push_back(rng->Chance(0.15)
                      ? Value::Null()
                      : Value::Str("s" + std::to_string(rng->Uniform(0, 4))));
    cells.push_back(std::move(row));
  }
  return MakeJoinInput("t" + std::to_string(index), attrs, cells);
}

// A random atom on column `col` of the joined schema: own (string)
// columns start with 'o', shared (int) columns do not.
PredicateAtom RandomJoinAtom(Rng* rng, const TableSchema& joined,
                             AttributeId col) {
  const bool own = joined.attribute_name(col)[0] == 'o';
  auto value = [&](bool allow_null) {
    if (allow_null && rng->Chance(0.2)) return Value::Null();
    return own ? Value::Str("s" + std::to_string(rng->Uniform(0, 5)))
               : Value::Int(rng->Uniform(0, 7));
  };
  switch (rng->Index(6)) {
    case 0:
    case 1:
      return Cmp(col, CompareOp::kEq, value(true));
    case 2:
      return Cmp(col, CompareOp::kNe, value(true));
    case 3:
      return Cmp(col,
                 static_cast<CompareOp>(
                     static_cast<int>(CompareOp::kLt) + rng->Index(4)),
                 value(false));
    case 4: {
      Value lo = value(false);
      Value hi = value(false);
      if (hi < lo) std::swap(lo, hi);
      return Between(col, lo, hi);
    }
    default: {
      std::vector<Value> list;
      const int n = static_cast<int>(rng->Uniform(1, 3));
      for (int i = 0; i < n; ++i) list.push_back(value(true));
      return In(col, std::move(list));
    }
  }
}

// The row of `joined_row` restricted to `input`'s columns — the input
// row it came from, since a natural join copies every input's cells.
Tuple InputRow(const Tuple& joined_row, const TableSchema& joined,
               const TableSchema& input) {
  std::vector<Value> cells;
  for (AttributeId a = 0; a < input.num_attributes(); ++a) {
    cells.push_back(
        joined_row[joined.FindAttribute(input.attribute_name(a)).value()]);
  }
  return Tuple(std::move(cells));
}

// Whether a cell RenderJson wrote is the oracle's value: ⊥ → null,
// ints → numbers, strings → strings.
bool JsonCellIs(const JsonValue& cell, const Value& want) {
  switch (want.kind()) {
    case Value::Kind::kNull:
      return cell.is_null();
    case Value::Kind::kInt:
      return cell.is_int() && cell.int_value() == want.int_value();
    case Value::Kind::kString:
      return cell.is_string() && cell.str_value() == want.str_value();
  }
  return false;
}

// Renders `got` with RenderJson, parses the response back and holds its
// column names and every cell to the oracle's rows: `expect` projected
// onto `projection` (all columns when empty).
void CheckRenderedJson(const QueryResult& got,
                       const std::vector<std::string>& names,
                       const Table& expect,
                       const std::vector<AttributeId>& projection,
                       const std::string& what) {
  const Result<JsonValue> doc = ParseJson(RenderJson(ResultSet::Of({got})));
  ASSERT_OK(doc.status()) << what;
  const JsonValue* statements = doc->Find("statements");
  ASSERT_TRUE(statements != nullptr && statements->items().size() == 1)
      << what;
  const JsonValue* rows = statements->items()[0].Find("rows");
  ASSERT_NE(rows, nullptr) << what;
  const JsonValue* columns = rows->Find("columns");
  ASSERT_NE(columns, nullptr) << what;
  ASSERT_EQ(columns->items().size(), names.size()) << what;
  for (size_t j = 0; j < names.size(); ++j) {
    EXPECT_EQ(columns->items()[j].str_value(), names[j]) << what;
  }
  const JsonValue* data = rows->Find("data");
  ASSERT_NE(data, nullptr) << what;
  ASSERT_EQ(data->items().size(), static_cast<size_t>(expect.num_rows()))
      << what;
  for (int r = 0; r < expect.num_rows(); ++r) {
    const std::vector<JsonValue>& cells = data->items()[r].items();
    ASSERT_EQ(cells.size(), names.size()) << what << " row " << r;
    for (size_t j = 0; j < names.size(); ++j) {
      const Value& want =
          expect.row(r)[projection.empty() ? static_cast<AttributeId>(j)
                                           : projection[j]];
      ASSERT_TRUE(JsonCellIs(cells[j], want))
          << what << " row " << r << " column " << j << " want "
          << want.ToString();
    }
  }
}

// Runs one SELECT over `tables` (joined in that order, names may
// repeat) through both SQL entry points at every SIMD level and holds
// the rows to JoinAll + SelectWhere, and the RenderJson response to
// the same cells; checks each input's filter.
void CheckJoinSelect(Database* db, const std::vector<Table>& tables,
                     const Predicate& where,
                     const std::vector<AttributeId>& projection,
                     const std::string& what) {
  auto joined = JoinAll(tables, tables[0].schema().name() + "_join");
  ASSERT_OK(joined.status()) << what;
  const TableSchema& js = joined->schema();
  const Table expect = SelectWhere(
      *joined, [&](const Tuple& t) { return MatchesPredicate(t, where); });

  std::vector<std::string> names;
  std::vector<const TableSchema*> schemas;
  for (const Table& t : tables) {
    names.push_back(t.schema().name());
    schemas.push_back(&t.schema());
  }
  std::vector<std::string> cols;
  for (AttributeId a : projection) cols.push_back(js.attribute_name(a));
  const std::string sql = JoinSelectSql(names, cols, js, where);

  const std::vector<Predicate> filters = JoinInputFilters(where, js, schemas);
  ASSERT_EQ(filters.size(), tables.size()) << what;
  for (size_t i = 0; i < tables.size(); ++i) {
    const TableSchema& input = tables[i].schema();
    bool some_disjunct_free = false;
    for (const Conjunction& conj : where.disjuncts) {
      int on_input = 0;
      for (const PredicateAtom& atom : conj) {
        on_input += input.FindAttribute(js.attribute_name(atom.column)).ok();
      }
      some_disjunct_free = some_disjunct_free || on_input == 0;
    }
    EXPECT_EQ(filters[i].IsTrue(), some_disjunct_free) << what << " input "
                                                       << i << "\n" << sql;
    if (!filters[i].IsTrue()) {
      ASSERT_EQ(filters[i].disjuncts.size(), where.disjuncts.size()) << what;
      for (size_t d = 0; d < where.disjuncts.size(); ++d) {
        size_t on_input = 0;
        for (const PredicateAtom& atom : where.disjuncts[d]) {
          on_input += input.FindAttribute(js.attribute_name(atom.column)).ok();
        }
        EXPECT_EQ(filters[i].disjuncts[d].size(), on_input)
            << what << " input " << i << " disjunct " << d << "\n" << sql;
      }
    }
    for (int r = 0; r < expect.num_rows(); ++r) {
      EXPECT_TRUE(MatchesPredicate(InputRow(expect.row(r), js, input),
                                   filters[i]))
          << what << " input " << i << " drops joined row " << r << "\n"
          << sql;
    }
  }

  std::vector<std::string> out_names = cols;
  if (cols.empty()) {
    for (AttributeId a = 0; a < js.num_attributes(); ++a) {
      out_names.push_back(js.attribute_name(a));
    }
  }
  auto check = [&](const Result<QueryResult>& got, const std::string& path) {
    ASSERT_OK(got.status()) << what << " " << path << "\n" << sql;
    CheckRenderedJson(*got, out_names, expect, projection,
                      what + " " + path + "\n" + sql);
    const ResultRows& rows = *got->rows;
    ASSERT_EQ(rows.num_rows(), expect.num_rows())
        << what << " " << path << "\n" << sql;
    for (int r = 0; r < rows.num_rows(); ++r) {
      if (projection.empty()) {
        ASSERT_EQ(rows.row(r), expect.row(r))
            << what << " " << path << " row " << r << "\n" << sql;
        continue;
      }
      for (size_t j = 0; j < projection.size(); ++j) {
        ASSERT_EQ(rows.row(r)[static_cast<AttributeId>(j)],
                  expect.row(r)[projection[j]])
            << what << " " << path << " row " << r << "\n" << sql;
      }
    }
  };
  LevelSweepGuard guard;
  for (const simd::Level level : SweepLevels()) {
    simd::SetLevelForTesting(level);
    const std::string at = std::string(" level ") + simd::LevelName(level);
    check(ExecuteReadOnly(db->SnapshotAll(), sql), "snapshot" + at);
    WriterScope writer;
    SqlSession session(db);
    check(session.Execute(sql), "session" + at);
  }
}

TEST(DifferentialTest, ExecutorFilteredJoinsMatchJoinThenSelect) {
  Rng rng(4711);
  const std::vector<std::string> pool = {"k", "m", "n"};
  const int cases = ScaledIters(120);
  for (int iter = 0; iter < cases; ++iter) {
    const int ways = static_cast<int>(rng.Uniform(2, 4));
    const int max_rows = ways == 2 ? 14 : (ways == 3 ? 9 : 6);
    std::vector<Table> tables;
    Database db;
    for (int i = 0; i < ways; ++i) {
      std::vector<std::string> shared;
      for (const std::string& c : pool) {
        if (rng.Chance(0.6)) shared.push_back(c);
      }
      tables.push_back(RandomJoinInput(
          &rng, i, shared, static_cast<int>(rng.Uniform(0, max_rows))));
      WriterScope writer;
      ASSERT_OK(db.IngestTable(tables.back(), ConstraintSet{}));
    }
    auto joined = JoinAll(tables, "t0_join");
    ASSERT_OK(joined.status());
    const TableSchema& js = joined->schema();

    // Atoms on join columns, on one input's own columns, and ORs
    // spanning inputs all come out of a uniform column draw.
    Predicate where;
    const int disjuncts = static_cast<int>(rng.Uniform(1, 3));
    for (int d = 0; d < disjuncts; ++d) {
      Conjunction conj;
      const int atoms = static_cast<int>(rng.Uniform(1, 3));
      for (int a = 0; a < atoms; ++a) {
        conj.push_back(RandomJoinAtom(
            &rng, js,
            static_cast<AttributeId>(rng.Index(js.num_attributes()))));
      }
      where.disjuncts.push_back(std::move(conj));
    }
    std::vector<AttributeId> projection;
    if (rng.Chance(0.3)) {
      for (AttributeId a = js.num_attributes() - 1; a >= 0; --a) {
        if (rng.Chance(0.5)) projection.push_back(a);
      }
    }
    CheckJoinSelect(&db, tables, where, projection,
                    "join iter=" + std::to_string(iter) + " ways=" +
                        std::to_string(ways));
  }
}

// Cells whose rendering is hardest to get right: strings that need
// every JSON escape (quote, backslash, the named and the \u00XX control
// escapes), bytes JSON writes as they are (0x7F, '/', multi-byte
// UTF-8), and the empty string.
const std::vector<std::string>& HostileStrings() {
  static const std::vector<std::string> kStrings = {
      "plain",
      "q\"uote",
      "back\\slash",
      std::string("nul\0mid", 7),
      "\x01\x1f\x0b",
      "\t\n\r\b\f",
      "\x7f/",
      "\xc3\xa9\xe4\xb8\xad\xf0\x9f\x98\x80",
      "",
  };
  return kStrings;
}

// A join input for the rendering sweep: shared int columns drawn from
// [-2, 1] with ⊥ (negative ints, duplicates, ⊥ = ⊥ matches), plus one
// string column of its own drawn from HostileStrings with ⊥.
Table RandomHostileJoinInput(Rng* rng, int index,
                             const std::vector<std::string>& shared,
                             int rows) {
  std::vector<std::string> attrs = shared;
  attrs.push_back("o" + std::to_string(index));
  std::vector<std::vector<Value>> cells;
  for (int r = 0; r < rows; ++r) {
    std::vector<Value> row;
    for (size_t c = 0; c < shared.size(); ++c) {
      row.push_back(rng->Chance(0.2) ? Value::Null()
                                     : Value::Int(rng->Uniform(-2, 1)));
    }
    row.push_back(rng->Chance(0.15)
                      ? Value::Null()
                      : Value::Str(HostileStrings()[rng->Index(
                            HostileStrings().size())]));
    cells.push_back(std::move(row));
  }
  return MakeJoinInput("t" + std::to_string(index), attrs, cells);
}

// RenderJson over 1-, 2- and 4-way NATURAL JOINs of tables holding ⊥,
// negative ints and strings that need every escape: the response must
// carry JoinAll + SelectWhere's cells (CheckJoinSelect parses it back),
// empty selections included, at every SIMD level. A repeated projected
// column is refused by the output schema on both SQL paths.
TEST(DifferentialTest, ExecutorJsonRendersTheOracleCells) {
  Rng rng(8128);
  const std::vector<std::string> pool = {"k", "m"};
  const int cases = ScaledIters(60);
  int empty = 0, nonempty = 0;
  for (int iter = 0; iter < cases; ++iter) {
    const int ways = std::vector<int>{1, 2, 4}[rng.Index(3)];
    const int max_rows = ways == 4 ? 5 : 10;
    std::vector<Table> tables;
    Database db;
    for (int i = 0; i < ways; ++i) {
      std::vector<std::string> shared;
      for (const std::string& c : pool) {
        if (rng.Chance(0.6)) shared.push_back(c);
      }
      tables.push_back(RandomHostileJoinInput(
          &rng, i, shared, static_cast<int>(rng.Uniform(0, max_rows))));
      WriterScope writer;
      ASSERT_OK(db.IngestTable(tables.back(), ConstraintSet{}));
    }
    auto joined = JoinAll(tables, "t0_join");
    ASSERT_OK(joined.status());
    const TableSchema& js = joined->schema();

    // One atom on a random column, or none; a value from the column's
    // domain keeps some selections non-empty and others empty.
    Predicate where = Predicate::True();
    if (rng.Chance(0.8)) {
      const AttributeId col =
          static_cast<AttributeId>(rng.Index(js.num_attributes()));
      const bool own = js.attribute_name(col)[0] == 'o';
      Value v = rng.Chance(0.15)
                    ? Value::Null()
                    : (own ? Value::Str(HostileStrings()[rng.Index(
                                 HostileStrings().size())])
                           : Value::Int(rng.Uniform(-3, 1)));
      where = Predicate::And(
          {Cmp(col, rng.Chance(0.7) ? CompareOp::kEq : CompareOp::kNe,
               std::move(v))});
    }
    std::vector<AttributeId> projection;
    if (rng.Chance(0.4)) {
      for (AttributeId a = js.num_attributes() - 1; a >= 0; --a) {
        if (rng.Chance(0.6)) projection.push_back(a);
      }
    }
    const int selected =
        SelectWhere(*joined, [&](const Tuple& t) {
          return MatchesPredicate(t, where);
        }).num_rows();
    (selected == 0 ? empty : nonempty) += 1;
    CheckJoinSelect(&db, tables, where, projection,
                    "render iter=" + std::to_string(iter) + " ways=" +
                        std::to_string(ways));

    const std::string repeated = "SELECT o0, o0 FROM t0;";
    const Result<QueryResult> refused =
        ExecuteReadOnly(db.SnapshotAll(), repeated);
    ASSERT_FALSE(refused.ok()) << repeated;
    EXPECT_EQ(refused.status().ToString(),
              "InvalidArgument: duplicate attribute name: o0");
    WriterScope writer;
    SqlSession session(&db);
    const Result<QueryResult> live = session.Execute(repeated);
    ASSERT_FALSE(live.ok()) << repeated;
    EXPECT_EQ(live.status().ToString(), refused.status().ToString());
  }
  // The sweep reaches both kinds of selection.
  EXPECT_GT(empty, 0);
  EXPECT_GT(nonempty, 0);
}

TEST(DifferentialTest, ExecutorFilteredJoinCorners) {
  Database db;
  const Table t = MakeJoinInput(
      "t", {"k", "a"},
      {{Value::Int(1), Value::Str("x")},
       {Value::Null(), Value::Str("y")},
       {Value::Int(1), Value::Str("x")},
       {Value::Int(2), Value::Null()},
       {Value::Null(), Value::Str("y")}});
  const Table u = MakeJoinInput(
      "u", {"k", "b"},
      {{Value::Int(1), Value::Str("p")},
       {Value::Int(3), Value::Str("q")},
       {Value::Null(), Value::Str("r")},
       {Value::Int(1), Value::Null()}});
  const Table c = MakeJoinInput(
      "c", {"z"}, {{Value::Str("z1")}, {Value::Str("z2")}, {Value::Null()}});
  {
    WriterScope writer;
    ASSERT_OK(db.IngestTable(t, ConstraintSet{}));
    ASSERT_OK(db.IngestTable(u, ConstraintSet{}));
    ASSERT_OK(db.IngestTable(c, ConstraintSet{}));
  }
  // Self-join: every column is a join column; duplicates and ⊥ rows
  // match themselves and each other.
  CheckJoinSelect(&db, {t, t},
                  Predicate{{{Cmp(0, CompareOp::kEq, Value::Null())},
                             {Cmp(1, CompareOp::kEq, Value::Str("x"))}}},
                  {}, "self-join");
  // No common columns: the cartesian path, under a WHERE on each side
  // and an OR across them.
  CheckJoinSelect(&db, {t, c},
                  Predicate{{{Cmp(0, CompareOp::kEq, Value::Int(1)),
                              Cmp(2, CompareOp::kNe, Value::Str("z2"))},
                             {Cmp(2, CompareOp::kEq, Value::Null())}}},
                  {}, "cartesian");
  // A filter that keeps every row of both inputs (joined as they are).
  CheckJoinSelect(&db, {t, u},
                  Predicate::And({Cmp(0, CompareOp::kNe, Value::Int(99))}),
                  {}, "keeps-all");
  // An empty result: the join value exists on one side only.
  CheckJoinSelect(&db, {t, u},
                  Predicate::And({Cmp(0, CompareOp::kEq, Value::Int(3))}),
                  {}, "empty");
  // No WHERE at all, and a 3-way join with a projection.
  CheckJoinSelect(&db, {t, u}, Predicate::True(), {}, "no-where");
  CheckJoinSelect(&db, {t, u, c},
                  Predicate::And({In(0, {Value::Int(1), Value::Null()}),
                                  Cmp(2, CompareOp::kGe, Value::Str("q"))}),
                  {3, 2, 0}, "3-way projection");

  // An unknown column fails against the joined schema, with the status,
  // message and offset of binding after the join, on both paths.
  const std::string where_sql =
      "SELECT * FROM t NATURAL JOIN u WHERE k = 1 AND nope = 2;";
  const std::string proj_sql = "SELECT k, nope FROM t NATURAL JOIN u;";
  for (const std::string& sql : {where_sql, proj_sql}) {
    int offset = -1;
    const Result<QueryResult> got =
        ExecuteReadOnly(db.SnapshotAll(), sql, &offset);
    ASSERT_FALSE(got.ok()) << sql;
    EXPECT_EQ(got.status().code(), StatusCode::kNotFound) << sql;
    EXPECT_EQ(got.status().message(),
              "no attribute named 'nope' in schema t_join")
        << sql;
    EXPECT_EQ(offset, static_cast<int>(sql.find("nope"))) << sql;
    WriterScope writer;
    SqlSession session(&db);
    int live_offset = -1;
    const Result<QueryResult> live = session.Execute(sql, &live_offset);
    ASSERT_FALSE(live.ok()) << sql;
    EXPECT_EQ(live.status().ToString(), got.status().ToString()) << sql;
    EXPECT_EQ(live_offset, offset) << sql;
  }
}

}  // namespace
}  // namespace sqlnf

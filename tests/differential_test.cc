// Differential test harness: every validation path in the repo must
// agree with the literal Definition-1/2 oracle (reference_oracle.h) on
// hundreds of seeded-random tables.
//
// Paths crossed per (table, constraint):
//   * the oracle (all-pairs, similarity inlined),
//   * constraints/satisfies.h (the reference checker),
//   * the legacy tuple-hashing path (FindFdViolationTuple / ...KeyTuple),
//   * the columnar kernels on a full EncodedTable at threads ∈ {1, 4},
//   * the Table entry points (ValidateFd / ValidateKey / Find*Fast),
//   * the possible-world enumeration for keys on small tables.
//
// Verdicts must be identical everywhere. Witnesses may differ between
// paths (any violating pair is correct), so when a path reports a
// violation we re-check the reported pair against the oracle's
// similarity predicates instead of comparing pair indices.
//
// SQLNF_DIFF_ITERS (integer ≥ 1, default 1) multiplies every sweep —
// the nightly CI job runs the suite with a larger multiplier.

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sqlnf/constraints/satisfies.h"
#include "sqlnf/core/encoded_table.h"
#include "sqlnf/core/simd_kernels.h"
#include "sqlnf/datagen/generator.h"
#include "sqlnf/decomposition/encoded_ops.h"
#include "sqlnf/decomposition/lossless.h"
#include "sqlnf/engine/catalog.h"
#include "sqlnf/engine/relops.h"
#include "sqlnf/engine/validate.h"
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

void CheckFdAllPaths(const Table& table, const EncodedTable& enc,
                     const FunctionalDependency& fd,
                     const std::string& context) {
  const bool expect = OracleSatisfiesFd(table, fd);
  const std::string what = context + " fd=" + fd.ToString(table.schema());

  EXPECT_EQ(Satisfies(table, fd), expect) << what << " [satisfies.h]";
  EXPECT_EQ(ValidateFd(table, fd), expect) << what << " [ValidateFd]";

  auto tuple = FindFdViolationTuple(table, fd);
  EXPECT_EQ(!tuple.has_value(), expect) << what << " [tuple]";
  if (tuple) ExpectGenuineFdWitness(table, fd, *tuple, what + " [tuple]");

  for (int threads : {1, 4}) {
    const ParallelOptions par{threads};
    const std::string tag = what + " [encoded t=" + std::to_string(threads) +
                            "]";
    auto encoded = FindFdViolationEncoded(enc, fd, par);
    EXPECT_EQ(!encoded.has_value(), expect) << tag;
    if (encoded) ExpectGenuineFdWitness(table, fd, *encoded, tag);
    EXPECT_EQ(ValidateFdEncoded(enc, fd, par), expect) << tag;
  }

  auto fast = FindFdViolationFast(table, fd);
  EXPECT_EQ(!fast.has_value(), expect) << what << " [fast]";
  if (fast) ExpectGenuineFdWitness(table, fd, *fast, what + " [fast]");
}

void CheckKeyAllPaths(const Table& table, const EncodedTable& enc,
                      const KeyConstraint& key, const std::string& context) {
  const bool expect = OracleSatisfiesKey(table, key);
  const std::string what = context + " key=" + key.ToString(table.schema());

  EXPECT_EQ(Satisfies(table, key), expect) << what << " [satisfies.h]";
  EXPECT_EQ(ValidateKey(table, key), expect) << what << " [ValidateKey]";

  auto tuple = FindKeyViolationTuple(table, key);
  EXPECT_EQ(!tuple.has_value(), expect) << what << " [tuple]";
  if (tuple) ExpectGenuineKeyWitness(table, key, *tuple, what + " [tuple]");

  for (int threads : {1, 4}) {
    const ParallelOptions par{threads};
    const std::string tag = what + " [encoded t=" + std::to_string(threads) +
                            "]";
    auto encoded = FindKeyViolationEncoded(enc, key, par);
    EXPECT_EQ(!encoded.has_value(), expect) << tag;
    if (encoded) ExpectGenuineKeyWitness(table, key, *encoded, tag);
    EXPECT_EQ(ValidateKeyEncoded(enc, key, par), expect) << tag;
  }

  auto fast = FindKeyViolationFast(table, key);
  EXPECT_EQ(!fast.has_value(), expect) << what << " [fast]";
  if (fast) ExpectGenuineKeyWitness(table, key, *fast, what + " [fast]");
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
    for (int threads : {1, 4}) {
      const ParallelOptions par{threads};
      EXPECT_EQ(ValidateAll(table, sigma, par), expect)
          << "iter=" << iter << " t=" << threads;
      EXPECT_EQ(ValidateAllEncoded(enc, schema.nfs(), sigma, par), expect)
          << "iter=" << iter << " t=" << threads;
    }
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
      EXPECT_EQ(ValidateKeyEncoded(enc, key), expect)
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

// ===================== Columnar executor section =====================
//
// The encoded operators (decomposition/encoded_ops.h, the encoded DML
// of engine/relops.h, and the Database columnar paths) must produce
// multiset-identical results to their row-major reference counterparts
// on the same instance. Joins run at threads ∈ {1, 4}; Theorem-11
// lossless verdicts must agree between the two executors.

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
// determinism contract of the morsel pipeline (multiset equality would
// let a thread-count-dependent row order slip through).
void ExpectBitIdentical(const EncodedRelation& serial,
                        const EncodedRelation& parallel,
                        const std::string& what) {
  ASSERT_EQ(serial.schema.num_attributes(),
            parallel.schema.num_attributes())
      << what;
  for (AttributeId a = 0; a < serial.schema.num_attributes(); ++a) {
    EXPECT_EQ(serial.schema.attribute_name(a),
              parallel.schema.attribute_name(a))
        << what;
  }
  ASSERT_EQ(serial.columns.num_rows(), parallel.columns.num_rows()) << what;
  for (AttributeId a = 0; a < serial.schema.num_attributes(); ++a) {
    EXPECT_EQ(serial.columns.column(a), parallel.columns.column(a))
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
    // lossless-for-instance verdicts must agree — at both thread counts.
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
    std::optional<EncodedRelation> serial_join;
    for (int threads : {1, 2, 3, 8}) {
      const ParallelOptions par{threads};
      const std::string tag = what + " t=" + std::to_string(threads);
      auto join_enc = JoinComponentsEncoded(schema, enc, d, par);
      ASSERT_OK(join_enc.status()) << tag;
      // Align the join's component-ordered columns with the reference.
      std::vector<AttributeId> mapping;
      for (AttributeId a = 0; a < join_ref.value().num_columns(); ++a) {
        auto j = join_enc.value().schema.FindAttribute(
            join_ref.value().schema().attribute_name(a));
        ASSERT_OK(j.status()) << tag;
        mapping.push_back(j.value());
      }
      const EncodedRelation aligned{
          join_ref.value().schema(),
          join_enc.value().columns.GatherColumns(mapping)};
      ExpectSameRelation(join_ref.value(), aligned, tag + " [join]");

      auto lossless_enc = IsLosslessForInstanceEncoded(schema, enc, d, par);
      ASSERT_OK(lossless_enc.status()) << tag;
      EXPECT_EQ(lossless_enc.value(), lossless_ref.value()) << tag;

      // Every parallel run must reproduce the serial run bit for bit —
      // not just the same multiset.
      if (threads == 1) {
        serial_join = std::move(join_enc).value();
      } else {
        ExpectBitIdentical(*serial_join, join_enc.value(), tag);
      }
    }
    // Theorem 11 itself: when the instance satisfies the c-FD, the
    // decomposition must be lossless for it.
    fd.mode = Mode::kCertain;
    if (Satisfies(table, fd)) {
      EXPECT_TRUE(lossless_ref.value()) << what << " [thm11]";
    }
  }
}

// --- Executor join corners: adversarial shapes for the morsel pipeline
// — a single-hot-key skew table (one bucket holds every build row), a
// zero-match join (count pass totals 0), empty inputs on either side,
// and a join with no common columns (the cartesian path). Each is
// crossed against the row-major join — including the exact emitted row
// ORDER, which both executors pin to left-major / right-ascending —
// and the parallel runs must reproduce the serial run bit for bit.

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
  // The serial scalar run anchors the sweep: every level × thread-count
  // combination must reproduce it bit for bit (the hash/probe/emit
  // kernels are bit-identical across dispatch levels by contract).
  std::optional<EncodedRelation> serial;
  LevelSweepGuard guard;
  for (const simd::Level level : SweepLevels()) {
    simd::SetLevelForTesting(level);
    for (int threads : {1, 2, 3, 8}) {
      const std::string tag = what + " t=" + std::to_string(threads) +
                              " level " + simd::LevelName(level);
      auto got = EqualityJoinEncoded(el, er, "j", ParallelOptions{threads});
      ASSERT_OK(got.status()) << tag;
      if (!serial.has_value()) {
        ExpectSameRelation(ref.value(), got.value(), what + " [serial]");
        const Table decoded = got.value().ToTable();
        ASSERT_EQ(ref.value().num_rows(), decoded.num_rows()) << what;
        for (int i = 0; i < decoded.num_rows(); ++i) {
          ASSERT_EQ(ref.value().row(i), decoded.row(i))
              << what << " row " << i;
        }
        serial = std::move(got).value();
      } else {
        ExpectBitIdentical(*serial, got.value(), tag);
      }
    }
  }
}

TEST(DifferentialTest, ExecutorJoinCorners) {
  // Skew: every left and right row carries the same key, so the CSR
  // index degenerates to one full bucket and each left morsel emits
  // |right| rows. A sprinkle of ⊥ keys exercises kNullCode equality.
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

// --- Executor sweep 2: DML on codes vs DML on rows. SelectRowsEncoded,
// UpdateWhereEncoded and DeleteWhereEncoded against the row-major
// reference operators, which evaluate the same WHERE through the
// MatchesPredicate oracle.
TEST(DifferentialTest, ExecutorDmlOnCodes) {
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

    // Selection: same rows, in the same (ascending) scan order, and the
    // morsel-parallel scan returns the exact same vector as serial.
    const EncodedTable enc(table);
    const Table sel_ref = SelectWhere(table, pred);
    const std::vector<int> sel = SelectRowsEncoded(enc, where);
    const Table sel_enc = enc.GatherRows(sel).Decode(schema);
    EXPECT_EQ(sel_ref.num_rows(), sel_enc.num_rows()) << what;
    for (int i = 0; i < sel_ref.num_rows() && i < sel_enc.num_rows(); ++i) {
      EXPECT_EQ(sel_ref.row(i), sel_enc.row(i)) << what << " row " << i;
    }
    {
      // Same selection vector at every dispatch level × thread count.
      LevelSweepGuard guard;
      for (const simd::Level level : SweepLevels()) {
        simd::SetLevelForTesting(level);
        for (int threads : {1, 2, 3, 8}) {
          EXPECT_EQ(SelectRowsEncoded(enc, where, ParallelOptions{threads}),
                    sel)
              << what << " t=" << threads << " level "
              << simd::LevelName(level);
        }
      }
    }

    // Update: a fresh non-⊥ value into a random column (⊥ would trip
    // the reference path's NFS guard, which the raw encoded op — used
    // below the Database layer, where the enforcer owns that check —
    // deliberately lacks).
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
      EncodedTable upd_enc(table);
      auto changed_ref = UpdateWhere(&upd_ref, pred, target, new_value);
      ASSERT_OK(changed_ref.status()) << what;
      const int changed_enc =
          UpdateWhereEncoded(&upd_enc, where, target, new_value);
      EXPECT_EQ(changed_ref.value(), changed_enc) << what;
      EXPECT_TRUE(upd_ref.SameMultiset(upd_enc.Decode(schema))) << what;
    }

    // Delete: same removed count, identical survivors.
    Table del_ref = table;
    EncodedTable del_enc(table);
    const int removed_ref = DeleteWhere(&del_ref, pred);
    const int removed_enc = DeleteWhereEncoded(&del_enc, where);
    EXPECT_EQ(removed_ref, removed_enc) << what;
    EXPECT_TRUE(del_ref.SameMultiset(del_enc.Decode(schema))) << what;
  }
}

// --- Executor sweep 3: the Database columnar DML end to end. With an
// empty Σ (and an empty NFS, so no rejections) every Insert / Select /
// Update / Delete through the catalog must track a shadow row-major
// Table driven by the reference operators.
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
        auto got = db.Select(schema.name(), where);
        ASSERT_OK(got.status()) << what;
        EXPECT_TRUE(SelectWhere(shadow, pred).SameMultiset(got.value()))
            << what;
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

}  // namespace
}  // namespace sqlnf

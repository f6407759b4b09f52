// Predicate-fuzzer differential harness: random predicate TREES
// (nested OR/AND over comparison atoms — BETWEEN, IN, ⊥ literals,
// values absent from every dictionary) evaluated three independent
// ways on random tables:
//
//   1. the nested tree itself, recursively, on decoded tuples (the
//      literal oracle — no DNF, no codes),
//   2. MatchesPredicate on the tree's DNF flattening (row-major over
//      the engine's Predicate shape),
//   3. SelectRowsEncoded on the DNF against the dictionary encoding,
//      at every SIMD dispatch level the machine supports (compiled
//      branch-free code intervals through the simd_kernels.h scan and
//      compress-store kernels).
//
// All paths must agree row for row — the SIMD level sweep is the
// executable form of the kernel bit-identity contract. A fourth pass
// re-runs the columnar selection after CompactDictionaries (canonical
// order-preserving re-encode) — same rows, now through the no-gather
// raw-code fast path. A fifth renders the DNF as SQL text
// (`SELECT * FROM T WHERE …`, AND binding tighter than OR) and runs it
// through the server's read path — lexer, parser, binder and
// ExecuteReadOnly on a SnapshotAll map — which must return the
// oracle's rows in table order.
//
// SQLNF_DIFF_ITERS (integer ≥ 1, default 1) multiplies the sweep; the
// nightly differential job runs ≥ 1000 trees.

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sqlnf/core/encoded_table.h"
#include "sqlnf/core/simd_kernels.h"
#include "sqlnf/core/table.h"
#include "sqlnf/engine/catalog.h"
#include "sqlnf/engine/predicate.h"
#include "sqlnf/engine/relops.h"
#include "sqlnf/engine/sql.h"
#include "sqlnf/util/rng.h"
#include "test_util.h"

namespace sqlnf {
namespace {

using testing::Schema;
using testing::SqlAtom;

int IterMultiplier() {
  const char* env = std::getenv("SQLNF_DIFF_ITERS");
  if (env == nullptr) return 1;
  const int v = std::atoi(env);
  return v >= 1 ? v : 1;
}

int ScaledIters(int base) { return base * IterMultiplier(); }

// Every SIMD dispatch level this machine can run, scalar first. The
// scalar kernels are the differential oracle; each wider level must be
// bit-identical to them.
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

// Unpins the dispatch level even when an ASSERT bails out of the sweep.
struct LevelSweepGuard {
  ~LevelSweepGuard() { simd::ClearLevelForTesting(); }
};

// ---------------------------------------------------------------- data

// The string pool; one member carries a quote, which SQL text must
// escape as ''.
Value RandomString(Rng* rng) {
  static const char* const kStrings[] = {"a", "b", "it's", "d", "e"};
  return Value::Str(kStrings[rng->Uniform(0, 4)]);
}

// Mixed-kind instance: small-domain ints (one of them negative) AND
// strings in every column (so ordered comparisons cross the Int < Str
// kind boundary), ⊥ anywhere.
Table RandomMixedInstance(Rng* rng, const TableSchema& schema, int rows,
                          int domain) {
  Table table(schema);
  for (int r = 0; r < rows; ++r) {
    std::vector<Value> values;
    for (AttributeId a = 0; a < schema.num_attributes(); ++a) {
      const double roll = rng->NextDouble();
      if (roll < 0.2) {
        values.push_back(Value::Null());
      } else if (roll < 0.6) {
        values.push_back(Value::Int(rng->Uniform(-1, domain - 2)));
      } else {
        values.push_back(RandomString(rng));
      }
    }
    auto st = table.AddRow(Tuple(std::move(values)));
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  return table;
}

// Operand pool: in-domain ints, strings, ⊥, and values no dictionary
// has ever seen (large ints / unused strings).
Value RandomOperand(Rng* rng, int domain) {
  const double roll = rng->NextDouble();
  if (roll < 0.15) return Value::Null();
  if (roll < 0.25) return Value::Int(rng->Uniform(100, 105));  // absent
  if (roll < 0.30) return Value::Int(rng->Uniform(-9, -5));    // absent
  if (roll < 0.40) return Value::Str("zzz");                   // absent
  if (roll < 0.75) return Value::Int(rng->Uniform(-1, domain - 2));
  return RandomString(rng);
}

PredicateAtom RandomAtom(Rng* rng, int num_columns, int domain) {
  const AttributeId col =
      static_cast<AttributeId>(rng->Index(static_cast<size_t>(num_columns)));
  switch (rng->Uniform(0, 7)) {
    case 0:
      return Cmp(col, CompareOp::kEq, RandomOperand(rng, domain));
    case 1:
      return Cmp(col, CompareOp::kNe, RandomOperand(rng, domain));
    case 2:
      return Cmp(col, CompareOp::kLt, RandomOperand(rng, domain));
    case 3:
      return Cmp(col, CompareOp::kLe, RandomOperand(rng, domain));
    case 4:
      return Cmp(col, CompareOp::kGt, RandomOperand(rng, domain));
    case 5:
      return Cmp(col, CompareOp::kGe, RandomOperand(rng, domain));
    case 6:
      // Bounds in random order: inverted ranges (empty) included.
      return Between(col, RandomOperand(rng, domain),
                     RandomOperand(rng, domain));
    default: {
      std::vector<Value> list;
      const int k = static_cast<int>(rng->Uniform(0, 3));  // 0 = empty IN
      for (int i = 0; i < k; ++i) {
        list.push_back(RandomOperand(rng, domain));
      }
      return In(col, std::move(list));
    }
  }
}

// ----------------------------------------------------- predicate trees

// A nested boolean tree — the shape a general WHERE grammar would
// produce before DNF flattening.
struct Node {
  enum class Kind { kAtom, kAnd, kOr };
  Kind kind = Kind::kAtom;
  PredicateAtom atom;
  std::vector<Node> children;
};

Node RandomTree(Rng* rng, int num_columns, int domain, int depth) {
  Node node;
  if (depth == 0 || rng->Chance(0.45)) {
    node.kind = Node::Kind::kAtom;
    node.atom = RandomAtom(rng, num_columns, domain);
    return node;
  }
  node.kind = rng->Chance(0.5) ? Node::Kind::kAnd : Node::Kind::kOr;
  const int fanout = static_cast<int>(rng->Uniform(2, 3));
  for (int i = 0; i < fanout; ++i) {
    node.children.push_back(RandomTree(rng, num_columns, domain, depth - 1));
  }
  return node;
}

// The literal tree oracle — nested evaluation, no DNF involved.
bool EvalTree(const Tuple& t, const Node& node) {
  switch (node.kind) {
    case Node::Kind::kAtom:
      return MatchesAtom(t[node.atom.column], node.atom);
    case Node::Kind::kAnd:
      for (const Node& child : node.children) {
        if (!EvalTree(t, child)) return false;
      }
      return true;
    case Node::Kind::kOr:
      for (const Node& child : node.children) {
        if (EvalTree(t, child)) return true;
      }
      return false;
  }
  return false;
}

// Flattens a tree to DNF: OR concatenates child DNFs, AND distributes
// (cross product of child disjuncts). Depth ≤ 3 / fanout ≤ 3 keeps the
// product tiny.
Predicate ToDnf(const Node& node) {
  switch (node.kind) {
    case Node::Kind::kAtom:
      return Predicate::And({node.atom});
    case Node::Kind::kOr: {
      Predicate out;
      for (const Node& child : node.children) {
        Predicate part = ToDnf(child);
        for (Conjunction& conj : part.disjuncts) {
          out.disjuncts.push_back(std::move(conj));
        }
      }
      return out;
    }
    case Node::Kind::kAnd: {
      Predicate out = Predicate::True();
      for (const Node& child : node.children) {
        const Predicate part = ToDnf(child);
        Predicate next;
        for (const Conjunction& left : out.disjuncts) {
          for (const Conjunction& right : part.disjuncts) {
            Conjunction merged = left;
            merged.insert(merged.end(), right.begin(), right.end());
            next.disjuncts.push_back(std::move(merged));
          }
        }
        out = std::move(next);
      }
      return out;
    }
  }
  return Predicate{};
}

// ------------------------------------------------------------ SQL text

std::vector<int> RowMajorSelect(const Table& table, const Predicate& dnf) {
  std::vector<int> out;
  for (int i = 0; i < table.num_rows(); ++i) {
    if (MatchesPredicate(table.row(i), dnf)) out.push_back(i);
  }
  return out;
}


// `SELECT * FROM T WHERE …` for a DNF: the grammar's AND binds tighter
// than OR, so the disjuncts need no parentheses. The grammar has no
// empty IN, so a conjunction holding one — it matches nothing — is
// dropped; nullopt when nothing is left to render.
std::optional<std::string> SelectSql(const TableSchema& schema,
                                     const Predicate& dnf) {
  std::vector<std::string> disjuncts;
  for (const Conjunction& conj : dnf.disjuncts) {
    std::string text;
    bool satisfiable = true;
    for (const PredicateAtom& atom : conj) {
      if (atom.op == CompareOp::kIn && atom.list.empty()) {
        satisfiable = false;
        break;
      }
      text += (text.empty() ? "" : " AND ") + SqlAtom(schema, atom);
    }
    if (satisfiable) disjuncts.push_back(std::move(text));
  }
  if (disjuncts.empty()) return std::nullopt;
  std::string sql = "SELECT * FROM " + schema.name() + " WHERE ";
  for (size_t i = 0; i < disjuncts.size(); ++i) {
    sql += (i > 0 ? " OR " : "") + disjuncts[i];
  }
  return sql + ";";
}

// The DNF as SQL through ExecuteReadOnly on a committed snapshot of a
// Database holding `table`; the returned rows must be the oracle's
// `expected` rows, in table order.
void CheckSqlPath(const Table& table, const Predicate& dnf,
                  const std::vector<int>& expected,
                  const std::string& label) {
  const std::optional<std::string> sql = SelectSql(table.schema(), dnf);
  if (!sql) return;
  Database db;
  {
    WriterScope writer;
    ASSERT_OK(db.IngestTable(table, ConstraintSet{})) << label;
  }
  Result<QueryResult> got = ExecuteReadOnly(db.SnapshotAll(), *sql);
  ASSERT_OK(got.status()) << label << "\n" << *sql;
  ASSERT_EQ(got->rows->num_rows(), static_cast<int>(expected.size()))
      << label << "\n" << *sql;
  for (size_t k = 0; k < expected.size(); ++k) {
    ASSERT_EQ(got->rows->row(static_cast<int>(k)), table.row(expected[k]))
        << label << " result row " << k << "\n" << *sql;
  }
}

// ------------------------------------------------------------ the fuzz

// One random (table, tree) case checked end to end across all paths
// and dispatch levels.
void CheckCase(Rng* rng, int case_id) {
  const int num_columns = static_cast<int>(rng->Uniform(2, 5));
  const TableSchema schema =
      Schema(std::string("abcdef").substr(0, num_columns));
  const int rows = static_cast<int>(rng->Uniform(0, 80));
  const int domain = static_cast<int>(rng->Uniform(2, 6));
  const Table table = RandomMixedInstance(rng, schema, rows, domain);
  const EncodedTable enc(table);

  const Node tree = RandomTree(rng, num_columns, domain, 3);
  const Predicate dnf = ToDnf(tree);
  ASSERT_OK(ValidatePredicate(dnf, num_columns));

  // Oracle selection from the nested tree.
  std::vector<int> expected;
  for (int i = 0; i < table.num_rows(); ++i) {
    if (EvalTree(table.row(i), tree)) expected.push_back(i);
    // DNF flattening must not change row-major semantics.
    ASSERT_EQ(EvalTree(table.row(i), tree),
              MatchesPredicate(table.row(i), dnf))
        << "case " << case_id << " row " << i;
  }

  // Compaction canonicalizes codes (order-preserving); the same DNF
  // recompiles onto raw-code intervals and must select the same rows.
  EncodedTable compacted = enc;
  compacted.CompactDictionaries();
  ASSERT_OK(compacted.CheckDictionaryOrder());

  LevelSweepGuard guard;
  for (const simd::Level level : SweepLevels()) {
    simd::SetLevelForTesting(level);
    ASSERT_EQ(SelectRowsEncoded(enc, dnf), expected)
        << "case " << case_id << " level " << simd::LevelName(level);
    ASSERT_EQ(SelectRowsEncoded(compacted, dnf), expected)
        << "case " << case_id << " after compaction, level "
        << simd::LevelName(level);
  }
  CheckSqlPath(table, dnf, expected, "case " + std::to_string(case_id));
}

TEST(PredicateFuzz, TreesMatchOracleAtEveryLevel) {
  // ≥ 3 trees per case; the nightly multiplier (SQLNF_DIFF_ITERS ≥ 3)
  // pushes the sweep past 1000 trees.
  const int cases = ScaledIters(400);
  Rng rng(20260808);
  for (int c = 0; c < cases; ++c) {
    CheckCase(&rng, c);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Directed corner cases the random sweep could visit rarely.
TEST(PredicateFuzz, DirectedEdgeCases) {
  const TableSchema schema = Schema("ab");
  Table table(schema);
  ASSERT_OK(table.AddRow(Tuple({Value::Int(1), Value::Null()})));
  ASSERT_OK(table.AddRow(Tuple({Value::Int(2), Value::Str("x")})));
  ASSERT_OK(table.AddRow(Tuple({Value::Null(), Value::Int(7)})));
  const EncodedTable enc(table);

  // ⊥ never satisfies an ordered comparison — even one ⊥ would trip.
  EXPECT_EQ(SelectRowsEncoded(enc, Predicate::And({Cmp(
                                       0, CompareOp::kGe, Value::Int(0))})),
            (std::vector<int>{0, 1}));
  // ⊥ operand: atom false everywhere.
  EXPECT_TRUE(SelectRowsEncoded(enc, Predicate::And({Cmp(
                                         0, CompareOp::kLt, Value::Null())}))
                  .empty());
  // Marker equality on ⊥ selects exactly the ⊥ cells; <> the rest.
  EXPECT_EQ(SelectRowsEncoded(enc, Predicate::And({Cmp(
                                       1, CompareOp::kEq, Value::Null())})),
            (std::vector<int>{0}));
  EXPECT_EQ(SelectRowsEncoded(enc, Predicate::And({Cmp(
                                       1, CompareOp::kNe, Value::Null())})),
            (std::vector<int>{1, 2}));
  // Cross-kind order: every Int < every Str.
  EXPECT_EQ(SelectRowsEncoded(enc, Predicate::And({Cmp(
                                       1, CompareOp::kLt, Value::Str("a"))})),
            (std::vector<int>{2}));
  // IN with ⊥ and an absent value.
  EXPECT_EQ(SelectRowsEncoded(
                enc, Predicate::And({In(
                         1, {Value::Null(), Value::Int(99)})})),
            (std::vector<int>{0}));
  // Empty IN and zero-disjunct predicates match nothing; inverted
  // BETWEEN is an empty interval.
  EXPECT_TRUE(SelectRowsEncoded(enc, Predicate::And({In(0, {})})).empty());
  EXPECT_TRUE(SelectRowsEncoded(enc, Predicate{}).empty());
  EXPECT_TRUE(
      SelectRowsEncoded(
          enc, Predicate::And(
                   {Between(0, Value::Int(5), Value::Int(1))}))
          .empty());
  // Predicate::True() selects everything.
  EXPECT_EQ(SelectRowsEncoded(enc, Predicate::True()),
            (std::vector<int>{0, 1, 2}));
}

// The SQL path at the int64 bounds: the lexer's '-' and digits, the
// literal's range check, and the binder's compare must meet exactly.
TEST(PredicateFuzz, SqlLiteralsAtTheInt64Bounds) {
  constexpr int64_t kMax = INT64_MAX;
  constexpr int64_t kMin = INT64_MIN;
  const TableSchema schema = Schema("ab");
  Table table(schema);
  for (const int64_t v : {kMax, kMin, int64_t{0}, kMax - 1, kMin + 1}) {
    ASSERT_OK(table.AddRow(Tuple({Value::Int(v), Value::Str("it's")})));
  }
  ASSERT_OK(table.AddRow(Tuple({Value::Null(), Value::Null()})));
  const Value max = Value::Int(kMax);
  const Value min = Value::Int(kMin);
  const Predicate preds[] = {
      Predicate::And({Cmp(0, CompareOp::kEq, max)}),
      Predicate::And({Cmp(0, CompareOp::kEq, min)}),
      Predicate::And({Cmp(0, CompareOp::kGt, max)}),
      Predicate::And({Cmp(0, CompareOp::kLt, min)}),
      Predicate::And({Cmp(0, CompareOp::kGe, min)}),
      Predicate::And({Cmp(0, CompareOp::kNe, max)}),
      Predicate::And({Between(0, min, max)}),
      Predicate::And({Between(0, max, min)}),
      Predicate::And({In(0, {min, max, Value::Null()})}),
      Predicate::And({Cmp(0, CompareOp::kLe, Value::Int(kMin + 1)),
                      Cmp(1, CompareOp::kEq, Value::Str("it's"))}),
  };
  for (size_t p = 0; p < std::size(preds); ++p) {
    CheckSqlPath(table, preds[p], RowMajorSelect(table, preds[p]),
                 "int64 bound pred " + std::to_string(p));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ------------------------------------------- block/vector tail directed

// Runs one (table, predicate) pair through every dispatch level and
// demands oracle agreement.
void CheckAllLevels(const Table& table, const EncodedTable& enc,
                    const Predicate& dnf, const std::string& label) {
  const std::vector<int> expected = RowMajorSelect(table, dnf);
  LevelSweepGuard guard;
  for (const simd::Level level : SweepLevels()) {
    simd::SetLevelForTesting(level);
    ASSERT_EQ(SelectRowsEncoded(enc, dnf), expected)
        << label << " level " << simd::LevelName(level);
  }
}

// EvalBlock tail handling: lengths below one vector, lengths that are
// not a multiple of any vector width (8/4), and the kBlock=2048 seams
// of the one-pass scan: 2049 (one full block plus a one-row tail),
// 4095–4097 around the second block boundary, and 6145 (three full
// blocks plus a one-row tail). Column b marks the first and the last
// row of each block, so `b = 1` keeps exactly the rows at the seams.
// BlockMayMatch, counted on a constructed table: column k holds b in
// every row of block b (ten blocks, the last one short; codes equal
// values), column n is ⊥ throughout block 3 and 0 elsewhere. Each atom
// kind admits exactly the blocks its matchable codes meet.
TEST(PredicateFuzz, BlockMayMatchAdmitsOnlyBlocksWhoseZonesMeet) {
  constexpr int kB = CompiledPredicate::kBlock;
  constexpr AttributeId k = 0;
  constexpr AttributeId n = 1;
  const TableSchema schema = Schema("kn");
  Table table(schema);
  for (int r = 0; r < 10 * kB - 7; ++r) {
    const int b = r / kB;
    ASSERT_OK(table.AddRow(Tuple(
        {Value::Int(b), b == 3 ? Value::Null() : Value::Int(0)})));
  }
  auto admitted = [&](const EncodedTable& enc, const Predicate& pred) {
    const CompiledPredicate compiled(enc, pred);
    std::vector<int> blocks;
    for (int b = 0; b * kB < enc.num_rows(); ++b) {
      if (compiled.BlockMayMatch(b)) blocks.push_back(b);
    }
    return blocks;
  };
  auto one = [](PredicateAtom atom) { return Predicate::And({atom}); };
  using Blocks = std::vector<int>;
  const Value absent = Value::Int(99);
  const EncodedTable enc(table);

  EXPECT_EQ(admitted(enc, one(Cmp(k, CompareOp::kEq, Value::Int(4)))),
            Blocks({4}));
  EXPECT_EQ(admitted(enc, one(Cmp(k, CompareOp::kEq, absent))), Blocks({}));
  EXPECT_EQ(admitted(enc, one(Cmp(n, CompareOp::kEq, Value::Null()))),
            Blocks({3}));
  // <> rejects only a block holding nothing but its operand.
  EXPECT_EQ(admitted(enc, one(Cmp(k, CompareOp::kNe, Value::Int(4)))),
            Blocks({0, 1, 2, 3, 5, 6, 7, 8, 9}));
  EXPECT_EQ(admitted(enc, one(Cmp(n, CompareOp::kNe, Value::Int(0)))),
            Blocks({3}));
  EXPECT_EQ(admitted(enc, one(Between(k, Value::Int(2), Value::Int(4)))),
            Blocks({2, 3, 4}));
  EXPECT_EQ(admitted(enc, one(Cmp(k, CompareOp::kGt, Value::Int(7)))),
            Blocks({8, 9}));
  EXPECT_EQ(admitted(enc, one(Cmp(k, CompareOp::kLt, Value::Int(-3)))),
            Blocks({}));
  EXPECT_EQ(admitted(enc, one(In(k, {Value::Int(7), Value::Int(1), absent}))),
            Blocks({1, 7}));
  EXPECT_EQ(admitted(enc, one(In(n, {Value::Null(), absent}))), Blocks({3}));
  // A conjunction admits the blocks every atom admits; a disjunction
  // the blocks any disjunct admits.
  EXPECT_EQ(admitted(enc, Predicate::And(
                              {Cmp(k, CompareOp::kLe, Value::Int(5)),
                               Cmp(n, CompareOp::kEq, Value::Int(0))})),
            Blocks({0, 1, 2, 4, 5}));
  Predicate either;
  either.disjuncts.push_back({Cmp(k, CompareOp::kEq, Value::Int(1))});
  either.disjuncts.push_back({Cmp(k, CompareOp::kGe, Value::Int(8)),
                              Cmp(n, CompareOp::kEq, Value::Null())});
  EXPECT_EQ(admitted(enc, either), Blocks({1}));
  either.disjuncts.push_back({Cmp(k, CompareOp::kEq, Value::Int(8))});
  EXPECT_EQ(admitted(enc, either), Blocks({1, 8}));
  EXPECT_EQ(admitted(enc, Predicate::True()).size(), 10u);

  // An out-of-order value leaves k's dictionary unordered: a range then
  // compiles to a rank interval, which rejects no block, while equality
  // still rejects by code.
  EncodedTable unordered = enc;
  unordered.AppendRow(Tuple({Value::Int(-1), Value::Int(0)}));
  ASSERT_FALSE(unordered.DictionaryOrdered(k));
  EXPECT_EQ(
      admitted(unordered, one(Between(k, Value::Int(2), Value::Int(4)))).size(),
      10u);
  EXPECT_EQ(admitted(unordered, one(Cmp(k, CompareOp::kEq, Value::Int(4)))),
            Blocks({4}));
}

TEST(PredicateFuzz, BlockAndVectorTailsAgreeAtEveryLevel) {
  constexpr int kBlock = CompiledPredicate::kBlock;
  const TableSchema schema = Schema("ab");
  for (int rows :
       {1, 3, 7, 8, 9, 37, 2047, 2048, 2049, 4095, 4096, 4097, 6145}) {
    Table table(schema);
    for (int i = 0; i < rows; ++i) {
      const bool edge =
          i % kBlock == 0 || i % kBlock == kBlock - 1 || i == rows - 1;
      ASSERT_OK(table.AddRow(Tuple(
          {i % 11 == 3 ? Value::Null() : Value::Int(i % 5),
           Value::Int(edge ? 1 : 0)})));
    }
    const EncodedTable enc(table);

    // eq, interval, IN (byte table), a two-disjunct OR merge, and the
    // block-edge rows.
    Predicate two = Predicate::And({Cmp(0, CompareOp::kEq, Value::Int(0))});
    two.disjuncts.push_back({Cmp(0, CompareOp::kEq, Value::Int(4))});
    const Predicate preds[] = {
        Predicate::And({Cmp(0, CompareOp::kEq, Value::Int(2))}),
        Predicate::And({Cmp(0, CompareOp::kNe, Value::Int(2))}),
        Predicate::And({Between(0, Value::Int(1), Value::Int(3))}),
        Predicate::And({In(0, {Value::Int(0), Value::Int(4)})}),
        std::move(two),
        Predicate::And({Cmp(1, CompareOp::kEq, Value::Int(1))}),
    };
    for (size_t p = 0; p < std::size(preds); ++p) {
      CheckAllLevels(table, enc, preds[p],
                     "rows " + std::to_string(rows) + " pred " +
                         std::to_string(p));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// Dictionary-size boundaries for the gather kernels' clamp: d = 0
// (all-⊥ column — every code is a sentinel), d = 1, and a d = 2
// unordered dictionary that forces the rank-gather path.
TEST(PredicateFuzz, TinyDictionaryClampAtEveryLevel) {
  const TableSchema schema = Schema("a");

  // d = 0: 2500 rows of ⊥ spans a block boundary with no real codes.
  {
    Table table(schema);
    for (int i = 0; i < 2500; ++i) {
      ASSERT_OK(table.AddRow(Tuple({Value::Null()})));
    }
    const EncodedTable enc(table);
    const Predicate preds[] = {
        Predicate::And({Cmp(0, CompareOp::kGe, Value::Int(0))}),
        Predicate::And({Cmp(0, CompareOp::kEq, Value::Null())}),
        Predicate::And({Cmp(0, CompareOp::kNe, Value::Null())}),
        Predicate::And({In(0, {Value::Null(), Value::Int(1)})}),
    };
    for (size_t p = 0; p < std::size(preds); ++p) {
      CheckAllLevels(table, enc, preds[p], "d=0 pred " + std::to_string(p));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  // d = 1: a single distinct value mixed with ⊥ across the boundary.
  {
    Table table(schema);
    for (int i = 0; i < 2049; ++i) {
      ASSERT_OK(table.AddRow(Tuple(
          {i % 2 == 0 ? Value::Int(7) : Value::Null()})));
    }
    const EncodedTable enc(table);
    const Predicate preds[] = {
        Predicate::And({Cmp(0, CompareOp::kEq, Value::Int(7))}),
        Predicate::And({Cmp(0, CompareOp::kLt, Value::Int(7))}),
        Predicate::And({Between(0, Value::Int(7), Value::Int(7))}),
        Predicate::And({In(0, {Value::Int(7), Value::Int(8)})}),
    };
    for (size_t p = 0; p < std::size(preds); ++p) {
      CheckAllLevels(table, enc, preds[p], "d=1 pred " + std::to_string(p));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  // d = 2 with values first seen out of order (9 before 7): the
  // dictionary is NOT order-preserving, so ordered atoms compile to
  // rank intervals and exercise the rank-gather kernel with d = 2.
  {
    Table table(schema);
    for (int i = 0; i < 2049; ++i) {
      ASSERT_OK(table.AddRow(Tuple({Value::Int(i % 3 == 0 ? 9 : 7)})));
    }
    const EncodedTable enc(table);
    const Predicate preds[] = {
        Predicate::And({Cmp(0, CompareOp::kLt, Value::Int(9))}),
        Predicate::And({Cmp(0, CompareOp::kGe, Value::Int(8))}),
        Predicate::And({Between(0, Value::Int(7), Value::Int(8))}),
    };
    for (size_t p = 0; p < std::size(preds); ++p) {
      CheckAllLevels(table, enc, preds[p],
                     "unordered d=2 pred " + std::to_string(p));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace sqlnf

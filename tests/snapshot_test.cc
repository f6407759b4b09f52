// Snapshot reads (engine/catalog.h): copy-on-write column sharing
// keeps a published snapshot bit-stable while the writer keeps
// mutating; GetSnapshot publishes committed state only (never
// mid-transaction rows); and concurrent reader threads always observe
// a state bit-identical to some prefix of the writer's serial commit
// schedule. The multi-threaded sections carry the `concurrency` ctest
// label and run under TSan in CI.

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "reference_oracle.h"
#include "sqlnf/core/encoded_table.h"
#include "sqlnf/engine/catalog.h"
#include "sqlnf/engine/predicate.h"
#include "sqlnf/engine/txn.h"
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

// The core copy-on-write contract: a copied EncodedTable stays
// bit-identical across every mutating entry point of the original.
TEST(SnapshotTest, CopyOnWriteKeepsCopiesBitStable) {
  TableSchema schema = Schema("abc");
  EncodedTable live(Rows(schema, {"1xp", "2yq", "3z_"}));
  const EncodedTable frozen = live;  // O(columns) pointer share
  const EncodedTable expected(Rows(schema, {"1xp", "2yq", "3z_"}));

  live.AppendRow(Row({"4", "w", "r"}));
  EXPECT_TRUE(frozen.BitIdentical(expected));
  live.UpdateCell(0, 1, Value::Str("mutated"));
  EXPECT_TRUE(frozen.BitIdentical(expected));
  live.EraseRows({1, 2});
  EXPECT_TRUE(frozen.BitIdentical(expected));
  live.TrimDictionaries(std::vector<int>(3, 1));
  EXPECT_TRUE(frozen.BitIdentical(expected));
  EXPECT_FALSE(live.BitIdentical(expected));

  // And the other direction: the copy detaches before ITS mutation,
  // leaving the original alone.
  EncodedTable fork = expected;
  fork.AppendRow(Row({"9", "9", "9"}));
  EXPECT_EQ(expected.num_rows(), 3);
  EXPECT_TRUE(fork.column(0).size() == 4u);
}

TEST(SnapshotTest, SnapshotAdvancesOnlyAtCommitPoints) {
  WriterScope writer;
  Database db;
  TableSchema schema = Schema("ab", "a");
  ASSERT_OK(db.CreateTable(schema, ConstraintSet()));
  ASSERT_OK(db.Insert("T", Row({"1", "x"})));

  ASSERT_OK_AND_ASSIGN(TableSnapshot s1, db.GetSnapshot("T"));
  EXPECT_EQ(s1.num_rows(), 1);

  // Same committed state → same epoch, same columns.
  ASSERT_OK_AND_ASSIGN(TableSnapshot again, db.GetSnapshot("T"));
  EXPECT_EQ(again.epoch, s1.epoch);
  EXPECT_TRUE(again.columns->BitIdentical(*s1.columns));

  // An auto-committed statement publishes a fresh epoch...
  ASSERT_OK(db.Insert("T", Row({"2", "y"})));
  ASSERT_OK_AND_ASSIGN(TableSnapshot s2, db.GetSnapshot("T"));
  EXPECT_GT(s2.epoch, s1.epoch);
  EXPECT_EQ(s2.num_rows(), 2);
  // ...while the old snapshot stays bit-stable on its own columns.
  EXPECT_EQ(s1.num_rows(), 1);
  EXPECT_EQ(s1.columns->code(0, 0),
            s1.columns->LookupCode(0, Value::Str("1")));

  // Mid-transaction mutations are invisible: readers keep the
  // pre-transaction epoch until COMMIT.
  ASSERT_OK(db.Begin());
  ASSERT_OK(db.Insert("T", Row({"3", "z"})));
  ASSERT_OK_AND_ASSIGN(TableSnapshot mid, db.GetSnapshot("T"));
  EXPECT_EQ(mid.epoch, s2.epoch);
  EXPECT_EQ(mid.num_rows(), 2);
  ASSERT_OK(db.Commit());
  ASSERT_OK_AND_ASSIGN(TableSnapshot s3, db.GetSnapshot("T"));
  EXPECT_EQ(s3.num_rows(), 3);

  // An aborted transaction publishes nothing.
  ASSERT_OK(db.Begin());
  ASSERT_OK(db.Insert("T", Row({"4", "w"})));
  ASSERT_OK(db.Rollback());
  ASSERT_OK_AND_ASSIGN(TableSnapshot s4, db.GetSnapshot("T"));
  EXPECT_EQ(s4.epoch, s3.epoch);
  EXPECT_TRUE(s4.columns->BitIdentical(*s3.columns));
}

TEST(SnapshotTest, SelectFromSnapshotMatchesMaterialized) {
  WriterScope writer;
  Database db;
  TableSchema schema = Schema("abc", "a");
  ASSERT_OK(db.IngestTable(
      Rows(schema, {"1xp", "2yp", "3x_", "4xq"}), ConstraintSet()));
  ASSERT_OK_AND_ASSIGN(TableSnapshot snap, db.GetSnapshot("T"));

  ASSERT_OK_AND_ASSIGN(
      Table hits,
      SelectFromSnapshot(snap, WhereEq(1, Value::Str("x"))));
  EXPECT_EQ(hits.num_rows(), 3);
  ASSERT_OK_AND_ASSIGN(
      Table nulls, SelectFromSnapshot(snap, WhereEq(2, Value::Null())));
  EXPECT_EQ(nulls.num_rows(), 1);  // marker equality: ⊥ matches ⊥
  EXPECT_FALSE(
      SelectFromSnapshot(snap, WhereEq(7, Value::Str("x"))).ok());

  // The snapshot keeps serving after the table is dropped — columns
  // are refcounted, not epoch-swept.
  ASSERT_OK(db.DropTable("T"));
  ASSERT_OK_AND_ASSIGN(
      Table after_drop,
      SelectFromSnapshot(snap, WhereEq(1, Value::Str("x"))));
  EXPECT_EQ(after_drop.num_rows(), 3);
}

// Many readers against one writer. The writer commits batches of
// kBatch rows atomically (one transaction per batch, plus interspersed
// rejected statements and one aborted transaction per batch); readers
// continuously take snapshots and verify each one is bit-identical to
// the serial execution prefix after some whole number of commits —
// never a torn batch, never an uncommitted row. Runs under TSan via
// the `concurrency` ctest label.
TEST(SnapshotTest, ConcurrentReadersSeeCommittedPrefixesOnly) {
  WriterScope writer;
  constexpr int kBatches = 60;
  constexpr int kBatch = 3;
  Database db;
  TableSchema schema = Schema("ab", "a");
  ASSERT_OK(db.CreateTable(schema, Sigma(schema, "c<a>")));

  // The serial schedule: batch k appends rows 3k..3k+2 with values
  // ("<id>", "v<batch>"). Readers recompute any prefix locally.
  auto cell = [](int row) {
    return std::pair<std::string, std::string>{
        std::to_string(row), "v" + std::to_string(row / kBatch)};
  };

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  const int readers =
      std::max(2u, std::min(4u, std::thread::hardware_concurrency()));
  std::vector<std::thread> pool;
  for (int r = 0; r < readers; ++r) {
    pool.emplace_back([&] {
      uint64_t last_epoch = 0;
      int last_rows = 0;
      while (!done.load(std::memory_order_acquire)) {
        auto snap = db.GetSnapshot("T");
        if (!snap.ok()) {
          ++failures;
          return;
        }
        const TableSnapshot& s = *snap;
        // Committed prefixes only: whole batches, monotone progress.
        if (s.num_rows() % kBatch != 0 || s.num_rows() < last_rows ||
            s.epoch < last_epoch) {
          ++failures;
          return;
        }
        last_rows = s.num_rows();
        last_epoch = s.epoch;
        // Bit-identical to the serial prefix: every cell decodes to
        // the scheduled value, with no lock held while reading.
        for (int i = 0; i < s.num_rows(); ++i) {
          const auto [a, b] = cell(i);
          if (!(s.columns->DecodeCode(0, s.columns->code(0, i)) ==
                Value::Str(a)) ||
              !(s.columns->DecodeCode(1, s.columns->code(1, i)) ==
                Value::Str(b))) {
            ++failures;
            return;
          }
        }
        // Exercise the read path end to end as well.
        if (s.num_rows() > 0) {
          const auto [a, b] = cell(s.num_rows() - 1);
          auto hit = SelectFromSnapshot(s, WhereEq(0, Value::Str(a)));
          if (!hit.ok() || hit->num_rows() != 1) {
            ++failures;
            return;
          }
        }
      }
    });
  }

  for (int k = 0; k < kBatches; ++k) {
    // A rejected auto-commit statement (key collision) before the
    // batch: publishes nothing, mutates nothing.
    if (k > 0) {
      const auto [a, b] = cell(0);
      ASSERT_FALSE(db.Insert("T", Row({a.c_str(), "dup"})).ok());
    }
    {
      TransactionGuard txn(&db);
      ASSERT_OK(txn.begin_status());
      for (int j = 0; j < kBatch; ++j) {
        const auto [a, b] = cell(k * kBatch + j);
        ASSERT_OK(db.Insert("T", Row({a.c_str(), b.c_str()})));
      }
      ASSERT_OK(txn.Commit());
    }
    // An aborted transaction after the batch: also invisible.
    {
      TransactionGuard txn(&db);
      ASSERT_OK(txn.begin_status());
      ASSERT_OK(db.Insert("T", Row({"uncommitted", "never"})));
      ASSERT_OK(
          db.Update("T", WhereEq(0, Value::Str("0")), 1, Value::Str("scribble"))
              .status());
    }  // guard rolls back
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(failures.load(), 0);

  ASSERT_OK_AND_ASSIGN(TableSnapshot final_snap, db.GetSnapshot("T"));
  EXPECT_EQ(final_snap.num_rows(), kBatches * kBatch);
  ASSERT_OK_AND_ASSIGN(const StoredTable* stored, db.Find("T"));
  EXPECT_OK(stored->enforcer().CheckInvariants());
  EXPECT_TRUE(final_snap.columns->BitIdentical(stored->columns()));
}

// Satellite: the enforcer index for a possible (strong) constraint
// hashes the FULL similarity-attribute set, so an all-nullable key
// fans out across buckets instead of degenerating to one bucket with
// O(n) probes per insert; rows with ⊥ on the key are not indexed at
// all (strong similarity can never relate them).
TEST(SnapshotTest, StrongConstraintIndexFansOutOnNullableKey) {
  WriterScope writer;
  TableSchema schema = Schema("ab");  // no NOT NULL attribute anywhere
  ConstraintSet sigma = testing::Sigma(schema, "p<ab>");
  IncrementalEnforcer enforcer(schema, sigma);
  const int kRows = 64;
  for (int i = 0; i < kRows; ++i) {
    const Tuple row({Value::Int(i), Value::Int(i % 7)});
    ASSERT_FALSE(enforcer.Check(row, i).has_value()) << i;
    enforcer.Add(row, i);
  }
  // A few ⊥-bearing rows: never strongly similar to anything, accepted
  // and NOT indexed.
  for (int i = 0; i < 5; ++i) {
    const Tuple row({Value::Null(), Value::Int(0)});
    ASSERT_FALSE(enforcer.Check(row, kRows + i).has_value());
    enforcer.Add(row, kRows + i);
  }
  ASSERT_EQ(enforcer.num_indexes(), 1);
  const IncrementalEnforcer::IndexStats stats = enforcer.Stats(0);
  EXPECT_EQ(stats.indexed_rows, kRows);  // ⊥ rows skipped
  EXPECT_EQ(stats.buckets, kRows);       // distinct (a,b) pairs
  EXPECT_EQ(stats.largest_bucket, 1);    // no single-bucket degeneracy
  EXPECT_OK(enforcer.CheckInvariants());
  // Duplicates still caught through the fan-out index.
  EXPECT_TRUE(enforcer.Check(Tuple({Value::Int(3), Value::Int(3)}),
                             kRows + 5)
                  .has_value());
}

// Satellite: Database::Select gathers the selection vector columnar
// (GatherRows) and decodes once at the boundary; result must be the
// same multiset of rows the per-row decode reference produces.
TEST(SnapshotTest, SelectMatchesPerRowDecodeReference) {
  WriterScope writer;
  Rng rng(77);
  for (int trial = 0; trial < 6; ++trial) {
    const int n = 2 + static_cast<int>(rng.Uniform(0, 2));
    const TableSchema schema = testing::RandomSchema(&rng, n);
    const Table data = testing::RandomInstance(&rng, schema, 40);
    Database db;
    ASSERT_OK(db.IngestTable(data, ConstraintSet()));
    ASSERT_OK_AND_ASSIGN(const StoredTable* stored, db.Find("T"));

    const AttributeId col = static_cast<AttributeId>(rng.Index(n));
    const Predicate where = WhereEq(
        col, rng.Chance(0.3) ? Value::Null() : Value::Int(rng.Uniform(0, 2)));
    ASSERT_OK_AND_ASSIGN(Table got, db.Select("T", where));

    // Reference: per-row decode + row-major condition check, in order.
    Table want(schema);
    for (int i = 0; i < stored->num_rows(); ++i) {
      const Tuple t = stored->DecodeRow(i);
      if (MatchesPredicate(t, where)) {
        ASSERT_OK(want.AddRow(t));
      }
    }
    ASSERT_EQ(got.num_rows(), want.num_rows()) << "trial=" << trial;
    const AttributeSet all = AttributeSet::FullSet(n);
    for (int i = 0; i < got.num_rows(); ++i) {
      EXPECT_TRUE(testing::OracleEqualOn(got.row(i), want.row(i), all))
          << "trial=" << trial << " row=" << i;
    }
  }
}

// Range-scan readers race a committing writer — and a periodic VACUUM
// that renumbers every dictionary code. Each reader grabs a snapshot,
// runs SelectFromSnapshot with a range/IN/OR predicate tree, and
// checks the selection against a per-row decode of the SAME snapshot:
// whatever version the reader caught, the compiled columnar scan and
// the row-major oracle must agree, and published snapshots must stay
// bit-stable while compaction publishes fresh column versions
// underneath them. Runs under TSan via the `concurrency` ctest label.
TEST(SnapshotTest, RangeScanReadersRaceCommittingWriterAndVacuum) {
  WriterScope writer;
  constexpr int kSteps = 120;
  Database db;
  TableSchema schema = Schema("ab", "a");
  ASSERT_OK(db.CreateTable(schema, Sigma(schema, "c<a>")));

  // Zero-padded ids so string order equals append order; column b
  // cycles through a tiny domain plus ⊥.
  auto id = [](int i) { return std::to_string(1000 + i).substr(1); };

  // The predicates the readers rotate through: a pure range, a BETWEEN
  // ∧ IN conjunction, and an OR of two conjunctions with a ⊥ atom.
  std::vector<Predicate> preds;
  preds.push_back(Predicate::And({Cmp(0, CompareOp::kGe, Value::Str("050"))}));
  preds.push_back(Predicate::And(
      {Between(0, Value::Str("020"), Value::Str("090")),
       In(1, {Value::Str("v0"), Value::Str("v2")})}));
  {
    Predicate p;
    p.disjuncts.push_back({Cmp(0, CompareOp::kLt, Value::Str("030"))});
    p.disjuncts.push_back({Cmp(1, CompareOp::kEq, Value::Null()),
                           Cmp(0, CompareOp::kGt, Value::Str("060"))});
    preds.push_back(std::move(p));
  }

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  const int readers =
      std::max(2u, std::min(4u, std::thread::hardware_concurrency()));
  std::vector<std::thread> pool;
  for (int r = 0; r < readers; ++r) {
    pool.emplace_back([&, r] {
      int turn = r;
      while (!done.load(std::memory_order_acquire)) {
        auto snap = db.GetSnapshot("T");
        if (!snap.ok()) {
          ++failures;
          return;
        }
        const TableSnapshot& s = *snap;
        const Predicate& pred = preds[turn++ % preds.size()];
        auto got = SelectFromSnapshot(s, pred);
        if (!got.ok()) {
          ++failures;
          return;
        }
        // Row-major oracle over the same immutable snapshot.
        int want = 0;
        bool rows_match = true;
        for (int i = 0; i < s.num_rows(); ++i) {
          std::vector<Value> cells;
          for (AttributeId a = 0; a < 2; ++a) {
            const uint32_t code = s.columns->code(a, i);
            cells.push_back(code == EncodedTable::kNullCode
                                ? Value::Null()
                                : s.columns->DecodeCode(a, code));
          }
          const Tuple t(std::move(cells));
          if (MatchesPredicate(t, pred)) {
            if (want >= got->num_rows() ||
                !testing::OracleEqualOn(got->row(want), t,
                                        AttributeSet::FullSet(2))) {
              rows_match = false;
              break;
            }
            ++want;
          }
        }
        if (!rows_match || want != got->num_rows()) {
          ++failures;
          return;
        }
      }
    });
  }

  for (int k = 0; k < kSteps; ++k) {
    const std::string b = "v" + std::to_string(k % 3);
    ASSERT_OK(db.Insert(
        "T", Row({id(k).c_str(), k % 5 == 0 ? nullptr : b.c_str()})));
    if (k % 7 == 3) {
      // Strand a dictionary entry, then reclaim it: the next VACUUM
      // races the readers' in-flight snapshots.
      ASSERT_OK(db.Update("T", WhereEq(0, Value::Str(id(k))), 1,
                          Value::Str("rewritten"))
                    .status());
      ASSERT_OK(
          db.Update("T", WhereEq(0, Value::Str(id(k))), 1, Value::Str(b))
              .status());
    }
    if (k % 10 == 9) {
      ASSERT_OK_AND_ASSIGN(const int retired, db.CompactTable("T"));
      (void)retired;
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(failures.load(), 0);

  ASSERT_OK_AND_ASSIGN(const StoredTable* stored, db.Find("T"));
  EXPECT_OK(stored->enforcer().CheckInvariants());
  EXPECT_EQ(stored->num_rows(), kSteps);
}

}  // namespace
}  // namespace sqlnf

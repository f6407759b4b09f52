// Snapshot reads (engine/catalog.h): copy-on-write column sharing
// keeps a published snapshot bit-stable while the writer keeps
// mutating; GetSnapshot publishes committed state only (never
// mid-transaction rows); and concurrent reader threads always observe
// a state bit-identical to some prefix of the writer's serial commit
// schedule. The multi-threaded sections carry the `concurrency` ctest
// label and run under TSan in CI.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "reference_oracle.h"
#include "sqlnf/core/encoded_table.h"
#include "sqlnf/engine/catalog.h"
#include "sqlnf/engine/predicate.h"
#include "sqlnf/engine/relops.h"
#include "sqlnf/engine/sql.h"
#include "sqlnf/engine/txn.h"
#include "test_util.h"

namespace sqlnf {
namespace {

using testing::EncodingBits;
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

TEST(SnapshotTest, ReadOnlySqlServesTheSnapshotMap) {
  WriterScope writer;
  Database db;
  TableSchema schema = Schema("abc", "a");
  ASSERT_OK(db.IngestTable(
      Rows(schema, {"1xp", "2yp", "3x_", "4xq"}), ConstraintSet()));
  const std::map<std::string, TableSnapshot> snaps = db.SnapshotAll();
  // Rows a read-only statement returns from the map; -1 on error.
  auto rows = [&](const char* sql) {
    Result<QueryResult> r = ExecuteReadOnly(snaps, sql);
    return r.ok() ? r->rows->num_rows() : -1;
  };

  EXPECT_EQ(rows("SELECT * FROM T WHERE b = 'x';"), 3);
  EXPECT_EQ(rows("SELECT a FROM T WHERE c = NULL;"), 1);  // ⊥ matches ⊥
  EXPECT_EQ(rows("SELECT * FROM T WHERE z = 'x';"), -1);

  // The snapshots keep serving after the table is dropped — columns
  // are refcounted, not epoch-swept.
  ASSERT_OK(db.DropTable("T"));
  EXPECT_EQ(rows("SELECT * FROM T WHERE b = 'x';"), 3);
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
          if (SelectRowsEncoded(*s.columns, WhereEq(0, Value::Str(a)))
                  .size() != 1) {
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

// Range-scan readers race a committing writer — and a periodic VACUUM
// that renumbers every dictionary code. Each reader grabs a snapshot,
// selects on its columns with a range/IN/OR predicate tree, and
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
        const Table got =
            s.columns->GatherRows(SelectRowsEncoded(*s.columns, pred))
                .Decode(s.schema);
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
            if (want >= got.num_rows() ||
                !testing::OracleEqualOn(got.row(want), t,
                                        AttributeSet::FullSet(2))) {
              rows_match = false;
              break;
            }
            ++want;
          }
        }
        if (!rows_match || want != got.num_rows()) {
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

// Gathers of a snapshot share its dictionaries. The writer's dictionary
// changes — an INSERT and an UPDATE that mint values, a rolled-back
// transaction that trims its mints, a VACUUM that compacts — clone a
// shared dictionary before writing, so the snapshot and a gather taken
// from it stay exactly as they were.
TEST(SnapshotTest, GatheredSnapshotColumnsSurviveDictionaryChanges) {
  WriterScope writer;
  Database db;
  TableSchema schema = Schema("ab", "a");
  ASSERT_OK(db.CreateTable(schema, Sigma(schema, "c<a>")));
  ASSERT_OK(db.Insert("T", Row({"1", "x"})));
  ASSERT_OK(db.Insert("T", Row({"2", "y"})));
  ASSERT_OK(db.Insert("T", Row({"3", nullptr})));
  ASSERT_OK_AND_ASSIGN(TableSnapshot snap, db.GetSnapshot("T"));
  const EncodedTable gathered = snap.columns->GatherRows({2, 0});
  const EncodingBits snap_bits(*snap.columns);
  const EncodingBits gathered_bits(gathered);
  auto expect_stable = [&](const char* after) {
    EXPECT_TRUE(EncodingBits(*snap.columns) == snap_bits) << after;
    EXPECT_TRUE(EncodingBits(gathered) == gathered_bits) << after;
  };

  ASSERT_OK(db.Insert("T", Row({"4", "minted-by-insert"})));
  expect_stable("INSERT");
  ASSERT_OK(db.Update("T", WhereEq(0, Value::Str("1")), 1,
                      Value::Str("minted-by-update"))
                .status());
  expect_stable("UPDATE");
  ASSERT_OK(db.Begin());
  ASSERT_OK(db.Insert("T", Row({"5", "minted-in-txn"})));
  ASSERT_OK(db.Rollback());
  expect_stable("ROLLBACK");
  ASSERT_OK(db.CompactTable("T").status());
  expect_stable("VACUUM");

  ASSERT_OK_AND_ASSIGN(const StoredTable* stored, db.Find("T"));
  EXPECT_OK(stored->enforcer().CheckInvariants());
  EXPECT_EQ(stored->num_rows(), 4);
}

// Readers run a filtered NATURAL JOIN through ExecuteReadOnly while the
// writer commits inserts that mint new values in the join column and
// in the filter columns of both tables, and rolls back others that
// mint too. The readers' filtered inputs and join outputs share their
// snapshot's dictionaries, which the writer must clone, not write,
// while they are shared. Every reader result must be the oracle's
// answer on the committed prefix its snapshot holds. Runs under TSan
// via the `concurrency` ctest label.
TEST(SnapshotTest, FilteredJoinReadersRaceMintingWriter) {
  WriterScope writer;
  constexpr int kBatches = 80;
  Database db;
  ASSERT_OK_AND_ASSIGN(TableSchema left,
                       TableSchema::Make("L", {"k", "a"}, {"k"}));
  ASSERT_OK_AND_ASSIGN(TableSchema right,
                       TableSchema::Make("R", {"k", "b"}, {}));
  ASSERT_OK(db.CreateTable(left, ConstraintSet{}));
  ASSERT_OK(db.CreateTable(right, ConstraintSet{}));

  // Batch j commits L (k<j>, a<j mod 3>) and R (k<j>, b<j>).
  auto key = [](int j) { return "k" + std::to_string(j); };
  auto joined_row = [&](int j) {
    return Tuple({Value::Str(key(j)), Value::Str("a" + std::to_string(j % 3)),
                  Value::Str("b" + std::to_string(j))});
  };

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<int> nonempty{0};
  const int readers =
      std::max(2u, std::min(4u, std::thread::hardware_concurrency()));
  std::vector<std::thread> pool;
  for (int r = 0; r < readers; ++r) {
    pool.emplace_back([&, r] {
      uint32_t seed = 7919u * static_cast<uint32_t>(r + 1);
      // One last read after the writer is done sees every batch.
      for (bool last = false; !last;) {
        last = done.load(std::memory_order_acquire);
        const std::map<std::string, TableSnapshot> snaps = db.SnapshotAll();
        const int prefix = snaps.at("L").num_rows();
        if (snaps.at("R").num_rows() != prefix) {
          ++failures;
          return;
        }
        seed = seed * 1103515245u + 12345u;
        const int t = static_cast<int>((seed >> 4) % kBatches);
        const int u = static_cast<int>((seed >> 12) % kBatches);
        const int v = static_cast<int>((seed >> 20) % 3);
        const std::string sql =
            "SELECT * FROM L NATURAL JOIN R WHERE k = '" + key(t) +
            "' OR b = 'b" + std::to_string(u) + "' AND a = 'a" +
            std::to_string(v) + "';";
        const Result<QueryResult> got = ExecuteReadOnly(snaps, sql);
        if (!got.ok()) {
          ++failures;
          return;
        }
        std::vector<int> want;
        for (int j = 0; j < prefix; ++j) {
          if (j == t || (j == u && j % 3 == v)) want.push_back(j);
        }
        const Table& rows = *got->rows;
        if (rows.num_rows() != static_cast<int>(want.size())) {
          ++failures;
          return;
        }
        for (int i = 0; i < rows.num_rows(); ++i) {
          if (!(rows.row(i) == joined_row(want[i]))) {
            ++failures;
            return;
          }
        }
        if (!want.empty()) ++nonempty;
      }
    });
  }

  for (int j = 0; j < kBatches; ++j) {
    {
      TransactionGuard txn(&db);
      ASSERT_OK(txn.begin_status());
      const Tuple row = joined_row(j);
      ASSERT_OK(db.Insert("L", Tuple({row[0], row[1]})));
      ASSERT_OK(db.Insert("R", Tuple({row[0], row[2]})));
      ASSERT_OK(txn.Commit());
    }
    {
      // Mints that must never show: the guard rolls them back.
      TransactionGuard txn(&db);
      ASSERT_OK(txn.begin_status());
      const std::string n = std::to_string(j);
      ASSERT_OK(db.Insert(
          "L", Tuple({Value::Str("kx" + n), Value::Str("ax" + n)})));
      ASSERT_OK(db.Insert(
          "R", Tuple({Value::Str("kx" + n), Value::Str("bx" + n)})));
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(nonempty.load(), readers);

  for (const char* name : {"L", "R"}) {
    ASSERT_OK_AND_ASSIGN(const StoredTable* stored, db.Find(name));
    EXPECT_OK(stored->enforcer().CheckInvariants());
    EXPECT_EQ(stored->num_rows(), kBatches);
  }
}

// Readers look keys up through ExecuteReadOnly while the writer loops
// the front-door rw transaction: 8 UPDATEs by key, an INSERT of a
// fresh key and a DELETE of the previous one by key — statements whose
// rows the writer finds through the certain key's index, and whose
// DELETE renumbers it. Some transactions commit, others roll back.
// Every read must return exactly one row for a base key and at most
// one for a fresh key, each with a status some committed transaction
// (or the initial load) wrote. Runs under TSan via the `concurrency`
// ctest label.
TEST(SnapshotTest, KeyLookupReadersRaceKeyPinnedWriter) {
  WriterScope writer;
  constexpr int kKeys = 200;
  constexpr int kTxns = 60;
  Database db;
  ASSERT_OK_AND_ASSIGN(TableSchema schema,
                       TableSchema::Make("K", {"k", "city", "s"}, {"k"}));
  ASSERT_OK(db.CreateTable(schema, Sigma(schema, "c<k>")));
  auto key = [](int i) { return "k" + std::to_string(1000 + i); };
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_OK(db.Insert("K", Row({key(i).c_str(), "c", "s0"})));
  }

  // committed[j] is set before transaction j commits, so a reader that
  // sees its writes also sees the flag.
  std::vector<std::atomic<bool>> committed(kTxns);
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<int> reads{0};
  auto committed_status = [&](const Value& v) {
    if (v.is_null() || v.kind() != Value::Kind::kString) return false;
    const std::string& text = v.str_value();
    if (text == "s0") return true;
    if (text.size() < 2 || text[0] != 't') return false;
    const int j = std::stoi(text.substr(1));
    return j >= 0 && j < kTxns && committed[j].load();
  };
  const int readers =
      std::max(2u, std::min(4u, std::thread::hardware_concurrency()));
  std::vector<std::thread> pool;
  for (int r = 0; r < readers; ++r) {
    pool.emplace_back([&, r] {
      uint32_t seed = 104729u * static_cast<uint32_t>(r + 1);
      for (bool last = false; !last;) {
        last = done.load(std::memory_order_acquire);
        seed = seed * 1103515245u + 12345u;
        const int pick = static_cast<int>((seed >> 8) % (kKeys + 2));
        const bool fresh = pick >= kKeys;
        const std::string k =
            fresh ? "f" + std::to_string(pick - kKeys) : key(pick);
        const Result<QueryResult> got = ExecuteReadOnly(
            db.SnapshotAll(), "SELECT s FROM K WHERE k = '" + k + "';");
        if (!got.ok()) {
          ++failures;
          return;
        }
        const Table& rows = *got->rows;
        if (rows.num_rows() > 1 || (!fresh && rows.num_rows() != 1) ||
            (rows.num_rows() == 1 && !committed_status(rows.row(0)[0]))) {
          ++failures;
          return;
        }
        ++reads;
      }
    });
  }

  SqlSession session(&db);
  int live_fresh = -1;  // the committed fresh key, if any
  uint32_t seed = 7u;
  for (int j = 0; j < kTxns; ++j) {
    ASSERT_OK(session.Execute("BEGIN;").status());
    std::vector<int> ids;
    while (ids.size() < 8) {
      seed = seed * 1664525u + 1013904223u;
      const int id = static_cast<int>((seed >> 8) % kKeys);
      if (std::find(ids.begin(), ids.end(), id) == ids.end()) {
        ids.push_back(id);
      }
    }
    for (int id : ids) {
      ASSERT_OK_AND_ASSIGN(
          const QueryResult updated,
          session.Execute("UPDATE K SET s = 't" + std::to_string(j) +
                          "' WHERE k = '" + key(id) + "';"));
      EXPECT_EQ(updated.affected, 1);
    }
    const int fresh = live_fresh == 0 ? 1 : 0;
    ASSERT_OK(session
                  .Execute("INSERT INTO K VALUES ('f" + std::to_string(fresh) +
                           "', 'c', 't" + std::to_string(j) + "');")
                  .status());
    if (live_fresh >= 0) {
      ASSERT_OK_AND_ASSIGN(
          const QueryResult deleted,
          session.Execute("DELETE FROM K WHERE k = 'f" +
                          std::to_string(live_fresh) + "';"));
      EXPECT_EQ(deleted.affected, 1);
    }
    if (j % 3 == 1) {
      ASSERT_OK(session.Execute("ROLLBACK;").status());
    } else {
      committed[j].store(true);
      ASSERT_OK(session.Execute("COMMIT;").status());
      live_fresh = fresh;
    }
  }
  // On a loaded machine the writer can finish before any reader runs.
  while (reads.load() == 0 && failures.load() == 0) {
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(failures.load(), 0);

  ASSERT_OK_AND_ASSIGN(const StoredTable* stored, db.Find("K"));
  EXPECT_OK(stored->enforcer().CheckInvariants());
  EXPECT_EQ(stored->num_rows(), kKeys + 1);
}

}  // namespace
}  // namespace sqlnf

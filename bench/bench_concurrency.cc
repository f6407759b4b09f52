// Mixed read/write concurrency bench over the snapshot machinery
// (EXPERIMENTS.md E16): ONE writer thread batching transactions through
// the incremental enforcer while {1, 4, 16} reader threads stream
// point SELECTs the way the server's read path runs them: SnapshotAll,
// then ExecuteReadOnly on the snapshot map. Readers never block the
// writer beyond the snapshot-publication mutex; the parse, scan and
// decode run on an immutable epoch.
//
// Emits BENCH_concurrency.json: one record per (op, reader count) with
// the read/write mix, aggregate ops/sec, and per-op p99 latency, for
// the plots in EXPERIMENTS.md. Shape checks (not timing gates): zero
// reader errors, per-reader monotone epochs and row counts, final
// enforcer invariants, and the last published snapshot bit-identical
// to the live encoding.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "sqlnf/constraints/constraint.h"
#include "sqlnf/core/table.h"
#include "sqlnf/core/value.h"
#include "sqlnf/engine/catalog.h"
#include "sqlnf/engine/predicate.h"
#include "sqlnf/engine/sql.h"
#include "sqlnf/util/rng.h"

namespace sqlnf::bench {
namespace {

// Table size, statements per transaction, and wall-clock budget per
// reader configuration. 20k rows keeps one snapshot scan in the tens
// of microseconds so both sides get thousands of ops per run.
constexpr int kPreloadRows = 20000;
constexpr int kUpdatesPerTxn = 8;
constexpr double kRunMs = 300.0;
constexpr int kReaderCounts[] = {1, 4, 16};

struct BenchRecord {
  std::string op;
  int readers = 0;
  std::string mix;  // e.g. "4r:1w"
  double ops_per_sec = 0;
  double p99_us = 0;
};

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// kv(k, v, w) with a certain key on the nullable-free k column; v and
// w are payload churned by the writer. (Database owns a mutex, so it
// is populated in place rather than returned.)
void Preload(Database* db) {
  WriterScope writer;  // runs on the main thread before any reader exists
  TableSchema schema =
      ValueOrDie(TableSchema::MakeCompact("kv", "kvw", "k"), "schema");
  ConstraintSet sigma;
  AttributeSet key;
  key.Add(0);
  sigma.AddKey({key, Mode::kCertain});

  Table data(schema);
  for (int i = 0; i < kPreloadRows; ++i) {
    CheckOk(data.AddRow(Tuple({Value::Int(i), Value::Str("v0"),
                               Value::Str("w" + std::to_string(i % 97))})),
            "preload AddRow");
  }
  CheckOk(db->IngestTable(data, sigma), "IngestTable");
}

struct ReaderResult {
  std::vector<double> latencies_us;
  int64_t ops = 0;
  int64_t hits = 0;
};

// One reader: loop SnapshotAll + a point SELECT on a random preloaded
// key until `stop`. Asserts the snapshot stream is sane (monotone
// epochs/rows, whole-batch row counts are the writer's job to keep).
void ReaderLoop(Database* db, std::atomic<bool>* stop,
                std::atomic<int>* failures, uint64_t seed,
                ReaderResult* out) {
  Rng rng(seed);
  uint64_t last_epoch = 0;
  int last_rows = 0;
  while (!stop->load(std::memory_order_relaxed)) {
    auto start = std::chrono::steady_clock::now();
    const std::map<std::string, TableSnapshot> snaps = db->SnapshotAll();
    auto snap = snaps.find("kv");
    if (snap == snaps.end()) {
      failures->fetch_add(1);
      return;
    }
    int64_t key = rng.Uniform(0, kPreloadRows - 1);
    Result<QueryResult> rows = ExecuteReadOnly(
        snaps, "SELECT * FROM kv WHERE k = " + std::to_string(key) + ";");
    if (!rows.ok() || rows->rows->num_rows() != 1) {
      failures->fetch_add(1);
      return;
    }
    out->latencies_us.push_back(MicrosSince(start));
    ++out->ops;
    out->hits += rows->rows->num_rows();
    // Epochs and committed row counts only ever advance: a snapshot
    // can never travel backwards in the commit history.
    if (snap->second.epoch < last_epoch ||
        (snap->second.epoch == last_epoch &&
         snap->second.num_rows() < last_rows)) {
      failures->fetch_add(1);
      return;
    }
    last_epoch = snap->second.epoch;
    last_rows = snap->second.num_rows();
  }
}

struct WriterResult {
  std::vector<double> txn_latencies_us;
  int64_t txns = 0;
  int64_t statements = 0;
};

// The single writer: each transaction updates kUpdatesPerTxn random
// payload cells, inserts a fresh key, and deletes the fresh key of the
// previous transaction (table size stays ~kPreloadRows). One in ten
// transactions rolls back instead of committing, so readers also race
// the undo-log replay path.
void WriterLoop(Database* db, std::atomic<bool>* stop,
                std::atomic<int>* failures, WriterResult* out) {
  WriterScope writer;  // this function IS the single writer thread
  Rng rng(0x5eedull);
  int64_t next_key = kPreloadRows;
  int64_t pending_delete = -1;
  while (!stop->load(std::memory_order_relaxed)) {
    auto start = std::chrono::steady_clock::now();
    if (!db->Begin().ok()) {
      failures->fetch_add(1);
      return;
    }
    bool ok = true;
    for (int i = 0; i < kUpdatesPerTxn && ok; ++i) {
      int64_t key = rng.Uniform(0, kPreloadRows - 1);
      Result<int> changed = db->Update(
          "kv", Predicate::And({Cmp(0, CompareOp::kEq, Value::Int(key))}),
          AttributeId{1}, Value::Str("r" + std::to_string(out->statements)));
      ok = changed.ok();
      ++out->statements;
    }
    if (ok) {
      ok = db->Insert("kv", Tuple({Value::Int(next_key), Value::Str("fresh"),
                                   Value::Null()}))
               .ok();
      ++out->statements;
    }
    if (ok && pending_delete >= 0) {
      Result<int> removed = db->Delete(
          "kv", Predicate::And(
                    {Cmp(0, CompareOp::kEq, Value::Int(pending_delete))}));
      ok = removed.ok() && removed.value() == 1;
      ++out->statements;
    }
    bool commit = ok && !rng.Chance(0.1);
    Status end = commit ? db->Commit() : db->Rollback();
    if (!ok || !end.ok()) {
      failures->fetch_add(1);
      return;
    }
    if (commit) {
      pending_delete = next_key;
      ++next_key;
    }
    out->txn_latencies_us.push_back(MicrosSince(start));
    ++out->txns;
  }
}

void WriteJson(const std::vector<BenchRecord>& records) {
  std::FILE* f = std::fopen("BENCH_concurrency.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "WARN could not open BENCH_concurrency.json\n");
    return;
  }
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    std::fprintf(f,
                 "  {\"op\": \"%s\", \"readers\": %d, \"mix\": \"%s\", "
                 "\"ops_per_sec\": %.1f, \"p99_us\": %.2f}%s\n",
                 r.op.c_str(), r.readers, r.mix.c_str(), r.ops_per_sec,
                 r.p99_us, i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::fprintf(stderr, "wrote BENCH_concurrency.json (%zu records)\n",
               records.size());
}

int Run() {
  std::vector<BenchRecord> records;
  std::vector<double> read_throughputs;
  std::printf("%-22s %8s %8s %14s %12s\n", "op", "readers", "mix", "ops/sec",
              "p99(us)");

  for (int readers : kReaderCounts) {
    Database db;
    Preload(&db);
    std::atomic<bool> stop{false};
    std::atomic<int> failures{0};
    std::vector<ReaderResult> reader_results(readers);
    WriterResult writer_result;

    std::vector<std::thread> threads;
    threads.reserve(readers + 1);
    threads.emplace_back(WriterLoop, &db, &stop, &failures, &writer_result);
    for (int r = 0; r < readers; ++r) {
      threads.emplace_back(ReaderLoop, &db, &stop, &failures,
                           0x9000ull + static_cast<uint64_t>(r),
                           &reader_results[r]);
    }
    auto start = std::chrono::steady_clock::now();
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<int>(kRunMs)));
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads) t.join();
    double elapsed_s = MicrosSince(start) / 1e6;

    if (failures.load() != 0) {
      std::fprintf(stderr, "FAIL %d reader/writer errors at %d readers\n",
                   failures.load(), readers);
      return 1;
    }

    // Shape checks on the final state: enforcer invariants hold and the
    // published snapshot is bit-identical to the live encoding. All
    // threads have joined, so the main thread owns the writer role.
    WriterScope shape_check_writer;
    const StoredTable* stored = ValueOrDie(db.Find("kv"), "Find kv");
    CheckOk(stored->enforcer().CheckInvariants(), "CheckInvariants");
    TableSnapshot final_snap = ValueOrDie(db.GetSnapshot("kv"), "snapshot");
    if (!final_snap.columns->BitIdentical(stored->columns())) {
      std::fprintf(stderr, "FAIL final snapshot diverged from live columns\n");
      return 1;
    }

    std::vector<double> read_latencies;
    int64_t read_ops = 0;
    for (ReaderResult& rr : reader_results) {
      read_ops += rr.ops;
      read_latencies.insert(read_latencies.end(), rr.latencies_us.begin(),
                            rr.latencies_us.end());
    }
    if (read_ops == 0 || writer_result.txns == 0) {
      std::fprintf(stderr, "FAIL starved side at %d readers (reads=%lld "
                           "txns=%lld)\n",
                   readers, static_cast<long long>(read_ops),
                   static_cast<long long>(writer_result.txns));
      return 1;
    }

    std::string mix = std::to_string(readers) + "r:1w";
    BenchRecord read_rec{"snapshot_point_select", readers, mix,
                         static_cast<double>(read_ops) / elapsed_s,
                         Percentile(&read_latencies, 0.99)};
    BenchRecord write_rec{"writer_txn_commit", readers, mix,
                          static_cast<double>(writer_result.txns) / elapsed_s,
                          Percentile(&writer_result.txn_latencies_us, 0.99)};
    for (const BenchRecord& r : {read_rec, write_rec}) {
      std::printf("%-22s %8d %8s %14.1f %12.2f\n", r.op.c_str(), r.readers,
                  r.mix.c_str(), r.ops_per_sec, r.p99_us);
    }
    records.push_back(read_rec);
    records.push_back(write_rec);
    read_throughputs.push_back(read_rec.ops_per_sec);
  }

  // Scaling gate, only meaningful with real cores to spread over: with
  // 8+ hardware threads, 4 readers on immutable snapshots must beat 1
  // reader's aggregate throughput. Kept loose (1.3x, not 4x) — the
  // writer competes for cores and CI boxes are noisy.
  unsigned hw = std::thread::hardware_concurrency();
  if (hw >= 8 && read_throughputs.size() >= 2 &&
      read_throughputs[1] < 1.3 * read_throughputs[0]) {
    std::fprintf(stderr,
                 "FAIL no reader scaling on %u cores: 1r=%.0f/s 4r=%.0f/s\n",
                 hw, read_throughputs[0], read_throughputs[1]);
    return 1;
  }
  if (hw < 8) {
    std::printf("(scaling gate skipped: hardware_concurrency=%u)\n", hw);
  }

  WriteJson(records);
  std::printf("OK\n");
  return 0;
}

}  // namespace
}  // namespace sqlnf::bench

int main() { return sqlnf::bench::Run(); }

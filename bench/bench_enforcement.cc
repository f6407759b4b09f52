// E12 (ablation) — write-path cost of constraint enforcement: the
// indexed incremental enforcer vs the reference per-row scan, inserting
// contractor-shaped rows under the three λ-FDs plus the Theorem-12
// c-key. This is the run-time face of schema design: the constraints a
// good schema needs enforced are exactly the ones Algorithm 3 turns
// into cheap keys.
//
// A second section times a transaction rollback: 100 INSERTs into a
// 38,000-row table under one certain key (the shape of the front-door
// benchmark's `region`), rolled back, median of 15. The rollback drops
// each run of consecutive inserts in one compaction pass of the key
// index; the shape check requires the table restored bit-identically.
//
// The third section is the write-path gate. On the same table it runs
// the front-door `rw` writer's transaction shape — BEGIN, 8 key
// UPDATEs, an INSERT of a fresh key, a key DELETE of the previous
// transaction's fresh row, COMMIT — plus a key DELETE of a middle row
// (put back at the tail by a second INSERT). The fresh keys alternate
// between two values and every written value is already in its
// dictionary, so no statement mints one. Each statement's median is
// compared with one full SelectRowsEncoded scan for a key: the shape
// check requires a key UPDATE within 0.4x of the scan and each key
// DELETE within 10x, which holds only when the WHERE finds its row
// through the key index and the delete renumbers the index in flat
// passes. The table is stored in id order, so its zone maps let a key
// scan evaluate one 2,048-row block; the unit therefore scans a
// row-shuffled copy, where every block spans every id and no block is
// skipped. The zone-served key scan is printed next to it, ungated.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "bench_util.h"
#include "sqlnf/constraints/parser.h"
#include "sqlnf/datagen/lmrp.h"
#include "sqlnf/core/encoded_table.h"
#include "sqlnf/engine/catalog.h"
#include "sqlnf/engine/writer_role.h"
#include "sqlnf/engine/relops.h"
#include "sqlnf/engine/validate.h"
#include "sqlnf/reference/validate.h"
#include "sqlnf/util/rng.h"
#include "sqlnf/util/text_table.h"

namespace sqlnf {
namespace {

int Run() {
  using bench::TimeMs;
  using bench::ValueOrDie;

  Table contractor = ValueOrDie(Contractor(), "contractor");
  Table big = ValueOrDie(CrossWithSequence(contractor, 60, "new"),
                         "cross");  // 10,380 rows
  ConstraintSet sigma = ValueOrDie(
      ParseConstraintSet(
          big.schema(),
          "new,city,url ->w new,city,url,dmerc_rgn,status; "
          "new,cmd_name,phone,url ->w "
          "new,cmd_name,phone,url,contractor_version,status_flag; "
          "new,address1,contractor_bus_name,contractor_type_id ->w "
          "new,address1,contractor_bus_name,contractor_type_id,url"),
      "sigma");

  // Reference: per-insert scan of all stored rows.
  Table scan_table(big.schema());
  double scan_ms = TimeMs([&] {
    for (const Tuple& row : big.rows()) {
      if (!ValidateRowAgainst(scan_table, row, sigma)) {
        bench::CheckOk(scan_table.AddRow(row), "add");
      }
    }
  });

  // Indexed: hash buckets on the NOT NULL LHS columns.
  Table indexed_table(big.schema());
  IncrementalEnforcer enforcer(big.schema(), sigma);
  double indexed_ms = TimeMs([&] {
    WriterScope writer;
    for (const Tuple& row : big.rows()) {
      if (!enforcer.Check(row, indexed_table.num_rows())) {
        enforcer.Add(row, indexed_table.num_rows());
        bench::CheckOk(indexed_table.AddRow(row), "add");
      }
    }
  });

  TextTable tt;
  tt.SetHeader({"write path", "rows", "time [ms]", "rows/s"});
  char buf[64], rate[64];
  std::snprintf(buf, sizeof(buf), "%.1f", scan_ms);
  std::snprintf(rate, sizeof(rate), "%.0f",
                scan_table.num_rows() / (scan_ms / 1000.0));
  tt.AddRow({"reference per-row scan",
             std::to_string(scan_table.num_rows()), buf, rate});
  std::snprintf(buf, sizeof(buf), "%.1f", indexed_ms);
  std::snprintf(rate, sizeof(rate), "%.0f",
                indexed_table.num_rows() / (indexed_ms / 1000.0));
  tt.AddRow({"indexed incremental enforcer",
             std::to_string(indexed_table.num_rows()), buf, rate});
  std::printf("%s\n", tt.ToString().c_str());
  std::printf("speedup: %.1fx; identical accept decisions: %s\n",
              scan_ms / indexed_ms,
              scan_table.SameMultiset(indexed_table) ? "yes" : "NO");

  // Batch re-validation after the workload: the enforcer's maintained
  // encoding feeds the columnar kernels directly, skipping the encode
  // a from-Table validation pays.
  bool batch_ok = false;
  double batch_table_ms =
      TimeMs([&] { batch_ok = ValidateAll(indexed_table, sigma); });
  bool batch_enc_ok = false;
  double batch_enc_ms = TimeMs([&] {
    batch_enc_ok = ValidateAllEncoded(enforcer.encoding(),
                                      big.schema().nfs(), sigma);
  });
  std::printf("batch re-validation: from Table %.1f ms, from maintained "
              "encoding %.1f ms (both %s)\n",
              batch_table_ms, batch_enc_ms,
              batch_ok && batch_enc_ok ? "satisfied" : "DIVERGED");

  // Rollback of a transaction's 100 inserts on a 38,000-row keyed table,
  // then the write-path gate on the same table.
  bool rollback_ok = true;
  std::vector<double> rollback_ms;
  bool writes_ok = true;
  std::vector<double> scan_us, zone_scan_us, update_us, tail_delete_us,
      middle_delete_us;
  {
    WriterScope writer;
    Database db;
    const TableSchema keyed = ValueOrDie(
        TableSchema::Make("region", {"id", "city", "status"}, {"id"}),
        "schema");
    bench::CheckOk(
        db.CreateTable(keyed, ValueOrDie(ParseConstraintSet(keyed, "c<id>"),
                                         "key")),
        "create");
    for (int i = 0; i < 38000; ++i) {
      bench::CheckOk(
          db.Insert("region", Tuple({Value::Int(i),
                                     Value::Str("c" + std::to_string(i % 500)),
                                     Value::Str(i % 3 ? "ok" : "retired")})),
          "insert");
    }
    const StoredTable* stored = ValueOrDie(db.Find("region"), "find");
    const EncodedTable before = stored->columns();
    int next = 1000000;
    for (int rep = 0; rep < 15; ++rep) {
      bench::CheckOk(db.Begin(), "begin");
      for (int j = 0; j < 100; ++j, ++next) {
        bench::CheckOk(
            db.Insert("region",
                      Tuple({Value::Int(next),
                             Value::Str("fresh" + std::to_string(next)),
                             Value::Str("ok")})),
            "insert");
      }
      rollback_ms.push_back(
          TimeMs([&] { bench::CheckOk(db.Rollback(), "rollback"); }));
      rollback_ok = rollback_ok && stored->columns().BitIdentical(before);
    }

    // The rw transaction shape, 2 warm-up transactions (they mint the
    // two fresh keys once) and 15 timed ones.
    auto key = [](int64_t id) {
      return Predicate::And({Cmp(0, CompareOp::kEq, Value::Int(id))});
    };
    auto row = [](int64_t id, bool retired) {
      return Tuple({Value::Int(id),
                    Value::Str("c" + std::to_string(id % 500)),
                    Value::Str(retired ? "retired" : "ok")});
    };
    auto us = [](auto&& fn) { return 1000.0 * TimeMs(fn); };
    std::vector<char> retired(38000);
    for (int i = 0; i < 38000; ++i) retired[i] = i % 3 == 0;
    std::vector<int> perm(stored->num_rows());
    std::iota(perm.begin(), perm.end(), 0);
    Rng shuffle_rng(12);
    shuffle_rng.Shuffle(&perm);
    const EncodedTable shuffled = stored->columns().GatherRows(perm);
    constexpr int64_t kFresh = 2000001;
    uint64_t lcg = 12345;
    for (int t = 0; t < 17; ++t) {
      const bool timed = t >= 2;
      bench::CheckOk(db.Begin(), "begin");
      std::vector<int> ids;
      while (ids.size() < 8) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        const int id = static_cast<int>((lcg >> 33) % 38000);
        if (std::find(ids.begin(), ids.end(), id) == ids.end()) {
          ids.push_back(id);
        }
      }
      for (int id : ids) {
        retired[id] = !retired[id];
        int changed = 0;
        const double took = us([&] {
          changed = ValueOrDie(
              db.Update("region", key(id), 2,
                        Value::Str(retired[id] ? "retired" : "ok")),
              "update");
        });
        writes_ok = writes_ok && changed == 1;
        if (timed) update_us.push_back(took);
      }
      bench::CheckOk(db.Insert("region", row(kFresh + t % 2, false)),
                     "insert fresh");
      if (t > 0) {
        int removed = 0;
        const double took = us([&] {
          removed = ValueOrDie(db.Delete("region", key(kFresh + (t - 1) % 2)),
                               "delete fresh");
        });
        writes_ok = writes_ok && removed == 1;
        if (timed) tail_delete_us.push_back(took);
      }
      const int middle = 19000 + t;
      int removed = 0;
      const double took = us([&] {
        removed = ValueOrDie(db.Delete("region", key(middle)),
                             "delete middle");
      });
      writes_ok = writes_ok && removed == 1;
      if (timed) middle_delete_us.push_back(took);
      bench::CheckOk(db.Insert("region", row(middle, retired[middle])),
                     "reinsert middle");
      bench::CheckOk(db.Commit(), "commit");
      if (timed) {
        const int probe = ids.front();
        std::vector<int> hits, zone_hits;
        scan_us.push_back(
            us([&] { hits = SelectRowsEncoded(shuffled, key(probe)); }));
        zone_scan_us.push_back(us([&] {
          zone_hits = SelectRowsEncoded(stored->columns(), key(probe));
        }));
        writes_ok = writes_ok && hits.size() == 1 && zone_hits.size() == 1;
      }
    }
    writes_ok = writes_ok && stored->num_rows() == 38001 &&
                stored->enforcer().CheckInvariants().ok();
  }
  std::sort(rollback_ms.begin(), rollback_ms.end());
  std::printf("rollback of 100 inserts on 38000 keyed rows: median %.2f ms "
              "(15 runs); table restored: %s\n",
              rollback_ms[rollback_ms.size() / 2],
              rollback_ok ? "yes" : "NO");

  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double scan = median(scan_us);
  const double update_x = median(update_us) / scan;
  const double tail_x = median(tail_delete_us) / scan;
  const double middle_x = median(middle_delete_us) / scan;
  TextTable wt;
  wt.SetHeader({"rw statement on 38001 keyed rows", "median [us]",
                "x key scan", "gate"});
  auto add_row = [&](const char* what, double median_us, double x,
                     const char* gate) {
    char m[32], r[32];
    std::snprintf(m, sizeof(m), "%.1f", median_us);
    std::snprintf(r, sizeof(r), "%.2f", x);
    wt.AddRow({what, m, r, gate});
  };
  add_row("key scan, shuffled copy (every block)", scan, 1.0, "");
  add_row("key scan, id order (zone maps skip)", median(zone_scan_us),
          median(zone_scan_us) / scan, "");
  add_row("key UPDATE", median(update_us), update_x, "<= 0.4");
  add_row("key DELETE, previous txn's row", median(tail_delete_us), tail_x,
          "<= 10");
  add_row("key DELETE, middle row", median(middle_delete_us), middle_x,
          "<= 10");
  std::printf("%s\n", wt.ToString().c_str());
  const bool gate_ok =
      writes_ok && update_x <= 0.4 && tail_x <= 10 && middle_x <= 10;
  std::printf("write-path gate (15 transactions, each statement one row): "
              "%s\n",
              gate_ok ? "OK" : "FAILED");

  const bool ok = scan_table.SameMultiset(indexed_table) &&
                  indexed_ms < scan_ms && batch_ok && batch_enc_ok &&
                  indexed_table.num_rows() == big.num_rows() && rollback_ok &&
                  gate_ok;
  std::printf("shape check: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace sqlnf

int main() { return sqlnf::Run(); }

// E12 (ablation) — write-path cost of constraint enforcement: the
// indexed incremental enforcer vs the reference per-row scan, inserting
// contractor-shaped rows under the three λ-FDs plus the Theorem-12
// c-key. This is the run-time face of schema design: the constraints a
// good schema needs enforced are exactly the ones Algorithm 3 turns
// into cheap keys.

#include <cstdio>

#include "bench_util.h"
#include "sqlnf/constraints/parser.h"
#include "sqlnf/datagen/lmrp.h"
#include "sqlnf/engine/catalog.h"
#include "sqlnf/engine/writer_role.h"
#include "sqlnf/engine/relops.h"
#include "sqlnf/engine/validate.h"
#include "sqlnf/reference/validate.h"
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

  const bool ok = scan_table.SameMultiset(indexed_table) &&
                  indexed_ms < scan_ms && batch_ok && batch_enc_ok &&
                  indexed_table.num_rows() == big.num_rows();
  std::printf("shape check: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace sqlnf

int main() { return sqlnf::Run(); }

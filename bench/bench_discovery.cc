// E6 — Section 7 discovery-cost table: number of classical FDs and
// discovery time vs number of c-FDs and discovery time, on the three
// UCI-shaped datasets (breast-cancer 11×699, adult 14×48842, hepatitis
// 20×155).
//
// Substitutions (DESIGN.md): the datasets are synthetic with the
// original shapes, and our pairwise difference-set miner stands in for
// both the best-of-breed classical miners of [33] and the authors' own
// c-FD algorithm. Each column is timed as an independent end-to-end run
// (its own pair sweep + hitting-set enumeration). The adult pair sweep
// is capped at 8000 rows (printed below). The paper's claim under test
// is the relative one: c-FD discovery is competitive with classical FD
// discovery.

#include <cstdio>

#include "bench_util.h"
#include "sqlnf/datagen/uci.h"
#include "sqlnf/discovery/discover.h"
#include "sqlnf/discovery/tane.h"
#include "sqlnf/util/parallel.h"
#include "sqlnf/util/text_table.h"

namespace sqlnf {
namespace {

int Run() {
  using bench::TimeMs;
  using bench::ValueOrDie;

  const int kAdultCap = 20000;
  Table breast = ValueOrDie(UciBreastCancerShaped(), "breast");
  Table adult = ValueOrDie(UciAdultShaped(), "adult");
  Table hepatitis = ValueOrDie(UciHepatitisShaped(), "hepatitis");

  struct PaperRow {
    const char* paper_fds;
    const char* paper_cfds;
  };
  const PaperRow paper[] = {
      {"46 / 0.5s", "54 / 0.1s"},
      {"78 / 5.9s", "78 / 10.4s"},
      {"8250 / 0.8s", "264 / 1.2s"},
  };
  const Table* tables[] = {&breast, &adult, &hepatitis};

  const int kThreads = 4;
  double serial_total_ms = 0;
  bool parallel_identical = true;
  TextTable tt;
  tt.SetHeader({"data set", "cols", "rows", "FDs#", "time[s]", "c-FDs#",
                "serial[s]", "par4[s]", "paper FDs", "paper c-FDs"});
  for (int i = 0; i < 3; ++i) {
    const Table& t = *tables[i];
    DiscoveryOptions options;
    options.max_rows = kAdultCap;
    options.hitting.max_size = 8;
    options.hitting.max_results = 100000;

    // Classical FDs via TANE (partition-based, the [33] family; full
    // row count); c-FDs via the pairwise difference-set miner (weak
    // similarity breaks partition refinement, so pairs it is). The c-FD
    // pair sweep also runs with the parallel sweeper — its output must
    // be bit-identical to serial (ordered chunk merge, agree_sets.h).
    TaneResult classical;
    std::vector<FunctionalDependency> certain;
    std::vector<FunctionalDependency> certain_par;
    TaneOptions tane_options;
    tane_options.max_lhs_size = options.hitting.max_size;
    double classical_ms = TimeMs([&] {
      classical = ValueOrDie(DiscoverFdsTane(t, tane_options), "tane");
    });
    double certain_ms = TimeMs([&] {
      certain = ValueOrDie(DiscoverFds(t, FdSemantics::kCertain, options),
                           "certain");
    });
    DiscoveryOptions par_options = options;
    par_options.threads = kThreads;
    double certain_par_ms = TimeMs([&] {
      certain_par = ValueOrDie(
          DiscoverFds(t, FdSemantics::kCertain, par_options), "certain-par");
    });
    serial_total_ms += classical_ms + certain_ms;
    if (certain_par != certain) parallel_identical = false;

    char fd_time[32], cfd_time[32], cfd_par_time[32];
    std::snprintf(fd_time, sizeof(fd_time), "%.2f", classical_ms / 1000.0);
    std::snprintf(cfd_time, sizeof(cfd_time), "%.2f", certain_ms / 1000.0);
    std::snprintf(cfd_par_time, sizeof(cfd_par_time), "%.2f",
                  certain_par_ms / 1000.0);
    tt.AddRow({t.schema().name(), std::to_string(t.num_columns()),
               std::to_string(t.num_rows()),
               std::to_string(classical.fds.size()), fd_time,
               std::to_string(certain.size()), cfd_time, cfd_par_time,
               paper[i].paper_fds, paper[i].paper_cfds});
  }
  std::printf("%s\n", tt.ToString().c_str());

  // Corpus-level parallelism: the three datasets mined end-to-end as
  // one task per table (the serial reference is the sum timed above).
  double corpus_par_ms = TimeMs([&] {
    ForkJoin(kThreads, 3, [&](int i) {
      DiscoveryOptions options;
      options.max_rows = kAdultCap;
      options.hitting.max_size = 8;
      options.hitting.max_results = 100000;
      TaneOptions tane_options;
      tane_options.max_lhs_size = options.hitting.max_size;
      ValueOrDie(DiscoverFdsTane(*tables[i], tane_options), "tane-task");
      ValueOrDie(DiscoverFds(*tables[i], FdSemantics::kCertain, options),
                 "certain-task");
    });
  });
  std::printf(
      "serial-vs-parallel: per-table c-FD sweep at %d threads (par4 "
      "column); corpus-level one-table-per-task %.2fs vs %.2fs serial "
      "(%.2fx)\n",
      kThreads, corpus_par_ms / 1000.0, serial_total_ms / 1000.0,
      serial_total_ms / corpus_par_ms);
  std::printf("parallel c-FD output bit-identical to serial: %s\n",
              parallel_identical ? "OK" : "FAILED");
  if (!parallel_identical) return 1;
  std::printf(
      "note: classical FDs mined with TANE (partition-based levelwise,\n"
      "the paper's [33] family) on the FULL row counts; c-FDs with the\n"
      "pairwise difference-set miner, whose adult sweep is capped at %d\n"
      "rows (weak similarity is not an equivalence relation, so\n"
      "partition refinement does not apply — see DESIGN.md). Shape\n"
      "under test: c-FD discovery cost is within a small factor of\n"
      "classical FD discovery on the same data, as in the paper.\n",
      kAdultCap);
  return 0;
}

}  // namespace
}  // namespace sqlnf

int main() { return sqlnf::Run(); }

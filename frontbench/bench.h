// The two run modes of the front-door benchmark and what they report.
// main.cc parses the command line and prints the result line.

#ifndef FRONTBENCH_BENCH_H_
#define FRONTBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "workload.h"

namespace frontbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  std::string server;    // path of the `sqlnf` binary (serve mode)
  std::string out_dir;   // where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
};

/// End-to-end run against a spawned `sqlnf serve`. Returns a process
/// exit code; 0 means `outcome` is filled.
int RunServe(const Options& options, const Dataset& data, Outcome* outcome);

/// In-process traced replay of all three workloads; per-layer metrics.
int RunTrace(const Options& options, const Dataset& data, Outcome* outcome);

}  // namespace frontbench

#endif  // FRONTBENCH_BENCH_H_

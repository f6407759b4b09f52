// frontbench: the front-door benchmark's load generator and traced
// replay. run.py builds it and calls
//
//   frontbench --mode serve --server <sqlnf> --workload W --seed N
//       --seconds S
//   frontbench --mode trace --out <dir> --workload W --seed N --seconds S
//
// Serve mode prints the end-to-end metrics, trace mode the per-layer
// ones. Either way the last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "bench.h"
#include "sqlnf/core/simd_kernels.h"
#include "sqlnf/util/json.h"

namespace frontbench {
namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Results from different hosts, SIMD levels or builds are never
// comparable; this line says which ones a result came from.
void PrintFingerprint(const Options& options, const std::string& mode) {
  sqlnf::JsonWriter w;
  w.BeginObject();
  w.Key("nproc");
  w.Int(sysconf(_SC_NPROCESSORS_ONLN));
  w.Key("cpu");
  w.String(CpuModel());
  w.Key("simd");
  w.String(sqlnf::simd::LevelName(sqlnf::simd::ActiveLevel()));
  w.Key("build");
  w.String(FRONTBENCH_BUILD_TYPE);
  w.Key("mode");
  w.String(mode);
  w.Key("workload");
  w.String(options.workload);
  w.Key("seed");
  w.Int(static_cast<int64_t>(options.seed));
  w.EndObject();
  std::printf("fingerprint: %s\n", w.str().c_str());
}

void PrintOutcome(const Outcome& outcome) {
  std::string line = "{\"correct\": ";
  line += outcome.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(outcome.attempted);
  line += ", \"failed\": " + std::to_string(outcome.failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    line += (i > 0 ? ", " : "") + sqlnf::JsonQuote(m.name) +
            ": {\"value\": " + value + ", \"unit\": " +
            sqlnf::JsonQuote(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "frontbench: %s\nusage: frontbench --mode serve|trace "
               "--workload query|validate|rw --seed N --seconds S "
               "[--server PATH] [--out DIR]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  Options options;
  std::string mode;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--mode") {
      mode = value;
    } else if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--server") {
      options.server = value;
    } else if (flag == "--out") {
      options.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!IsWorkload(options.workload)) return Usage("unknown workload");
  if (options.seconds <= 0) return Usage("bad --seconds");
  if (mode == "serve" && options.server.empty()) return Usage("no --server");
  if (mode == "trace" && options.out_dir.empty()) return Usage("no --out");
  if (mode != "serve" && mode != "trace") return Usage("unknown mode");

  sqlnf::Result<Dataset> data = BuildDataset();
  if (!data.ok()) {
    std::fprintf(stderr, "dataset: %s\n", data.status().ToString().c_str());
    return 1;
  }
  PrintFingerprint(options, mode);
  Outcome outcome;
  const int rc = mode == "serve" ? RunServe(options, *data, &outcome)
                                 : RunTrace(options, *data, &outcome);
  if (rc != 0) return rc;
  std::fflush(stderr);
  PrintOutcome(outcome);
  return 0;
}

}  // namespace
}  // namespace frontbench

int main(int argc, char** argv) { return frontbench::Main(argc, argv); }

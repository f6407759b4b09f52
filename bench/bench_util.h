// Shared helpers for the benchmark harness: wall-clock timing and
// percentiles for the table-reproduction benches and random-input
// builders for the google-benchmark scaling sweeps.

#ifndef SQLNF_BENCH_BENCH_UTIL_H_
#define SQLNF_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "sqlnf/constraints/constraint.h"
#include "sqlnf/util/rng.h"
#include "sqlnf/util/status.h"

namespace sqlnf::bench {

/// Milliseconds spent running `fn` once.
template <typename Fn>
double TimeMs(Fn&& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

/// Aborts the bench binary with a readable message on error statuses —
/// bench inputs are all library-generated, so failures are bugs.
inline void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, status.ToString().c_str());
    std::abort();
  }
}

template <typename T>
T ValueOrDie(Result<T> result, const char* what) {
  CheckOk(result.status(), what);
  return std::move(result).value();
}

/// The p-quantile (p in [0, 1]) of `xs` by lower nearest rank: sorts
/// `xs` in place and returns element floor(p · (n − 1)); 0 when empty.
inline double Percentile(std::vector<double>* xs, double p) {
  if (xs->empty()) return 0;
  std::sort(xs->begin(), xs->end());
  size_t i = static_cast<size_t>(p * static_cast<double>(xs->size() - 1));
  return (*xs)[i];
}

/// Random schema of n attributes named a0..a{n-1} with a random NFS.
inline TableSchema RandomBenchSchema(Rng* rng, int n) {
  std::vector<std::string> names;
  std::vector<std::string> not_null;
  names.reserve(n);
  for (int i = 0; i < n; ++i) {
    names.push_back("a" + std::to_string(i));
    if (rng->Chance(0.5)) not_null.push_back(names.back());
  }
  return ValueOrDie(TableSchema::Make("bench", names, not_null),
                    "RandomBenchSchema");
}

/// Random mixed constraint set: `fds` FDs (LHS ~3 attrs) + `keys` keys.
inline ConstraintSet RandomBenchSigma(Rng* rng, int n, int fds, int keys) {
  ConstraintSet sigma;
  auto random_set = [&](double p) {
    AttributeSet s;
    for (int i = 0; i < n; ++i) {
      if (rng->Chance(p)) s.Add(i);
    }
    if (s.empty()) s.Add(static_cast<AttributeId>(rng->Index(n)));
    return s;
  };
  for (int i = 0; i < fds; ++i) {
    sigma.AddFd({random_set(3.0 / n), random_set(2.0 / n),
                 rng->Chance(0.5) ? Mode::kPossible : Mode::kCertain});
  }
  for (int i = 0; i < keys; ++i) {
    sigma.AddKey({random_set(4.0 / n),
                  rng->Chance(0.5) ? Mode::kPossible : Mode::kCertain});
  }
  return sigma;
}

}  // namespace sqlnf::bench

#endif  // SQLNF_BENCH_BENCH_UTIL_H_

// E1 — Section 7 quantitative table: FD counts mined from the corpus.
//
//   paper (130 real tables):  nn-FDs 847 | p-FDs 557 | c-FDs 419
//                             | t-FDs 205 | λ-FDs 83
//
// We mine the 130-table synthetic corpus (DESIGN.md substitution). The
// paper calls its own numbers qualitative; the shape under test is the
// monotone chain  nn ≥ ~p ≥ c ≥ t ≥ λ  with every class non-empty and
// λ-FDs a small fraction, i.e. c-FDs occur frequently and a usable
// subset of them drives VRNF decomposition.

#include <cstdio>

#include "bench_util.h"
#include "sqlnf/datagen/generator.h"
#include "sqlnf/discovery/discover.h"
#include "sqlnf/util/parallel.h"
#include "sqlnf/util/text_table.h"

namespace sqlnf {
namespace {

int Run() {
  using bench::TimeMs;
  using bench::ValueOrDie;

  std::vector<Table> corpus =
      ValueOrDie(BuildCorpus(DefaultCorpusProfiles()), "corpus");
  std::printf("mining %zu synthetic tables (7 source profiles)...\n",
              corpus.size());

  // One classification per table; mined serially for the reference
  // timing, then re-mined corpus-level with one table per fork-join
  // task.
  auto mine_one = [](const Table& table) {
    DiscoveryOptions options;
    options.hitting.max_size = 5;
    options.hitting.max_results = 2000;
    DiscoveryResult result =
        bench::ValueOrDie(DiscoverConstraints(table, options), "mine");
    return ClassifyDiscovered(table, result);
  };

  std::vector<FdClassification> classified(corpus.size());
  double total_ms = 0;
  for (size_t i = 0; i < corpus.size(); ++i) {
    total_ms += TimeMs([&] { classified[i] = mine_one(corpus[i]); });
  }

  const int kThreads = 4;
  std::vector<FdClassification> classified_par(corpus.size());
  double parallel_ms = TimeMs([&] {
    ForkJoin(kThreads, static_cast<int>(corpus.size()),
             [&](int i) { classified_par[i] = mine_one(corpus[i]); });
  });

  int nn = 0, p = 0, c = 0, t = 0, lambda = 0;
  bool parallel_identical = true;
  for (size_t i = 0; i < corpus.size(); ++i) {
    const FdClassification& cls = classified[i];
    nn += cls.nn_count;
    p += cls.p_count;
    c += cls.c_count;
    t += cls.t_count;
    lambda += cls.lambda_count;
    parallel_identical =
        parallel_identical &&
        classified_par[i].nn_count == cls.nn_count &&
        classified_par[i].p_count == cls.p_count &&
        classified_par[i].c_count == cls.c_count &&
        classified_par[i].t_count == cls.t_count &&
        classified_par[i].lambda_count == cls.lambda_count;
  }

  TextTable tt;
  tt.SetHeader({"", "nn-FDs", "p-FDs", "c-FDs", "t-FDs", "lambda-FDs"});
  tt.AddRow({"paper (130 real tables)", "847", "557", "419", "205", "83"});
  tt.AddRow({"here (130 synthetic)", std::to_string(nn),
             std::to_string(p), std::to_string(c), std::to_string(t),
             std::to_string(lambda)});
  std::printf("%s\n", tt.ToString().c_str());
  std::printf("mining time: serial %.1f s (%.1f ms/table); corpus-level "
              "one-table-per-task at %d threads %.1f s (%.2fx)\n",
              total_ms / 1000.0, total_ms / corpus.size(), kThreads,
              parallel_ms / 1000.0, total_ms / parallel_ms);
  std::printf("parallel corpus counts identical to serial: %s\n",
              parallel_identical ? "OK" : "FAILED");

  const bool shape_ok =
      nn > 0 && p > 0 && c > 0 && t > 0 && lambda > 0 && c >= t &&
      t >= lambda;
  std::printf("shape check (all classes populated, c >= t >= lambda): %s\n",
              shape_ok ? "OK" : "FAILED");
  return shape_ok && parallel_identical ? 0 : 1;
}

}  // namespace
}  // namespace sqlnf

int main() { return sqlnf::Run(); }

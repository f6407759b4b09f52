// The parallel-execution utility: every task runs exactly once, and
// ordered reduction is deterministic for any thread count.

#include "sqlnf/util/parallel.h"

#include <atomic>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

namespace sqlnf {
namespace {

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.num_threads(), std::max(1, threads));
    std::vector<std::atomic<int>> hits(100);
    pool.RunTasks(100, [&](int i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(4);
  for (int batch = 0; batch < 50; ++batch) {
    std::atomic<int> sum{0};
    pool.RunTasks(batch, [&](int i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), batch * (batch - 1) / 2);
  }
}

TEST(ThreadPoolTest, ZeroAndOneTasks) {
  ThreadPool pool(4);
  int calls = 0;
  pool.RunTasks(0, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.RunTasks(1, [&](int) { ++calls; });  // runs inline on the caller
  EXPECT_EQ(calls, 1);
}

TEST(ParallelReduceTest, OrderedFoldIsDeterministic) {
  // Concatenation is non-commutative: the fold must visit chunks in
  // order regardless of which thread finished first.
  const int64_t n = 5000;
  std::vector<int> expected(n);
  std::iota(expected.begin(), expected.end(), 0);
  for (int threads : {1, 2, 7}) {
    ThreadPool pool(threads);
    auto got = ParallelReduce<std::vector<int>>(
        pool, 0, n, {},
        [](int64_t b, int64_t e) {
          std::vector<int> chunk;
          for (int64_t i = b; i < e; ++i) chunk.push_back(i);
          return chunk;
        },
        [](std::vector<int> acc, std::vector<int> part) {
          acc.insert(acc.end(), part.begin(), part.end());
          return acc;
        });
    EXPECT_EQ(got, expected) << "threads=" << threads;
  }
}

TEST(ParallelReduceTest, SumMatchesSerial) {
  ThreadPool pool(4);
  const int64_t n = 100000;
  auto sum = ParallelReduce<int64_t>(
      pool, 0, n, 0,
      [](int64_t b, int64_t e) {
        int64_t s = 0;
        for (int64_t i = b; i < e; ++i) s += i;
        return s;
      },
      [](int64_t a, int64_t b) { return a + b; });
  EXPECT_EQ(sum, n * (n - 1) / 2);
}

}  // namespace
}  // namespace sqlnf

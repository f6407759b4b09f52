// The fork-join utility: every task runs exactly once at any thread
// count, and a single thread runs the tasks on the caller, in order.

#include "sqlnf/util/parallel.h"

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace sqlnf {
namespace {

TEST(ForkJoinTest, RunsEveryTaskExactlyOnce) {
  for (int threads : {1, 2, 3, 8}) {
    for (int tasks : {0, 1, 7, 100}) {
      std::vector<std::atomic<int>> hits(tasks);
      ForkJoin(threads, tasks, [&](int i) { hits[i].fetch_add(1); });
      for (int i = 0; i < tasks; ++i) {
        EXPECT_EQ(hits[i].load(), 1)
            << "threads=" << threads << " tasks=" << tasks << " i=" << i;
      }
    }
  }
}

TEST(ForkJoinTest, OneThreadRunsOnTheCallerInOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> order;
  ForkJoin(1, 7, [&](int i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
}

TEST(ForkJoinTest, RethrowsATaskExceptionAfterTheJoin) {
  for (int threads : {1, 4}) {
    std::atomic<int> ran{0};
    EXPECT_THROW(ForkJoin(threads, 100,
                          [&](int i) {
                            ran.fetch_add(1);
                            if (i == 3) throw std::runtime_error("task 3");
                          }),
                 std::runtime_error)
        << "threads=" << threads;
    EXPECT_GE(ran.load(), 4) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace sqlnf

#include "sqlnf/util/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <system_error>
#include <thread>
#include <vector>

#include "sqlnf/util/mutex.h"

namespace sqlnf {

void ForkJoin(int threads, int tasks, const std::function<void(int)>& task) {
  const int workers = std::min(threads, tasks);
  if (workers <= 1) {
    for (int i = 0; i < tasks; ++i) task(i);
    return;
  }
  std::atomic<int> next{0};
  Mutex error_mu;
  std::exception_ptr error;
  auto claim = [&] {
    try {
      for (int i = next.fetch_add(1, std::memory_order_relaxed); i < tasks;
           i = next.fetch_add(1, std::memory_order_relaxed)) {
        task(i);
      }
    } catch (...) {
      next.store(tasks, std::memory_order_relaxed);
      MutexLock lock(error_mu);
      if (!error) error = std::current_exception();
    }
  };
  std::vector<std::thread> helpers;
  helpers.reserve(workers - 1);
  for (int t = 1; t < workers; ++t) {
    // A helper that cannot start leaves its share to the threads that
    // did: every task is still claimed by someone.
    try {
      helpers.emplace_back(claim);
    } catch (const std::system_error&) {
      break;
    }
  }
  claim();
  for (std::thread& helper : helpers) helper.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace sqlnf

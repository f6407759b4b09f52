// Dependency-free parallel-execution utility: a fixed pool of worker
// threads plus the chunked ParallelReduce helper.
//
// The O(n²) row-pair sweep behind Section-7 discovery, the batch
// validators' scan and their CodeHashIndex build, and corpus-level
// mining are embarrassingly parallel; they are the pool's callers. The
// query executor (engine/relops.h, decomposition/encoded_ops.h) runs
// serially on the calling thread and takes no pool. Everything here is
// deterministic by construction: work is split into chunks whose
// boundaries depend only on the input size, and reductions fold the
// per-chunk results left-to-right in chunk order. With `threads <= 1`
// every helper runs inline on the calling thread (no pool, no locks),
// which keeps tests and single-threaded callers bit-for-bit identical
// to the pre-parallel code.
//
// Thread counts are always an EXPLICIT caller option (ParallelOptions /
// DiscoveryOptions::threads); nothing here inspects the machine.

#ifndef SQLNF_UTIL_PARALLEL_H_
#define SQLNF_UTIL_PARALLEL_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "sqlnf/util/mutex.h"
#include "sqlnf/util/thread_annotations.h"

namespace sqlnf {

/// Caller-facing knob for the parallel entry points. `threads <= 1`
/// means serial execution on the calling thread.
struct ParallelOptions {
  int threads = 1;
};

/// A fixed pool of `threads - 1` workers; the calling thread always
/// participates, so `ThreadPool(4)` uses four threads total. One batch
/// of tasks runs at a time (RunTasks is not reentrant); tasks are
/// claimed dynamically from an atomic counter, so uneven task costs
/// load-balance themselves.
class ThreadPool {
 public:
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads doing work (workers + the caller).
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs task(0) .. task(num_tasks - 1), each exactly once, across the
  /// workers and the calling thread. Blocks until all complete. Tasks
  /// must not call RunTasks on the same pool.
  void RunTasks(int num_tasks, const std::function<void(int)>& task);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  Mutex mu_;
  CondVar work_cv_;
  CondVar done_cv_;
  // Batch in flight; workers snapshot job_/total_ into locals under mu_
  // and claim tasks lock-free from the atomics afterwards.
  const std::function<void(int)>* job_ SQLNF_GUARDED_BY(mu_) = nullptr;
  int total_ SQLNF_GUARDED_BY(mu_) = 0;
  std::atomic<int> next_{0};
  std::atomic<int> completed_{0};
  // Workers currently claiming from the batch.
  int active_ SQLNF_GUARDED_BY(mu_) = 0;
  uint64_t generation_ SQLNF_GUARDED_BY(mu_) = 0;
  bool stop_ SQLNF_GUARDED_BY(mu_) = false;
};

/// Number of chunks used to split `n` items for a pool: enough slack
/// for dynamic load balancing without drowning in scheduling overhead.
int ParallelChunks(const ThreadPool& pool, int64_t n);

/// Maps [begin, end) in chunks and folds the per-chunk results
/// LEFT-TO-RIGHT in chunk order — deterministic for non-commutative
/// combines (e.g. ordered dedup merges). `map(chunk_begin, chunk_end)`
/// produces one T per chunk; `combine(accumulator, chunk_result)` folds
/// it in on the calling thread. T must be default-constructible, and
/// combining a default-constructed T must be a no-op (chunking may
/// produce empty tail chunks).
template <typename T, typename MapFn, typename CombineFn>
T ParallelReduce(ThreadPool& pool, int64_t begin, int64_t end, T init,
                 MapFn&& map, CombineFn&& combine) {
  const int64_t n = end - begin;
  if (n <= 0) return init;
  const int chunks = ParallelChunks(pool, n);
  std::vector<T> partial(chunks);
  const int64_t per_chunk = (n + chunks - 1) / chunks;
  pool.RunTasks(chunks, [&](int c) {
    const int64_t b = begin + c * per_chunk;
    const int64_t e = std::min(end, b + per_chunk);
    if (b < e) partial[c] = map(b, e);
  });
  T acc = std::move(init);
  for (T& p : partial) acc = combine(std::move(acc), std::move(p));
  return acc;
}

}  // namespace sqlnf

#endif  // SQLNF_UTIL_PARALLEL_H_

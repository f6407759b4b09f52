#include "sqlnf/util/parallel.h"

namespace sqlnf {

ThreadPool::ThreadPool(int threads) {
  const int workers = std::max(1, threads) - 1;
  workers_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_generation = 0;
  for (;;) {
    const std::function<void(int)>* job;
    int total;
    {
      MutexLock lock(mu_);
      while (!stop_ && generation_ == seen_generation) work_cv_.Wait(mu_);
      if (stop_) return;
      seen_generation = generation_;
      job = job_;
      // A batch that already retired (job_ reset) leaves nothing to
      // claim; waking for it must not touch the task counters.
      if (job == nullptr) continue;
      // The batch size is fixed for the batch's lifetime, so a copy
      // taken under the lock stays valid for the whole claiming loop —
      // RunTasks only rewrites total_ for the NEXT batch, which cannot
      // start until this worker deregisters below.
      total = total_;
      // Registering under the lock is what lets RunTasks know a worker
      // is inside the claiming loop: the batch cannot retire — and the
      // counters cannot be reused for the next batch — until every
      // registered worker has deregistered below.
      ++active_;
    }
    for (;;) {
      const int i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= total) break;
      (*job)(i);
      completed_.fetch_add(1, std::memory_order_acq_rel);
    }
    {
      MutexLock lock(mu_);
      --active_;
    }
    done_cv_.NotifyAll();
  }
}

void ThreadPool::RunTasks(int num_tasks,
                          const std::function<void(int)>& task) {
  if (num_tasks <= 0) return;
  if (workers_.empty() || num_tasks == 1) {
    for (int i = 0; i < num_tasks; ++i) task(i);
    return;
  }
  {
    MutexLock lock(mu_);
    job_ = &task;
    total_ = num_tasks;
    next_.store(0, std::memory_order_relaxed);
    completed_.store(0, std::memory_order_relaxed);
    ++generation_;
  }
  work_cv_.NotifyAll();
  // The calling thread claims tasks alongside the workers.
  for (;;) {
    const int i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= num_tasks) break;
    task(i);
    completed_.fetch_add(1, std::memory_order_acq_rel);
  }
  // Retire the batch only once every task ran AND every registered
  // worker has left its claiming loop. Without the second condition a
  // worker still probing next_ after the final task could observe the
  // counters reset by the NEXT batch and re-claim index 0 against this
  // batch's (by then dangling) job pointer.
  MutexLock lock(mu_);
  while (completed_.load(std::memory_order_acquire) != num_tasks ||
         active_ != 0) {
    done_cv_.Wait(mu_);
  }
  job_ = nullptr;
}

int ParallelChunks(const ThreadPool& pool, int64_t n) {
  const int target = pool.num_threads() * 4;
  return static_cast<int>(
      std::min<int64_t>(n, std::max(1, target)));
}

}  // namespace sqlnf

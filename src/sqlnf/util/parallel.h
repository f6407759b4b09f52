// Dependency-free fork-join: run independent tasks on a few threads.
//
// Threads go only where work splits into independent pieces that
// measurably gain from them: discovery sweeps its row-pair triangle in
// slices (discovery/agree_sets.h), and the corpus benches mine one
// table per task. Each task writes its own output slot and the
// caller folds the slots in task order after the join, so results never
// depend on the thread count or on scheduling.
//
// Thread counts are always an EXPLICIT caller argument; nothing here
// inspects the machine.

#ifndef SQLNF_UTIL_PARALLEL_H_
#define SQLNF_UTIL_PARALLEL_H_

#include <functional>

namespace sqlnf {

/// Runs task(0) .. task(tasks - 1), each exactly once, and returns when
/// all have finished. With `threads <= 1` or `tasks <= 1` they run
/// inline on the caller, in order. Otherwise min(threads, tasks) − 1
/// helper threads start and claim task ids from one shared counter
/// alongside the caller; they are joined before return. An exception a
/// task throws stops further claims and is rethrown on the caller after
/// the join.
void ForkJoin(int threads, int tasks, const std::function<void(int)>& task);

}  // namespace sqlnf

#endif  // SQLNF_UTIL_PARALLEL_H_

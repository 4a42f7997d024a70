// Short-lived helper threads placed on CPUs of their own.
//
// Where the kernel does not balance load between CPUs (a cpuset whose
// sched_load_balance reads 0), a new thread starts on the CPU of the
// thread that made it and may stay there: N unplaced threads can share
// one CPU and finish no sooner than one thread would. runPlaced binds
// each helper it starts to a distinct CPU of the caller's affinity
// mask, so the work spreads whether or not the kernel balances. It is
// meant for one burst of independent work that ends before runPlaced
// returns (the duplicate report's runs, sde/duplicates.hpp); the job
// runners keep their unplaced ThreadPool.
#pragma once

#include <functional>
#include <vector>

namespace sde::support {

// The CPUs the calling thread may run on (its affinity mask, which
// taskset and cpusets narrow), in ascending order. Empty where the
// platform has no affinity masks.
[[nodiscard]] std::vector<unsigned> allowedCpus();

// Runs task(0) .. task(tasks - 1) concurrently and returns once every
// one has finished: task 0 on the calling thread, every other one on a
// helper thread that first binds itself to an allowed CPU — the CPUs
// other than the caller's come first, and no two helpers share one while
// CPUs last. Off Linux the helpers stay unplaced. If tasks throw, the
// first exception (in task order) is rethrown after every helper joined.
void runPlaced(unsigned tasks, const std::function<void(unsigned)>& task);

}  // namespace sde::support

#include "support/placed_threads.hpp"

#include <algorithm>
#include <exception>
#include <thread>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace sde::support {

std::vector<unsigned> allowedCpus() {
  std::vector<unsigned> cpus;
#ifdef __linux__
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    for (unsigned cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &mask)) cpus.push_back(cpu);
  }
#endif
  return cpus;
}

namespace {

// Binds the calling thread to `cpu`; if the kernel refuses, the thread
// runs unplaced.
void bindTo(unsigned cpu) {
#ifdef __linux__
  cpu_set_t mask;
  CPU_ZERO(&mask);
  CPU_SET(cpu, &mask);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(mask), &mask);
#else
  (void)cpu;
#endif
}

// The CPUs for helpers 1, 2, ... in turn: the allowed ones, the
// caller's current CPU last.
std::vector<unsigned> helperCpus() {
  std::vector<unsigned> cpus = allowedCpus();
#ifdef __linux__
  const int own = sched_getcpu();
  std::stable_partition(cpus.begin(), cpus.end(), [own](unsigned cpu) {
    return static_cast<int>(cpu) != own;
  });
#endif
  return cpus;
}

}  // namespace

void runPlaced(unsigned tasks, const std::function<void(unsigned)>& task) {
  if (tasks == 0) return;
  std::vector<std::exception_ptr> errors(tasks);
  const auto attempt = [&](unsigned i) {
    try {
      task(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };
  {
    const std::vector<unsigned> cpus = helperCpus();
    std::vector<std::jthread> helpers;
    helpers.reserve(tasks - 1);
    for (unsigned i = 1; i < tasks; ++i) {
      helpers.emplace_back([&, i] {
        if (!cpus.empty()) bindTo(cpus[(i - 1) % cpus.size()]);
        attempt(i);
      });
    }
    attempt(0);
  }  // joins the helpers
  for (const std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);
}

}  // namespace sde::support

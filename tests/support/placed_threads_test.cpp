#include "support/placed_threads.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

namespace sde::support {
namespace {

TEST(PlacedThreadsTest, RunsEveryTaskExactlyOnce) {
  for (unsigned tasks = 0; tasks <= 9; ++tasks) {
    std::vector<std::atomic<int>> runs(tasks);
    runPlaced(tasks, [&](unsigned i) { runs[i].fetch_add(1); });
    for (unsigned i = 0; i < tasks; ++i)
      EXPECT_EQ(runs[i].load(), 1) << "task " << i << " of " << tasks;
  }
}

TEST(PlacedThreadsTest, RethrowsTheFirstFailureAfterEveryTaskRan) {
  std::atomic<int> finished{0};
  try {
    runPlaced(4, [&](unsigned i) {
      finished.fetch_add(1);
      if (i >= 2) throw std::runtime_error("task " + std::to_string(i));
    });
    FAIL() << "no exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 2");
  }
  EXPECT_EQ(finished.load(), 4);
}

TEST(PlacedThreadsTest, AllowedCpusAreTheAffinityMask) {
  const std::vector<unsigned> cpus = allowedCpus();
#ifdef __linux__
  ASSERT_FALSE(cpus.empty());
  EXPECT_TRUE(std::is_sorted(cpus.begin(), cpus.end()));
  cpu_set_t mask;
  CPU_ZERO(&mask);
  ASSERT_EQ(sched_getaffinity(0, sizeof(mask), &mask), 0);
  EXPECT_EQ(cpus.size(), static_cast<std::size_t>(CPU_COUNT(&mask)));
  for (const unsigned cpu : cpus) EXPECT_TRUE(CPU_ISSET(cpu, &mask));
#else
  EXPECT_TRUE(cpus.empty());
#endif
}

#ifdef __linux__
// The helpers' CPUs are what the duplicate report's speed-up rests on:
// one per allowed CPU, none shared, the caller's taken last.
TEST(PlacedThreadsTest, HelpersRunOnDistinctAllowedCpus) {
  const std::vector<unsigned> cpus = allowedCpus();
  if (cpus.size() < 2) GTEST_SKIP() << "one allowed CPU";
  const auto tasks = static_cast<unsigned>(cpus.size());
  std::vector<int> startedOn(tasks, -1);
  std::vector<int> endedOn(tasks, -1);
  runPlaced(tasks, [&](unsigned i) {
    startedOn[i] = sched_getcpu();
    volatile unsigned spin = 0;
    for (unsigned k = 0; k < 1'000'000; ++k) spin = spin + k;
    endedOn[i] = sched_getcpu();
  });
  std::set<int> helperCpus;
  for (unsigned i = 1; i < tasks; ++i) {
    EXPECT_EQ(startedOn[i], endedOn[i]) << "helper " << i << " moved";
    EXPECT_TRUE(std::find(cpus.begin(), cpus.end(),
                          static_cast<unsigned>(startedOn[i])) != cpus.end());
    helperCpus.insert(startedOn[i]);
  }
  EXPECT_EQ(helperCpus.size(), tasks - 1) << "two helpers shared a CPU";
}
#endif

}  // namespace
}  // namespace sde::support

// Running out of memory while extracting a partition job's result is a
// typed outcome: runPartitionJob ends the job as kAbortedMemory and
// writes no .done file, under both runners, instead of letting
// std::bad_alloc escape a pool thread (which ends the process) or a
// fleet worker (which dies and is respawned into the same death).
//
// Each case runs in a forked child that lowers its own address-space
// limit (RLIMIT_AS) to 512 MiB above what it already maps, then runs a
// collect configuration whose test cases outgrow that within about a
// second: symbolic duplicates under SDS on a 4x4 grid as one job, whose
// 1.8 million dscenarios' test cases take about 2.8 GB while the engine
// needs about 60 MB. Skipped under sanitizers, whose runtimes reserve
// far more address space than the limit leaves.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>

#include "sde/fleet.hpp"
#include "snapshot/manifest.hpp"
#include "trace/scenario.hpp"

namespace sde {
namespace {

namespace fs = std::filesystem;

bool sanitizersActive() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

trace::CollectScenarioConfig duplicatesUnderSds() {
  trace::CollectScenarioConfig config;
  config.gridWidth = 4;
  config.gridHeight = 4;
  config.simulationTime = 2500;
  config.mapper = MapperKind::kSds;
  config.symbolicDuplicates = true;
  config.engine.maxStates = 20'000;
  return config;
}

// The exit codes of runCapped's child.
constexpr int kMemoryAbort = 0;     // the run returned kAbortedMemory
constexpr int kOtherOutcome = 1;    // the run returned something else
constexpr int kEscaped = 2;         // an exception left the run
constexpr int kNoLimit = 3;         // the limit could not be set

// Runs `body` in a forked child whose address space may grow by only
// 512 MiB, and returns the child's exit code, or 128 + the signal that
// ended it.
int runCapped(const std::function<bool()>& body) {
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    std::ifstream statm("/proc/self/statm");
    unsigned long long pages = 0;
    statm >> pages;
    const rlim_t limit =
        pages * static_cast<rlim_t>(::sysconf(_SC_PAGESIZE)) + (512ULL << 20);
    const rlimit cap{limit, limit};
    if (pages == 0 || ::setrlimit(RLIMIT_AS, &cap) != 0) ::_exit(kNoLimit);
    int code = kEscaped;
    try {
      code = body() ? kMemoryAbort : kOtherOutcome;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "escaped: %s\n", e.what());
    }
    std::fflush(nullptr);
    ::_exit(code);
  }
  int status = 0;
  if (pid < 0 || ::waitpid(pid, &status, 0) != pid) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

TEST(OutOfMemoryTest, TheThreadRunnerEndsTheJobAsAMemoryAbort) {
  if (sanitizersActive()) GTEST_SKIP() << "address-space limit";
  const int code = runCapped([] {
    ParallelConfig parallel;
    parallel.collectTestcases = true;
    parallel.shmQueryCache = false;
    const ParallelResult result =
        trace::runCollectPartitioned(duplicatesUnderSds(), parallel, 0)
            .result;
    const JobResult& job = result.jobs.at(0);
    std::fprintf(stderr, "run %s, job %s, %llu states, %zu test cases\n",
                 runOutcomeName(result.outcome).data(),
                 runOutcomeName(job.outcome).data(),
                 static_cast<unsigned long long>(job.states),
                 job.testcases.size());
    return result.outcome == RunOutcome::kAbortedMemory &&
           job.outcome == RunOutcome::kAbortedMemory && job.states > 0 &&
           job.events > 0 && job.testcases.empty() &&
           job.stats.get("engine.events") == job.events;
  });
  EXPECT_EQ(code, kMemoryAbort);
}

TEST(OutOfMemoryTest, AFleetWorkerEndsTheJobAsAMemoryAbort) {
  if (sanitizersActive()) GTEST_SKIP() << "address-space limit";
  const fs::path dir =
      fs::path(::testing::TempDir()) / "sde_out_of_memory_fleet";
  fs::remove_all(dir);
  const int code = runCapped([&dir] {
    FleetConfig fleet;
    fleet.processes = 1;
    fleet.checkpointDir = dir.string();
    fleet.collectTestcases = true;
    fleet.shmQueryCache = false;
    const FleetResult result =
        trace::runCollectFleet(duplicatesUnderSds(), fleet, 0);
    const JobResult& job = result.result.jobs.at(0);
    std::fprintf(stderr,
                 "run %s, job %s, %llu states, %llu deaths, %u .done\n",
                 runOutcomeName(result.result.outcome).data(),
                 runOutcomeName(job.outcome).data(),
                 static_cast<unsigned long long>(job.states),
                 static_cast<unsigned long long>(result.workerDeaths),
                 result.jobsDone);
    return result.result.outcome == RunOutcome::kAbortedMemory &&
           job.outcome == RunOutcome::kAbortedMemory && job.states > 0 &&
           result.workerDeaths == 0 && result.jobsDone == 0;
  });
  EXPECT_EQ(code, kMemoryAbort);
  EXPECT_FALSE(fs::exists(snapshot::jobDonePath(dir.string(), 0)));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace sde

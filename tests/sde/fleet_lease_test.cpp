// One-job leases in the fleet (sde/fleet.hpp): an idle worker takes the
// lowest job id no worker holds, so a job that stalls holds back no
// other job, and a plan with fewer jobs than processes forks one worker
// per job. Oracles: the thread runner's digest, every job executed once
// and one .done file per job.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "sde/fleet.hpp"
#include "snapshot/manifest.hpp"
#include "trace/scenario.hpp"

namespace sde {
namespace {

namespace fs = std::filesystem;

trace::CollectScenarioConfig smallGrid() {
  trace::CollectScenarioConfig config;
  config.gridWidth = 5;
  config.gridHeight = 5;
  config.simulationTime = 2500;
  config.mapper = MapperKind::kSds;
  return config;
}

fs::path freshDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("sde_" + name);
  fs::remove_all(dir);
  return dir;
}

std::uint64_t threadRunnerDigest(std::size_t vars) {
  ParallelConfig threads;
  threads.workers = 2;
  return trace::runCollectPartitioned(smallGrid(), threads, vars)
      .result.fingerprintDigest();
}

std::uint32_t countDoneFiles(const fs::path& dir, std::uint32_t jobs) {
  std::uint32_t done = 0;
  for (std::uint32_t id = 0; id < jobs; ++id)
    done += fs::exists(snapshot::jobDonePath(dir, id)) ? 1 : 0;
  return done;
}

// Job 0's worker holds it until every other job has its .done file: the
// other worker must get them all, one lease at a time, while job 0 sits
// before its engine (where no protocol frame is read). A range lease
// would leave jobs 1-3 behind job 0; the hold gives up after 30 s and
// leaves a marker.
TEST(FleetLeaseTest, AStalledJobHoldsBackNoOtherJob) {
  constexpr std::uint32_t kJobs = 8;
  const std::uint64_t want = threadRunnerDigest(/*vars=*/3);

  const fs::path dir = freshDir("fleet_lease_stall");
  const fs::path starved = dir / "starved";
  FleetConfig fleet;
  fleet.processes = 2;
  fleet.checkpointDir = dir.string();
  fleet.chaos.beforeJob = [dir, starved](std::uint32_t jobId) {
    if (jobId != 0) return;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (countDoneFiles(dir, kJobs) < kJobs - 1) {
      if (std::chrono::steady_clock::now() > deadline) {
        std::ofstream(starved).put('x');
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  };
  const FleetResult run = trace::runCollectFleet(smallGrid(), fleet,
                                                 /*vars=*/3);

  ASSERT_EQ(run.result.outcome, RunOutcome::kCompleted);
  EXPECT_FALSE(fs::exists(starved))
      << "jobs 1-7 did not finish while job 0 was held";
  EXPECT_EQ(run.result.fingerprintDigest(), want);
  ASSERT_EQ(run.executedCounts.size(), kJobs);
  for (std::uint32_t job = 0; job < kJobs; ++job)
    EXPECT_EQ(run.executedCounts[job], 1u) << "job " << job;
  EXPECT_EQ(countDoneFiles(dir, kJobs), kJobs);
  fs::remove_all(dir);
}

// A worker without a job would only wait for shutdown: a 1-job plan on 4
// processes forks one worker.
TEST(FleetLeaseTest, AOneJobPlanForksOneWorker) {
  const std::uint64_t want = threadRunnerDigest(/*vars=*/0);

  const fs::path dir = freshDir("fleet_lease_one_job");
  FleetConfig fleet;
  fleet.processes = 4;
  fleet.checkpointDir = dir.string();
  const FleetResult run = trace::runCollectFleet(smallGrid(), fleet,
                                                 /*vars=*/0);

  ASSERT_EQ(run.result.outcome, RunOutcome::kCompleted);
  EXPECT_EQ(run.processes, 1u);
  EXPECT_EQ(run.result.fingerprintDigest(), want);
  ASSERT_EQ(run.executedCounts.size(), 1u);
  EXPECT_EQ(run.executedCounts[0], 1u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace sde

// Graceful fleet suspend (FleetConfig::stopRequested / SIGTERM):
// interrupting a running fleet checkpoints in-flight jobs and exits
// cleanly, and a resume finishes the run with the digest of an
// uninterrupted one (test generation taken from the run directory).
// This is the preemption primitive the sde_serve scheduler builds on —
// suspend must never lose accepted work.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <thread>

#include "sde/fleet.hpp"
#include "snapshot/manifest.hpp"
#include "suspend_at_checkpoint.hpp"
#include "trace/scenario.hpp"

namespace sde {
namespace {

namespace fs = std::filesystem;

trace::CollectScenarioConfig scenarioConfig() {
  trace::CollectScenarioConfig config;
  config.gridWidth = 5;
  config.gridHeight = 5;
  config.simulationTime = 4000;
  config.mapper = MapperKind::kSds;
  return config;
}

// One directory per process, so a --gtest_repeat loop next to ctest
// never shares a run directory with the suite's own run of a test.
fs::path freshDir(const std::string& name) {
  const fs::path dir =
      fs::path(::testing::TempDir()) /
      ("sde_" + name + "_" + std::to_string(static_cast<long>(::getpid())));
  fs::remove_all(dir);
  return dir;
}

std::size_t countDoneFiles(const fs::path& dir, std::size_t numJobs) {
  std::size_t done = 0;
  for (std::uint32_t id = 0; id < numJobs; ++id)
    if (fs::exists(snapshot::jobDonePath(dir, id))) ++done;
  return done;
}

std::uint64_t referenceDigest(const trace::CollectScenarioConfig& config,
                              std::size_t vars) {
  ParallelConfig threads;
  threads.workers = 2;
  return trace::runCollectPartitioned(config, threads, vars)
      .result.fingerprintDigest();
}

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

// Suspend via the embed-able stop hook once the second job completes
// (the coordinator folds the first while the second runs), then resume
// the directory: the suspended result must be unmerged and the final
// digest must equal the uninterrupted run's. The stop condition
// reads the durable queue (not coordinator memory), so it observes
// exactly what a restarted daemon would.
TEST(FleetSuspendTest, StopHookSuspendsAndResumeMatchesReferenceDigest) {
  const auto config = scenarioConfig();
  constexpr std::size_t kVars = 2;  // 4 jobs
  const std::uint64_t expected = referenceDigest(config, kVars);

  const fs::path dir = freshDir("fleet_suspend_stophook");
  FleetConfig fleet;
  fleet.processes = 1;  // sequential job order: jobs 0-1 done => 2-3 not
  fleet.checkpointDir = dir.string();
  fleet.shmQueryCache = false;
  fleet.stopRequested = [&dir] { return countDoneFiles(dir, 4) >= 2; };

  const FleetResult first = trace::runCollectFleet(config, fleet, kVars);

  if (first.suspended) {
    EXPECT_EQ(first.result.outcome, RunOutcome::kSuspended);
    EXPECT_GE(first.jobsDone, 1u);
    EXPECT_LT(first.jobsDone, 4u);
    // The coordinator folds a job as soon as it is reported done; none
    // of that may reach a suspended run's result.
    EXPECT_TRUE(first.result.jobs.empty());
    EXPECT_TRUE(first.result.testcases.empty());
    EXPECT_TRUE(first.result.scenarioFingerprints.empty());
    EXPECT_TRUE(first.result.stateFingerprints.empty());
    EXPECT_EQ(first.result.totalStates, 0u);
    EXPECT_EQ(first.result.totalEvents, 0u);
    EXPECT_EQ(first.result.totalScenariosOwned, 0u);

    FleetConfig resumeConfig;
    resumeConfig.processes = 2;
    resumeConfig.checkpointDir = dir.string();
    resumeConfig.resume = true;
    resumeConfig.shmQueryCache = false;
    const FleetResult second =
        trace::runCollectFleet(config, resumeConfig, kVars);
    EXPECT_FALSE(second.suspended);
    EXPECT_EQ(second.result.outcome, RunOutcome::kCompleted);
    EXPECT_EQ(second.result.fingerprintDigest(), expected);
  } else {
    // The whole run finished before the coordinator polled the stop
    // hook (possible on a very fast machine) — the digest must still
    // match.
    EXPECT_EQ(first.result.fingerprintDigest(), expected);
  }
  fs::remove_all(dir);
}

// A resume rebuilds the run from its directory alone, test generation
// included: the recorded spec says the run generates test cases, a
// resume that takes the setting from there re-runs every job to the
// launch's digest and test cases, and one that asks for the other
// setting is refused before anything runs.
TEST(FleetResumeTest, RecordedTestGenerationSurvivesAResume) {
  const auto config = scenarioConfig();
  constexpr std::size_t kVars = 2;  // 4 jobs
  const fs::path dir = freshDir("fleet_resume_testcases");
  FleetConfig launch;
  launch.processes = 2;
  launch.checkpointDir = dir.string();
  launch.collectTestcases = true;
  const FleetResult launched = trace::runCollectFleet(config, launch, kVars);
  ASSERT_EQ(launched.result.outcome, RunOutcome::kCompleted);
  ASSERT_FALSE(launched.result.testcases.empty());

  // What sde_fleet resume and sde_checkpoint resume read.
  const auto recorded = trace::decodeCollectScenarioSpec(
      snapshot::readManifest(dir).scenarioSpec);
  ASSERT_TRUE(recorded.has_value());
  EXPECT_TRUE(recorded->collectTestcases);

  for (std::uint32_t id = 0; id < 4; ++id)
    fs::remove(snapshot::jobDonePath(dir, id));
  FleetConfig resume;
  resume.processes = 2;
  resume.checkpointDir = dir.string();
  resume.resume = true;
  EXPECT_THROW((void)trace::runCollectFleet(recorded->config, resume,
                                            recorded->numPartitionVariables),
               snapshot::SnapshotError);

  resume.collectTestcases = recorded->collectTestcases;
  const FleetResult resumed = trace::runCollectFleet(
      recorded->config, resume, recorded->numPartitionVariables);
  EXPECT_EQ(resumed.result.outcome, RunOutcome::kCompleted);
  EXPECT_EQ(resumed.result.fingerprintDigest(),
            launched.result.fingerprintDigest());
  EXPECT_EQ(resumed.result.testcases, launched.result.testcases);
  fs::remove_all(dir);
}

// A suspend request that lands mid-job exercises the engine abort path:
// the in-flight job must reappear as a .ckpt (not vanish, not .done).
TEST(FleetSuspendTest, MidJobSuspendLeavesResumableCheckpoint) {
  const auto config = scenarioConfig();
  constexpr std::size_t kVars = 2;

  const fs::path dir = freshDir("fleet_suspend_midjob");
  FleetConfig fleet;
  fleet.processes = 1;
  fleet.checkpointDir = dir.string();
  fleet.shmQueryCache = false;
  fleet.checkpointEveryEvents = 64;
  suspendAtFirstCheckpoint(fleet, dir);

  const FleetResult first = trace::runCollectFleet(config, fleet, kVars);
  ASSERT_TRUE(first.suspended);
  EXPECT_GE(first.jobsSuspendedMidRun, 1u);

  bool anyCheckpoint = false;
  for (std::uint32_t id = 0; id < 4; ++id)
    anyCheckpoint |= fs::exists(snapshot::jobCheckpointPath(dir, id));
  EXPECT_TRUE(anyCheckpoint);

  FleetConfig resumeConfig;
  resumeConfig.processes = 1;
  resumeConfig.checkpointDir = dir.string();
  resumeConfig.resume = true;
  resumeConfig.shmQueryCache = false;
  const FleetResult second =
      trace::runCollectFleet(config, resumeConfig, kVars);
  EXPECT_EQ(second.result.fingerprintDigest(),
            referenceDigest(config, kVars));
  fs::remove_all(dir);
}

// Merge mode across suspend/restore: a merged exploration interrupted
// mid-job must checkpoint its guard side tables (checkpoint v5) and
// resume to the digest of an uninterrupted merged run — merged states
// and their expansion metadata survive the round-trip byte-for-byte.
TEST(FleetSuspendTest, MergedMidJobSuspendResumesToMergedReferenceDigest) {
  auto config = scenarioConfig();
  config.engine.mergeStates = true;
  config.engine.loopSummarize = true;
  constexpr std::size_t kVars = 2;
  const std::uint64_t expected = referenceDigest(config, kVars);

  const fs::path dir = freshDir("fleet_suspend_merged");
  FleetConfig fleet;
  fleet.processes = 1;
  fleet.checkpointDir = dir.string();
  fleet.shmQueryCache = false;
  fleet.checkpointEveryEvents = 64;
  suspendAtFirstCheckpoint(fleet, dir);

  const FleetResult first = trace::runCollectFleet(config, fleet, kVars);
  ASSERT_TRUE(first.suspended);
  EXPECT_GE(first.jobsSuspendedMidRun, 1u);

  FleetConfig resumeConfig;
  resumeConfig.processes = 4;  // resume on a different fleet shape
  resumeConfig.checkpointDir = dir.string();
  resumeConfig.resume = true;
  resumeConfig.shmQueryCache = false;
  const FleetResult second = trace::runCollectFleet(config, resumeConfig, kVars);
  EXPECT_FALSE(second.suspended);
  EXPECT_EQ(second.result.outcome, RunOutcome::kCompleted);
  EXPECT_EQ(second.result.fingerprintDigest(), expected);
  fs::remove_all(dir);
}

// The SIGTERM path end to end: a forked process runs the fleet with
// installSigtermSuspend, the parent SIGTERMs it mid-run, the child
// reports a clean suspended exit, and an in-process resume completes
// with the reference digest.
TEST(FleetSuspendTest, SigtermSuspendsChildFleetAndResumeCompletes) {
  if (sanitizersActive())
    GTEST_SKIP() << "fork-based signal test is noisy under sanitizers";

  const auto config = scenarioConfig();
  constexpr std::size_t kVars = 2;
  const fs::path dir = freshDir("fleet_suspend_sigterm");
  fs::create_directories(dir);

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    FleetConfig fleet;
    fleet.processes = 2;
    fleet.checkpointDir = dir.string();
    fleet.shmQueryCache = false;
    fleet.checkpointEveryEvents = 64;
    fleet.installSigtermSuspend = true;
    try {
      const FleetResult result = trace::runCollectFleet(config, fleet, kVars);
      _exit(result.suspended ? 42 : 7);
    } catch (...) {
      _exit(9);
    }
  }

  // Give the fleet time to get going, then ask it to yield.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!fs::exists(snapshot::manifestPath(dir)) &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  ASSERT_EQ(::kill(child, SIGTERM), 0);

  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  const int code = WEXITSTATUS(status);
  ASSERT_TRUE(code == 42 || code == 7) << "child exit code " << code;

  FleetConfig resumeConfig;
  resumeConfig.processes = 2;
  resumeConfig.checkpointDir = dir.string();
  resumeConfig.resume = true;
  resumeConfig.shmQueryCache = false;
  const FleetResult final_ = trace::runCollectFleet(config, resumeConfig, kVars);
  EXPECT_FALSE(final_.suspended);
  EXPECT_EQ(final_.result.fingerprintDigest(),
            referenceDigest(config, kVars));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace sde

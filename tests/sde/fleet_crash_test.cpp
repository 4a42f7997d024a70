// Chaos battery for the multi-process fleet (sde/fleet.hpp): SIGKILL
// workers at the nastiest moments and prove the run still completes
// with the crash-free digest.
//
// Kill sites:
//  - beforeJob: a worker dies right after leasing, before any engine
//    exists — the pure re-lease path.
//  - onCheckpoint: a worker dies immediately after atomically writing a
//    job checkpoint — the respawned worker must RESUME that job from
//    its .ckpt (mid-job recovery, not just re-lease).
//  - whole fleet: SIGKILL the coordinator process itself mid-run, then
//    resume the directory in-process — the durable-queue contract — and
//    find nothing of its shared memory left in /dev/shm.
//
// Kill-once gates live on the file system (sentinel files), never in
// captured memory: a respawned worker restarts from the identical fork
// image, so an in-memory "already killed" flag would re-fire forever.
//
// All fork()+SIGKILL tests are skipped under sanitizers (their runtimes
// are not async-kill-safe).
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>

#include "sde/fleet.hpp"
#include "snapshot/manifest.hpp"
#include "trace/scenario.hpp"

namespace sde {
namespace {

namespace fs = std::filesystem;

trace::CollectScenarioConfig smallGrid(std::uint64_t simulationTime) {
  trace::CollectScenarioConfig config;
  config.gridWidth = 5;
  config.gridHeight = 5;
  config.simulationTime = simulationTime;
  config.mapper = MapperKind::kSds;
  return config;
}

fs::path freshDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("sde_" + name);
  fs::remove_all(dir);
  return dir;
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

std::uint64_t crashFreeDigest(const trace::CollectScenarioConfig& config,
                              std::size_t vars) {
  ParallelConfig threads;
  threads.workers = 2;
  return trace::runCollectPartitioned(config, threads, vars)
      .result.fingerprintDigest();
}

// The /dev/shm entries named "sde_...", the prefix of every POSIX shm
// name this project ever used.
std::set<std::string> sdeShmEntries() {
  std::set<std::string> names;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator("/dev/shm", ec)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("sde_")) names.insert(name);
  }
  return names;
}

// Kills `slot` workers once per sentinel when they lease `jobId`.
FleetChaos killOnceBeforeJob(const fs::path& sentinel, unsigned victimSlot,
                             std::uint32_t victimJob) {
  FleetChaos chaos;
  chaos.beforeJob = [sentinel, victimSlot, victimJob](unsigned slot,
                                                      std::uint32_t jobId) {
    if (slot != victimSlot || jobId != victimJob) return;
    if (fs::exists(sentinel)) return;
    { std::ofstream mark(sentinel); }
    ::raise(SIGKILL);
  };
  return chaos;
}

TEST(FleetCrashTest, WorkerKilledBeforeJobIsReLeasedAndRespawned) {
  if (sanitizersActive())
    GTEST_SKIP() << "fork()+SIGKILL is not sanitizer-safe";

  const auto config = smallGrid(4000);
  const std::uint64_t want = crashFreeDigest(config, /*vars=*/3);

  const fs::path dir = freshDir("crash_before_job");
  FleetConfig fleet;
  fleet.processes = 2;
  fleet.checkpointDir = dir.string();
  fleet.chaos = killOnceBeforeJob(dir / "kill.sentinel", /*victimSlot=*/1,
                                  /*victimJob=*/5);
  const FleetResult run = trace::runCollectFleet(config, fleet, /*vars=*/3);

  ASSERT_EQ(run.result.outcome, RunOutcome::kCompleted);
  EXPECT_EQ(run.result.fingerprintDigest(), want);
  EXPECT_GE(run.workerDeaths, 1u);
  EXPECT_GE(run.respawns, 1u);
  // The victim job was leased, the leaseholder died before running an
  // engine, and the job still ran (exactly once — no engine existed at
  // kill time, so the re-run is the only run).
  ASSERT_GT(run.executedCounts.size(), 5u);
  EXPECT_EQ(run.executedCounts[5], 1u);
  fs::remove_all(dir);
}

TEST(FleetCrashTest, WorkerKilledMidCheckpointWriteResumesTheJob) {
  if (sanitizersActive())
    GTEST_SKIP() << "fork()+SIGKILL is not sanitizer-safe";

  const auto config = smallGrid(4000);
  const std::uint64_t want = crashFreeDigest(config, /*vars=*/3);

  const fs::path dir = freshDir("crash_on_ckpt");
  const fs::path sentinel = dir / "ckpt_kill.sentinel";
  FleetConfig fleet;
  fleet.processes = 2;
  fleet.checkpointDir = dir.string();
  // Aggressive cadence so job 0 (the fattest shard start) checkpoints
  // early and often — the kill fires on its first checkpoint.
  fleet.checkpointEveryEvents = 16;
  fleet.chaos.onCheckpoint = [sentinel](unsigned, std::uint32_t jobId) {
    if (jobId != 0) return;
    if (fs::exists(sentinel)) return;
    { std::ofstream mark(sentinel); }
    ::raise(SIGKILL);
  };
  const FleetResult run = trace::runCollectFleet(config, fleet, /*vars=*/3);

  ASSERT_EQ(run.result.outcome, RunOutcome::kCompleted);
  EXPECT_EQ(run.result.fingerprintDigest(), want)
      << "checkpoint-resume diverged from a crash-free run";
  EXPECT_GE(run.workerDeaths, 1u);
  EXPECT_GE(run.respawns, 1u);
  // Only the resumed attempt reports (the killed one died before its
  // kJobDone frame), so the count is exactly 1.
  ASSERT_FALSE(run.executedCounts.empty());
  EXPECT_EQ(run.executedCounts[0], 1u);
  // The sentinel proves the checkpoint write completed before death, so
  // the second run restored rather than started cold — which the equal
  // digest then certifies end-to-end.
  EXPECT_TRUE(fs::exists(sentinel));
  fs::remove_all(dir);
}

TEST(FleetCrashTest, RandomWorkerKillsAcrossTheRunStillConverge) {
  if (sanitizersActive())
    GTEST_SKIP() << "fork()+SIGKILL is not sanitizer-safe";

  const auto config = smallGrid(4000);
  const std::uint64_t want = crashFreeDigest(config, /*vars=*/3);

  // Three separate kills (different slots, different jobs), each gated
  // by its own sentinel — a small storm rather than a single incident.
  const fs::path dir = freshDir("crash_storm");
  FleetConfig fleet;
  fleet.processes = 4;
  fleet.checkpointDir = dir.string();
  fleet.checkpointEveryEvents = 32;
  fleet.chaos.beforeJob = [dir](unsigned slot, std::uint32_t jobId) {
    const fs::path sentinel =
        dir / ("storm_" + std::to_string(slot) + "_" + std::to_string(jobId) +
               ".sentinel");
    const bool target = (slot == 0 && jobId == 1) ||
                        (slot == 1 && jobId == 3) ||
                        (slot == 2 && jobId == 4);
    if (!target || fs::exists(sentinel)) return;
    { std::ofstream mark(sentinel); }
    ::raise(SIGKILL);
  };
  const FleetResult run = trace::runCollectFleet(config, fleet, /*vars=*/3);

  ASSERT_EQ(run.result.outcome, RunOutcome::kCompleted);
  EXPECT_EQ(run.result.fingerprintDigest(), want);
  EXPECT_GE(run.workerDeaths, 1u);
  fs::remove_all(dir);
}

TEST(FleetCrashTest, KilledCoordinatorRunIsResumableFromTheDirectory) {
  if (sanitizersActive())
    GTEST_SKIP() << "fork()+SIGKILL is not sanitizer-safe";

  const auto config = smallGrid(4000);
  const std::uint64_t want = crashFreeDigest(config, /*vars=*/3);

  const fs::path dir = freshDir("crash_coordinator");
  const std::set<std::string> shmBefore = sdeShmEntries();
  const pid_t child = fork();
  ASSERT_NE(child, -1) << "fork failed";
  if (child == 0) {
    // Child: run a whole fleet (coordinator + its workers), with the
    // shared query store and the live metrics plane on. PDEATHSIG in
    // the workers reaps the grandchildren when we are SIGKILLed.
    FleetConfig fleet;
    fleet.processes = 2;
    fleet.checkpointDir = dir.string();
    fleet.checkpointEveryEvents = 16;
    try {
      (void)trace::runCollectFleet(config, fleet, /*vars=*/3);
    } catch (...) {
    }
    _exit(0);
  }

  // Parent: kill the coordinator as soon as the run directory shows a
  // first job artifact.
  const auto anyJobArtifact = [&]() {
    for (std::uint32_t job = 0; job < 8; ++job)
      if (fs::exists(snapshot::jobCheckpointPath(dir, job)) ||
          fs::exists(snapshot::jobDonePath(dir, job)))
        return true;
    return false;
  };
  bool childExited = false;
  int status = 0;
  for (int i = 0; i < 6000; ++i) {  // up to ~60 s
    if (fs::exists(snapshot::manifestPath(dir)) && anyJobArtifact()) break;
    if (waitpid(child, &status, WNOHANG) == child) {
      childExited = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (!childExited) {
    ASSERT_EQ(kill(child, SIGKILL), 0);
    ASSERT_EQ(waitpid(child, &status, 0), child);
  }
  ASSERT_TRUE(fs::exists(snapshot::manifestPath(dir)))
      << "coordinator died before writing the manifest";
  // The query store and the metrics plane are anonymous mappings, so a
  // SIGKILLed coordinator leaves nothing in /dev/shm.
  for (const std::string& name : sdeShmEntries())
    EXPECT_TRUE(shmBefore.contains(name))
        << "the killed coordinator left /dev/shm/" << name;

  // Resume the directory with a fresh fleet.
  FleetConfig resume;
  resume.processes = 2;
  resume.checkpointDir = dir.string();
  resume.resume = true;
  const FleetResult resumed = trace::runCollectFleet(config, resume,
                                                     /*vars=*/3);
  EXPECT_EQ(resumed.result.outcome, RunOutcome::kCompleted);
  EXPECT_EQ(resumed.result.fingerprintDigest(), want);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace sde

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
//    find none of its run-private shm segments left behind.
//
// Kill-once gates live on the file system (sentinel files), never in
// captured memory: a respawned worker restarts from the identical fork
// image, so an in-memory "already killed" flag would re-fire forever.
//
// All fork()+SIGKILL tests are skipped under sanitizers (their runtimes
// are not async-kill-safe); the torn-shm-segment cases don't kill
// anything and run everywhere.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "sde/fleet.hpp"
#include "snapshot/manifest.hpp"
#include "solver/shm_cache.hpp"
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

// Whether /dev/shm holds a segment a process with `pid` derived from
// `prefix`: "<prefix><pid>" or "<prefix><pid>_<sequence>".
bool derivedSegmentLeft(const std::string& prefix, pid_t pid) {
  const std::string stem = prefix + std::to_string(static_cast<long>(pid));
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator("/dev/shm", ec)) {
    const std::string name = entry.path().filename().string();
    if (name == stem || name.starts_with(stem + "_")) return true;
  }
  return false;
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
  const pid_t child = fork();
  ASSERT_NE(child, -1) << "fork failed";
  if (child == 0) {
    // Child: run a whole fleet (coordinator + its workers), with the
    // shared query store and the live metrics plane on, both under
    // derived names. PDEATHSIG in the workers reaps the grandchildren
    // when we are SIGKILLed.
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
  // Run-private segments are unlinked as soon as they are mapped, so a
  // SIGKILLed coordinator leaks neither.
  EXPECT_FALSE(derivedSegmentLeft("sde_qc_", child))
      << "the killed coordinator left its query store in /dev/shm";
  EXPECT_FALSE(derivedSegmentLeft("sde_mx_", child))
      << "the killed coordinator left its metrics plane in /dev/shm";

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

TEST(FleetCrashTest, TornShmSegmentDegradesToAColdCacheNotWrongResults) {
  const auto config = smallGrid(2500);
  const std::uint64_t want = crashFreeDigest(config, /*vars=*/3);

  // Plant a segment under the fleet's explicit name that passes
  // existence checks but fails attach validation: a valid cache
  // truncated behind its header's back (the "machine died mid-life"
  // artifact).
  const std::string shmName =
      "/sde_torn_test_" + std::to_string(static_cast<long>(::getpid()));
  { auto planted = solver::ShmQueryCache::create(shmName); }
  {
    const int fd = ::shm_open(shmName.c_str(), O_RDWR, 0600);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::ftruncate(fd, 8192), 0);
    ::close(fd);
  }
  ASSERT_TRUE(solver::ShmQueryCache::segmentExists(shmName));

  const fs::path dir = freshDir("crash_torn_shm");
  FleetConfig fleet;
  fleet.processes = 2;
  fleet.checkpointDir = dir.string();
  fleet.shmName = shmName;
  const FleetResult run = trace::runCollectFleet(config, fleet, /*vars=*/3);

  EXPECT_TRUE(run.shmDegraded) << "torn segment was silently accepted";
  ASSERT_EQ(run.result.outcome, RunOutcome::kCompleted);
  EXPECT_EQ(run.result.fingerprintDigest(), want)
      << "degraded cache changed the exploration";
  solver::ShmQueryCache::unlinkSegment(shmName);
  fs::remove_all(dir);
}

TEST(FleetCrashTest, WarmSegmentFromAPriorFleetIsReattached) {
  // The healthy counterpart of the torn case: a first fleet leaves its
  // explicitly named segment behind, a second fleet re-attaches it and
  // still produces the identical digest (cache-history independence).
  const auto config = smallGrid(2500);

  const std::string shmName =
      "/sde_warm_test_" + std::to_string(static_cast<long>(::getpid()));
  const fs::path dir1 = freshDir("crash_warm_1");
  FleetConfig first;
  first.processes = 2;
  first.collectTestcases = true;  // generate real cache traffic
  first.checkpointDir = dir1.string();
  first.shmName = shmName;
  const FleetResult cold = trace::runCollectFleet(config, first, /*vars=*/3);
  ASSERT_EQ(cold.result.outcome, RunOutcome::kCompleted);
  ASSERT_TRUE(solver::ShmQueryCache::segmentExists(shmName));

  const fs::path dir2 = freshDir("crash_warm_2");
  FleetConfig second = first;
  second.checkpointDir = dir2.string();
  const FleetResult warm = trace::runCollectFleet(config, second, /*vars=*/3);
  EXPECT_EQ(warm.result.outcome, RunOutcome::kCompleted);
  EXPECT_FALSE(warm.shmDegraded);
  EXPECT_EQ(warm.result.fingerprintDigest(), cold.result.fingerprintDigest());
  // The second fleet started warm: its own solvers found entries they
  // never inserted, and every shared-layer query of its own was a hit
  // (the first fleet published all of them). The segment counts no
  // traffic, so nothing of the first fleet's leaks into these numbers.
  const auto& stats = warm.result.stats;
  EXPECT_GT(stats.get("solver.layer.shared_cache.hits"), 0u);
  EXPECT_EQ(stats.get("solver.layer.shared_cache.queries"),
            stats.get("solver.layer.shared_cache.hits"))
      << "the second fleet missed a query the first fleet published";
  EXPECT_EQ(warm.shmEntries, cold.shmEntries)
      << "the second fleet published a query the first fleet had not";

  solver::ShmQueryCache::unlinkSegment(shmName);
  fs::remove_all(dir1);
  fs::remove_all(dir2);
}

}  // namespace
}  // namespace sde

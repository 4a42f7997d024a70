// Differential oracles for the multi-process fleet runner
// (sde/fleet.hpp): the process count, the shared-memory query cache and
// the execution mode (fleet processes vs threads vs one engine)
// must all be unobservable in the exploration results.
//
//  - Digest matrix: {1, 2, 4, 8 processes} x {shm cache on/off} x
//    {COW, SDS}, test cases on, all produce the byte-identical
//    fingerprintDigest, equal to the single-process thread runner on the
//    same plan.
//  - Merged traces: the fleet's merged.trc is byte-identical to the
//    thread runner's (shared caches off on both sides — with a live
//    cache, per-query layer attribution in the trace is legitimately
//    timing-dependent; digests are cache-invariant either way).
//  - Crash-free accounting: every job executes exactly once, no death
//    machinery triggers spuriously.
//
// The fleet forks workers (no exec, no kills here); that is
// sanitizer-safe, so unlike the chaos battery these tests run under the
// ASan job too.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <string>

#include "obs/metrics_shm.hpp"
#include "sde/fleet.hpp"
#include "trace/scenario.hpp"

namespace sde {
namespace {

namespace fs = std::filesystem;

trace::CollectScenarioConfig smallGrid(MapperKind mapper,
                                       std::uint64_t simulationTime) {
  trace::CollectScenarioConfig config;
  config.gridWidth = 5;
  config.gridHeight = 5;
  config.simulationTime = simulationTime;
  config.mapper = mapper;
  return config;
}

fs::path freshDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("sde_" + name);
  fs::remove_all(dir);
  return dir;
}

std::string slurp(const fs::path& file) {
  std::ifstream in(file, std::ios::binary);
  EXPECT_TRUE(in.good()) << file;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

class FleetEquivalenceTest : public ::testing::TestWithParam<MapperKind> {};

TEST_P(FleetEquivalenceTest, DigestMatrixMatchesThreadRunner) {
  const auto config = smallGrid(GetParam(), 4000);
  const std::string tag = std::string(mapperKindName(GetParam()));

  // Reference: the single-process thread runner on the identical plan.
  // Test generation is what sends queries to the shared store, so every
  // cell generates test cases: store on and off then differ in solver
  // traffic, which the digest must not see.
  ParallelConfig threads;
  threads.workers = 1;
  threads.collectTestcases = true;
  const ParallelResult reference =
      trace::runCollectPartitioned(config, threads, /*vars=*/3).result;
  ASSERT_FALSE(reference.testcases.empty());
  const std::uint64_t want = reference.fingerprintDigest();

  for (const unsigned processes : {1u, 2u, 4u, 8u}) {
    for (const bool shm : {true, false}) {
      const std::string combo = tag + "_p" + std::to_string(processes) +
                                (shm ? "_shm" : "_noshm");
      const fs::path dir = freshDir("fleet_eq_" + combo);
      FleetConfig fleet;
      fleet.processes = processes;
      fleet.shmQueryCache = shm;
      fleet.collectTestcases = true;
      fleet.checkpointDir = dir.string();
      const FleetResult run = trace::runCollectFleet(config, fleet, /*vars=*/3);

      ASSERT_EQ(run.result.outcome, RunOutcome::kCompleted) << combo;
      ASSERT_EQ(run.result.jobs.size(), 8u) << combo;
      EXPECT_EQ(run.result.fingerprintDigest(), want) << combo;
      // The store axis carries traffic: a store-on cell's store took
      // the fleet's solved queries.
      if (shm) {
        EXPECT_GT(run.shmEntries, 0u) << combo;
      }
      // Crash-free: every job ran exactly once, nobody died.
      EXPECT_EQ(run.workerDeaths, 0u) << combo;
      EXPECT_EQ(run.respawns, 0u) << combo;
      for (std::size_t job = 0; job < run.executedCounts.size(); ++job)
        EXPECT_EQ(run.executedCounts[job], 1u) << combo << " job " << job;
      fs::remove_all(dir);
    }
  }
}

TEST_P(FleetEquivalenceTest, TestcasesMatchThreadRunner) {
  // Shorter horizon: test-case generation solves one joint model per
  // dscenario. This also drives real solver traffic through the shm
  // cache (enumerated models are what gets published).
  const auto config = smallGrid(GetParam(), 2500);

  ParallelConfig threads;
  threads.workers = 4;
  threads.collectTestcases = true;
  const trace::PartitionedCollectResult reference =
      trace::runCollectPartitioned(config, threads, /*vars=*/3);
  ASSERT_EQ(reference.result.outcome, RunOutcome::kCompleted);
  ASSERT_FALSE(reference.result.testcases.empty());

  const fs::path dir = freshDir("fleet_tc_" +
                                std::string(mapperKindName(GetParam())));
  FleetConfig fleet;
  fleet.processes = 4;
  fleet.collectTestcases = true;
  fleet.checkpointDir = dir.string();
  const FleetResult run = trace::runCollectFleet(config, fleet, /*vars=*/3);

  ASSERT_EQ(run.result.outcome, RunOutcome::kCompleted);
  EXPECT_EQ(run.result.fingerprintDigest(),
            reference.result.fingerprintDigest());
  EXPECT_EQ(run.result.testcases, reference.result.testcases);
  // Sharing actually happened: the store took the solved queries and
  // answered some of them.
  EXPECT_GT(run.shmEntries, 0u);
  EXPECT_GT(run.result.stats.get("solver.layer.shared_cache.hits"), 0u);
  fs::remove_all(dir);
}

// Merge mode through the whole fleet stack: a merged exploration must
// be distribution-invariant (fleet process count unobservable, digest
// equal to the merged thread runner) and behaviour-preserving (the
// guard-expanded test-case set of the merged fleet equals the plain
// unmerged thread runner's).
TEST_P(FleetEquivalenceTest, MergedFleetMatchesThreadRunnerAndUnmergedTestcases) {
  auto config = smallGrid(GetParam(), 2500);
  const std::string tag = std::string(mapperKindName(GetParam()));

  ParallelConfig plainThreads;
  plainThreads.workers = 2;
  plainThreads.collectTestcases = true;
  const trace::PartitionedCollectResult unmerged =
      trace::runCollectPartitioned(config, plainThreads, /*vars=*/3);
  ASSERT_EQ(unmerged.result.outcome, RunOutcome::kCompleted);
  ASSERT_FALSE(unmerged.result.testcases.empty());

  config.engine.mergeStates = true;
  ParallelConfig mergedThreads;
  mergedThreads.workers = 2;
  mergedThreads.collectTestcases = true;
  const trace::PartitionedCollectResult mergedRef =
      trace::runCollectPartitioned(config, mergedThreads, /*vars=*/3);
  ASSERT_EQ(mergedRef.result.outcome, RunOutcome::kCompleted);
  EXPECT_EQ(mergedRef.result.testcases, unmerged.result.testcases) << tag;

  for (const unsigned processes : {1u, 4u}) {
    const std::string combo = tag + "_merge_p" + std::to_string(processes);
    const fs::path dir = freshDir("fleet_eq_" + combo);
    FleetConfig fleet;
    fleet.processes = processes;
    fleet.collectTestcases = true;
    fleet.checkpointDir = dir.string();
    const FleetResult run = trace::runCollectFleet(config, fleet, /*vars=*/3);

    ASSERT_EQ(run.result.outcome, RunOutcome::kCompleted) << combo;
    EXPECT_EQ(run.result.fingerprintDigest(),
              mergedRef.result.fingerprintDigest())
        << combo;
    EXPECT_EQ(run.result.testcases, unmerged.result.testcases) << combo;
    fs::remove_all(dir);
  }
}

INSTANTIATE_TEST_SUITE_P(Mappers, FleetEquivalenceTest,
                         ::testing::Values(MapperKind::kSds, MapperKind::kCow),
                         [](const auto& info) {
                           return std::string(mapperKindName(info.param));
                         });

TEST(FleetTraceTest, MergedTraceMatchesThreadRunnerByteForByte) {
  const auto config = smallGrid(MapperKind::kSds, 2500);

  // Thread runner with tracing, shared cache off (see file comment).
  const fs::path threadTraces = freshDir("fleet_trc_threads");
  const fs::path threadCkpt = freshDir("fleet_trc_threads_ckpt");
  ParallelConfig threads;
  threads.workers = 2;
  threads.shmQueryCache = false;
  threads.traceDir = threadTraces.string();
  // Durable on both sides: the merged-trace header embeds the recorded
  // scenario spec, so the thread run must record one too.
  threads.checkpointDir = threadCkpt.string();
  ASSERT_EQ(trace::runCollectPartitioned(config, threads, /*vars=*/3)
                .result.outcome,
            RunOutcome::kCompleted);

  const fs::path fleetTraces = freshDir("fleet_trc_fleet");
  const fs::path fleetCkpt = freshDir("fleet_trc_fleet_ckpt");
  FleetConfig fleet;
  fleet.processes = 4;
  fleet.shmQueryCache = false;
  fleet.checkpointDir = fleetCkpt.string();
  fleet.traceDir = fleetTraces.string();
  ASSERT_EQ(trace::runCollectFleet(config, fleet, /*vars=*/3).result.outcome,
            RunOutcome::kCompleted);

  const std::string threadMerged = slurp(threadTraces / "merged.trc");
  const std::string fleetMerged = slurp(fleetTraces / "merged.trc");
  ASSERT_FALSE(threadMerged.empty());
  EXPECT_EQ(fleetMerged, threadMerged)
      << "fleet merged.trc diverges from the thread runner's";

  for (const fs::path& dir :
       {threadTraces, threadCkpt, fleetTraces, fleetCkpt})
    fs::remove_all(dir);
}

TEST(FleetConfigTest, RejectsMissingCheckpointDirAndZeroProcesses) {
  const auto config = smallGrid(MapperKind::kSds, 1000);
  FleetConfig noDir;
  noDir.processes = 2;
  EXPECT_THROW((void)trace::runCollectFleet(config, noDir, /*vars=*/2),
               FleetError);

  const fs::path dir = freshDir("fleet_zero");
  FleetConfig zero;
  zero.processes = 0;
  zero.checkpointDir = dir.string();
  EXPECT_THROW((void)trace::runCollectFleet(config, zero, /*vars=*/2),
               FleetError);

  // A caller's metrics plane needs a slot per worker plus the
  // coordinator's.
  obs::ShmMetricsConfig twoSlots;
  twoSlots.slots = 2;
  obs::ShmMetricsPlane plane(twoSlots);
  FleetConfig smallPlane;
  smallPlane.processes = 2;
  smallPlane.checkpointDir = dir.string();
  smallPlane.metricsPlane = &plane;
  EXPECT_THROW((void)trace::runCollectFleet(config, smallPlane, /*vars=*/2),
               FleetError);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace sde

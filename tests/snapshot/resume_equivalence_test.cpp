// Resume equivalence for durable partitioned runs (manifest layer).
//
// ISSUE acceptance bar: for the paper's 5x5 collect scenario under COW
// and SDS, interrupting a partitioned run at an arbitrary checkpoint
// and resuming yields a merged fingerprint digest *byte-identical* to
// the uninterrupted run — tested for 1 and 4 workers. The interruption
// is forced deterministically through a per-engine state cap: pass 1
// runs engines built with the cap under the uncapped scenario's run
// identity, so the resume (with the uncapped scenario) lifts it, and
// every capped job suspends through the abort-time checkpoint exactly
// as a kill would.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <tuple>

#include "snapshot/error.hpp"
#include "snapshot/manifest.hpp"
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

fs::path freshRunDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("sde_" + name);
  fs::remove_all(dir);
  return dir;
}

constexpr std::size_t kVars = 2;

// A durable run of `config` whose engines stop at a per-engine state cap
// far below a job's total. The manifest records the uncapped scenario,
// so a resume of `config` is the same run with the cap lifted.
ParallelResult runCapped(const trace::CollectScenarioConfig& config,
                         ParallelConfig durable) {
  trace::CollectScenarioConfig capped = config;
  capped.engine.maxStates = 60;
  const trace::CollectScenario scenario(capped);
  durable.horizon = config.simulationTime;
  durable.checkpointEveryEvents = 64;
  durable.scenarioSpec = trace::encodeCollectScenarioSpec(config, kVars);
  return runPartitioned(scenario.engineFactory(),
                        planPartitions(scenario.partitionVariables(kVars)),
                        durable);
}

// Whether some job of `run` stopped mid-run at the cap and left its
// abort-time checkpoint in `dir`.
bool someJobStoppedMidRun(const ParallelResult& run, const fs::path& dir) {
  for (const JobResult& job : run.jobs)
    if (job.outcome == RunOutcome::kAbortedStates &&
        fs::exists(snapshot::jobCheckpointPath(dir, job.jobId)))
      return true;
  return false;
}

class ResumeEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<MapperKind, unsigned>> {};

TEST_P(ResumeEquivalenceTest, InterruptedRunResumesToTheIdenticalDigest) {
  const auto [mapper, workers] = GetParam();
  const auto config = smallGrid(mapper, 4000);
  ParallelConfig base;
  base.workers = workers;

  // Reference digest: the uninterrupted (non-durable) run.
  const trace::PartitionedCollectResult uninterrupted =
      trace::runCollectPartitioned(config, base, /*vars=*/2);
  ASSERT_EQ(uninterrupted.result.outcome, RunOutcome::kCompleted);
  const std::uint64_t want = uninterrupted.result.fingerprintDigest();

  const fs::path dir = freshRunDir(
      "resume_" + std::string(mapperKindName(mapper)) + "_w" +
      std::to_string(workers));

  // Pass 1: durable run under a per-engine state cap far below a job's
  // total — every job that reaches the cap aborts, leaving its
  // abort-time checkpoint behind.
  ParallelConfig interrupted = base;
  interrupted.checkpointDir = dir.string();
  const ParallelResult pass1 = runCapped(config, interrupted);
  ASSERT_EQ(pass1.outcome, RunOutcome::kAbortedStates);
  ASSERT_TRUE(fs::exists(snapshot::manifestPath(dir)));
  bool anyArtifact = false;
  for (std::uint32_t job = 0; job < pass1.jobs.size(); ++job)
    anyArtifact = anyArtifact || fs::exists(snapshot::jobCheckpointPath(
                                     dir, job)) ||
                  fs::exists(snapshot::jobDonePath(dir, job));
  ASSERT_TRUE(anyArtifact) << "aborted run left no per-job artifacts";
  ASSERT_TRUE(someJobStoppedMidRun(pass1, dir));

  // Pass 2: resume with the cap lifted.
  ParallelConfig resume = base;
  resume.checkpointDir = dir.string();
  resume.resume = true;
  const trace::PartitionedCollectResult pass2 =
      trace::runCollectPartitioned(config, resume, /*vars=*/2);
  EXPECT_EQ(pass2.result.outcome, RunOutcome::kCompleted);
  EXPECT_EQ(pass2.result.fingerprintDigest(), want)
      << mapperKindName(mapper) << " workers=" << workers;

  // A completed run leaves every job's .done marker and no stale
  // checkpoints to resume from.
  for (std::uint32_t job = 0; job < pass2.result.jobs.size(); ++job) {
    EXPECT_TRUE(fs::exists(snapshot::jobDonePath(dir, job))) << "job " << job;
    EXPECT_FALSE(fs::exists(snapshot::jobCheckpointPath(dir, job)))
        << "job " << job;
  }

  // Resuming an already-completed run is a pure replay from the .done
  // markers — same digest again.
  const trace::PartitionedCollectResult replay =
      trace::runCollectPartitioned(config, resume, /*vars=*/2);
  EXPECT_EQ(replay.result.outcome, RunOutcome::kCompleted);
  EXPECT_EQ(replay.result.fingerprintDigest(), want);

  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    MappersAndWorkers, ResumeEquivalenceTest,
    ::testing::Combine(::testing::Values(MapperKind::kCow, MapperKind::kSds),
                       ::testing::Values(1u, 4u)),
    [](const auto& info) {
      return std::string(mapperKindName(std::get<0>(info.param))) + "_w" +
             std::to_string(std::get<1>(info.param));
    });

TEST(ResumeValidationTest, ForeignManifestRefusesToResume) {
  const fs::path dir = freshRunDir("manifest_mismatch");
  const auto config = smallGrid(MapperKind::kSds, 3000);

  ParallelConfig durable;
  durable.workers = 2;
  durable.checkpointDir = dir.string();
  ASSERT_EQ(trace::runCollectPartitioned(config, durable, /*vars=*/2)
                .result.outcome,
            RunOutcome::kCompleted);

  // Same directory, different run (longer horizon): the manifest check
  // must refuse rather than mix incompatible checkpoints.
  auto other = smallGrid(MapperKind::kSds, 5000);
  ParallelConfig resume = durable;
  resume.resume = true;
  EXPECT_THROW(trace::runCollectPartitioned(other, resume, /*vars=*/2),
               snapshot::SnapshotError);
  // A different partition width is a different run too.
  EXPECT_THROW(trace::runCollectPartitioned(config, resume, /*vars=*/1),
               snapshot::SnapshotError);
  fs::remove_all(dir);
}

TEST(ResumeValidationTest, FreshStartClearsStaleArtifacts) {
  const fs::path dir = freshRunDir("fresh_start");
  const auto config = smallGrid(MapperKind::kSds, 4000);

  ParallelConfig durable;
  durable.workers = 2;
  durable.checkpointDir = dir.string();
  const ParallelResult capped = runCapped(config, durable);
  ASSERT_EQ(capped.outcome, RunOutcome::kAbortedStates);
  ASSERT_TRUE(someJobStoppedMidRun(capped, dir));

  // Without --resume the directory is restarted from scratch: stale
  // suspended checkpoints must not leak into the new run.
  ParallelConfig fresh;
  fresh.workers = 2;
  fresh.checkpointDir = dir.string();
  const trace::PartitionedCollectResult restarted =
      trace::runCollectPartitioned(config, fresh, /*vars=*/2);
  EXPECT_EQ(restarted.result.outcome, RunOutcome::kCompleted);

  ParallelConfig plain;
  plain.workers = 2;
  EXPECT_EQ(restarted.result.fingerprintDigest(),
            trace::runCollectPartitioned(config, plain, /*vars=*/2)
                .result.fingerprintDigest());
  fs::remove_all(dir);
}

TEST(ResumeValidationTest, MissingManifestDegradesToAFreshStart) {
  const fs::path dir = freshRunDir("missing_manifest");
  const auto config = smallGrid(MapperKind::kSds, 3000);
  ParallelConfig resume;
  resume.workers = 2;
  resume.checkpointDir = dir.string();
  resume.resume = true;  // nothing there yet: must run, not throw
  const trace::PartitionedCollectResult run =
      trace::runCollectPartitioned(config, resume, /*vars=*/2);
  EXPECT_EQ(run.result.outcome, RunOutcome::kCompleted);
  EXPECT_TRUE(fs::exists(snapshot::manifestPath(dir)));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace sde

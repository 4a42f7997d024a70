// Live equals post-run: the fleet's metrics plane, read after the last
// worker published and before the coordinator's exact-totals merge,
// carries every post-run counter with its post-run value — on an
// uninterrupted run and on a run whose jobs resume from mid-job
// checkpoints (a restored engine carries its pre-suspend counts).
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>

#include "obs/metrics_shm.hpp"
#include "sde/fleet.hpp"
#include "snapshot/manifest.hpp"
#include "suspend_at_checkpoint.hpp"
#include "trace/scenario.hpp"

namespace sde {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kVars = 2;  // 4 jobs

trace::CollectScenarioConfig scenarioConfig() {
  trace::CollectScenarioConfig config;
  config.gridWidth = 4;
  config.gridHeight = 4;
  config.simulationTime = 4000;
  config.mapper = MapperKind::kSds;
  return config;
}

fs::path freshDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("sde_" + name);
  fs::remove_all(dir);
  return dir;
}

// A 2-process fleet with the metrics plane on, publishing into a plane
// the test made before the run — the way sde_serve's daemon hands a job
// its plane — so the plane's last state is readable after runFleet
// returns.
struct LiveFleet {
  FleetConfig config;
  std::unique_ptr<obs::ShmMetricsPlane> plane;

  explicit LiveFleet(const fs::path& dir) {
    config.processes = 2;
    config.checkpointDir = dir.string();
    config.collectTestcases = true;
    obs::ShmMetricsConfig planeConfig;
    planeConfig.slots = config.processes + 1;
    plane = std::make_unique<obs::ShmMetricsPlane>(planeConfig);
    config.metricsPlane = plane.get();
  }
};

void expectLiveEqualsPostRun(const obs::ShmMetricsPlane& plane,
                             const FleetResult& run) {
  ASSERT_FALSE(run.suspended);
  ASSERT_EQ(run.workerDeaths, 0u);
  const obs::MetricsSnapshot live = plane.aggregate();
  const auto postRun = run.result.stats.all();
  ASSERT_GT(postRun.size(), 20u);
  std::size_t families[3] = {0, 0, 0};  // vm.*, map.*, solver.*
  for (const auto& [name, value] : postRun) {
    const obs::MetricPoint* point = live.find(name);
    ASSERT_NE(point, nullptr) << name << " never reached the live plane";
    EXPECT_NE(point->kind, obs::MetricKind::kHistogram) << name;
    EXPECT_EQ(point->value, value) << name;
    families[0] += name.starts_with("vm.");
    families[1] += name.starts_with("map.");
    families[2] += name.starts_with("solver.");
  }
  EXPECT_GT(families[0], 0u);
  EXPECT_GT(families[1], 0u);
  EXPECT_GT(families[2], 0u);
  // Every other live scalar is a live-only family: the coordinator's
  // fleet.* counters and the workers' phase profiles.
  for (const auto& [name, point] : live.points) {
    if (point.kind == obs::MetricKind::kHistogram || postRun.contains(name))
      continue;
    EXPECT_TRUE(name.starts_with("fleet.") || name.starts_with("profile."))
        << name;
  }
}

TEST(FleetMetricsTest, LivePlaneEqualsPostRunStatsOnAnUninterruptedRun) {
  const fs::path dir = freshDir("fleet_metrics_live");
  LiveFleet fleet(dir);
  const FleetResult run =
      trace::runCollectFleet(scenarioConfig(), fleet.config, kVars);
  ASSERT_NE(fleet.plane, nullptr);
  expectLiveEqualsPostRun(*fleet.plane, run);
  fs::remove_all(dir);
}

TEST(FleetMetricsTest, LivePlaneEqualsPostRunStatsWhenJobsResumeMidJob) {
  const fs::path dir = freshDir("fleet_metrics_resume");
  // First run: suspend as soon as any job wrote a checkpoint, so jobs
  // are cut mid-run.
  FleetConfig first;
  first.processes = 2;
  first.checkpointDir = dir.string();
  first.checkpointEveryEvents = 64;
  first.collectTestcases = true;
  suspendAtFirstCheckpoint(first, dir);
  const FleetResult suspended =
      trace::runCollectFleet(scenarioConfig(), first, kVars);
  ASSERT_TRUE(suspended.suspended);
  ASSERT_GE(suspended.jobsSuspendedMidRun, 1u);
  bool anyCheckpoint = false;
  for (std::uint32_t id = 0; id < 4; ++id)
    anyCheckpoint |= fs::exists(snapshot::jobCheckpointPath(dir, id));
  ASSERT_TRUE(anyCheckpoint);

  LiveFleet resume(dir);
  resume.config.resume = true;
  const FleetResult run =
      trace::runCollectFleet(scenarioConfig(), resume.config, kVars);
  ASSERT_NE(resume.plane, nullptr);
  expectLiveEqualsPostRun(*resume.plane, run);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace sde

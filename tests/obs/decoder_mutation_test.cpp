// The observability decoders meet hostile bytes with a typed error: every
// truncation and every bit flip of a real job trace (SDETRACE, read by
// sde_trace and the trace merge) decodes or throws TraceError, and of a
// real metrics.sde (SDEMETRX, read by sde_serve for a done job) decodes
// or throws SnapshotError. Both files come from one small fleet run: a
// 2x2 grid, two partition jobs, tracing on. Inputs over 4 KB get only
// each byte's top bit flipped, as the checkpoint battery does.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "mutation_battery.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_io.hpp"
#include "sde/fleet.hpp"
#include "snapshot/error.hpp"
#include "snapshot/manifest.hpp"
#include "trace/scenario.hpp"

namespace sde {
namespace {

namespace fs = std::filesystem;

// The bit mask for an input of `bytes` bytes: every bit up to 4 KB, the
// top bit of each byte above.
std::uint8_t flipsFor(const std::string& bytes) {
  return bytes.size() > 4096 ? 0x80 : 0xff;
}

std::string readBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// Runs the small traced fleet into a fresh directory and returns it.
fs::path tracedFleetRun(const std::string& name) {
  const fs::path dir =
      fs::path(::testing::TempDir()) /
      ("sde_" + name + "_" + std::to_string(static_cast<long>(::getpid())));
  fs::remove_all(dir);
  trace::CollectScenarioConfig config;
  config.gridWidth = 2;
  config.gridHeight = 2;
  config.simulationTime = 3000;
  FleetConfig fleet;
  fleet.processes = 1;
  fleet.checkpointDir = dir.string();
  fleet.traceDir = dir.string();
  EXPECT_EQ(trace::runCollectFleet(config, fleet, /*vars=*/1).result.outcome,
            RunOutcome::kCompleted);
  return dir;
}

TEST(TraceDecoderTest, EveryTruncationAndBitFlipDecodesOrIsRejected) {
  const fs::path dir = tracedFleetRun("trace_fuzz");
  const std::string trace = readBytes(jobTracePath(dir.string(), 0));
  fs::remove_all(dir);
  const auto decode = [](const std::string& bytes) {
    std::istringstream in(bytes, std::ios::binary);
    (void)obs::readTrace(in);
  };
  {
    std::istringstream in(trace, std::ios::binary);
    ASSERT_FALSE(obs::readTrace(in).events.empty())
        << "the job traced nothing; the battery would be vacuous";
  }
  test::expectEveryMutantDecodesOrIsRejected<obs::TraceError>(
      trace, decode, flipsFor(trace));
}

TEST(MetricsSnapshotDecoderTest, EveryTruncationAndBitFlipDecodesOrIsRejected) {
  const fs::path dir = tracedFleetRun("metrics_fuzz");
  const std::string metrics = readBytes(snapshot::metricsSnapshotPath(dir));
  fs::remove_all(dir);
  ASSERT_GT(obs::decodeMetricsSnapshot(metrics).value("engine.events"), 0u)
      << "the run published no counters; the battery would be vacuous";
  test::expectEveryMutantDecodesOrIsRejected<snapshot::SnapshotError>(
      metrics,
      [](const std::string& bytes) { (void)obs::decodeMetricsSnapshot(bytes); },
      flipsFor(metrics));
}

}  // namespace
}  // namespace sde

// The one shared query store, seen from both runners (the thread runner
// and the fleet open, seed and persist it through the same path,
// snapshot/shared_cache_io.hpp):
//  - a run resumed from a finished run's manifest and sidecar alone
//    re-runs every job against the seeded store, and its own stats show
//    shared hits and no shared-layer miss;
//  - a resume over a corrupt sidecar starts cold and still reaches the
//    uninterrupted run's digest;
//  - the sidecar decoder meets every truncation and every single-bit
//    flip of a real sidecar by decoding or by throwing SnapshotError.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "sde/fleet.hpp"
#include "snapshot/error.hpp"
#include "snapshot/manifest.hpp"
#include "snapshot/shared_cache_io.hpp"
#include "trace/scenario.hpp"

namespace sde {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kVars = 3;

enum class Runner { kThreads, kFleet };

std::string runnerName(const ::testing::TestParamInfo<Runner>& info) {
  return info.param == Runner::kThreads ? "Threads" : "Fleet";
}

trace::CollectScenarioConfig smallGrid() {
  trace::CollectScenarioConfig config;
  config.gridWidth = 5;
  config.gridHeight = 5;
  config.simulationTime = 2500;
  config.mapper = MapperKind::kSds;
  return config;
}

// One directory per process: ctest runs each instance of a
// parameterized test in its own process, concurrently.
fs::path freshDir(const std::string& name) {
  const fs::path dir =
      fs::path(::testing::TempDir()) /
      ("sde_" + name + "_" + std::to_string(static_cast<long>(::getpid())));
  fs::remove_all(dir);
  return dir;
}

// A durable run with test-case generation (the traffic that reaches the
// shared store) over `dir`.
ParallelResult runDurable(Runner runner, const fs::path& dir, bool resume) {
  if (runner == Runner::kThreads) {
    ParallelConfig threads;
    threads.workers = 2;
    threads.collectTestcases = true;
    threads.checkpointDir = dir.string();
    threads.resume = resume;
    return trace::runCollectPartitioned(smallGrid(), threads, kVars).result;
  }
  FleetConfig fleet;
  fleet.processes = 2;
  fleet.collectTestcases = true;
  fleet.checkpointDir = dir.string();
  fleet.resume = resume;
  return trace::runCollectFleet(smallGrid(), fleet, kVars).result;
}

// Leaves only the manifest and the sidecar: every job of a resume then
// runs fresh.
void keepManifestAndSidecar(const fs::path& dir) {
  const fs::path manifest = snapshot::manifestPath(dir);
  const fs::path sidecar = snapshot::sharedCachePath(dir.string());
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.path() != manifest && entry.path() != sidecar)
      fs::remove_all(entry.path());
}

std::string readBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void writeBytes(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class SharedStoreResumeTest : public ::testing::TestWithParam<Runner> {};

TEST_P(SharedStoreResumeTest, WarmResumeHitsTheSeededStoreOnEveryQuery) {
  const fs::path dir = freshDir("shared_store_warm");
  const ParallelResult cold = runDurable(GetParam(), dir, /*resume=*/false);
  ASSERT_EQ(cold.outcome, RunOutcome::kCompleted);
  ASSERT_TRUE(fs::exists(snapshot::sharedCachePath(dir.string())))
      << "the run returned without writing its sidecar";

  keepManifestAndSidecar(dir);
  const ParallelResult warm = runDurable(GetParam(), dir, /*resume=*/true);
  ASSERT_EQ(warm.outcome, RunOutcome::kCompleted);
  EXPECT_EQ(warm.fingerprintDigest(), cold.fingerprintDigest());
  EXPECT_EQ(warm.testcases, cold.testcases);
  // Every job ran again (no .done was left), so these counts are the
  // resumed run's own: each shared-layer query found what the first run
  // published.
  const auto& stats = warm.stats;
  EXPECT_GT(stats.get("solver.layer.shared_cache.hits"), 0u);
  EXPECT_EQ(stats.get("solver.layer.shared_cache.queries"),
            stats.get("solver.layer.shared_cache.hits"))
      << "the seeded store missed a query the first run published";
  EXPECT_EQ(stats.get("solver.enum_runs"), 0u);
  fs::remove_all(dir);
}

TEST_P(SharedStoreResumeTest, CorruptSidecarResumesColdToTheSameDigest) {
  const fs::path dir = freshDir("shared_store_corrupt");
  const ParallelResult cold = runDurable(GetParam(), dir, /*resume=*/false);
  ASSERT_EQ(cold.outcome, RunOutcome::kCompleted);

  // Flip the top byte of the entry count (a u64 after the 8-byte magic
  // and the u32 format): the count now promises entries the file does
  // not hold.
  const fs::path sidecar = snapshot::sharedCachePath(dir.string());
  std::string bytes = readBytes(sidecar);
  ASSERT_GT(bytes.size(), 20u);
  bytes[19] = static_cast<char>(bytes[19] ^ 0xff);
  writeBytes(sidecar, bytes);

  keepManifestAndSidecar(dir);
  const ParallelResult resumed = runDurable(GetParam(), dir, /*resume=*/true);
  ASSERT_EQ(resumed.outcome, RunOutcome::kCompleted);
  EXPECT_EQ(resumed.fingerprintDigest(), cold.fingerprintDigest());
  EXPECT_EQ(resumed.testcases, cold.testcases);
  // Cold: the store had to be filled again.
  EXPECT_GT(resumed.stats.get("solver.enum_runs"), 0u);
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Runners, SharedStoreResumeTest,
                         ::testing::Values(Runner::kThreads, Runner::kFleet),
                         runnerName);

// True when decoding `bytes` returns or throws SnapshotError; false for
// any other exception (a std::length_error from trusting a corrupt
// count, say).
bool decodesOrRejects(const std::string& bytes) {
  std::istringstream in(bytes);
  try {
    (void)snapshot::readSharedCacheEntries(in);
  } catch (const snapshot::SnapshotError&) {
  } catch (...) {
    return false;
  }
  return true;
}

TEST(SharedCacheSidecarTest, EveryTruncationAndBitFlipDecodesOrIsRejected) {
  const fs::path dir = freshDir("shared_store_fuzz");
  ASSERT_EQ(runDurable(Runner::kThreads, dir, /*resume=*/false).outcome,
            RunOutcome::kCompleted);
  const std::string sidecar =
      readBytes(snapshot::sharedCachePath(dir.string()));
  fs::remove_all(dir);
  {
    std::istringstream in(sidecar);
    ASSERT_FALSE(snapshot::readSharedCacheEntries(in).empty())
        << "the run published nothing; the battery would be vacuous";
  }

  for (std::size_t length = 0; length < sidecar.size(); ++length)
    EXPECT_TRUE(decodesOrRejects(sidecar.substr(0, length)))
        << "truncated to " << length << " bytes";
  std::string flipped = sidecar;
  for (std::size_t bit = 0; bit < 8 * sidecar.size(); ++bit) {
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    EXPECT_TRUE(decodesOrRejects(flipped)) << "bit " << bit << " flipped";
    flipped[bit / 8] = sidecar[bit / 8];
  }
}

}  // namespace
}  // namespace sde

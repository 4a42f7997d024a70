// Single-engine checkpoint/restore (checkpoint.hpp format, all layers).
//
// The correctness bar is ISSUE-level: a run suspended at an arbitrary
// point and restored into a freshly constructed engine must finish
// indistinguishably from the uninterrupted run — same states (by
// configuration hash), same dscenario universe, same event count, same
// statistics. Framing is tested separately: version header rejection,
// magic rejection, truncation.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "sde/explode.hpp"
#include "snapshot/checkpoint.hpp"
#include "snapshot/error.hpp"
#include "support/pvector.hpp"
#include "trace/scenario.hpp"

namespace sde {
namespace {

// COB's state count is the full cross product, so it runs on a smaller
// grid (as everywhere else in the suite); COW/SDS get the paper's 5x5.
trace::CollectScenarioConfig smallGrid(MapperKind mapper,
                                       std::uint64_t simulationTime) {
  trace::CollectScenarioConfig config;
  const std::uint32_t side = mapper == MapperKind::kCob ? 3 : 5;
  config.gridWidth = side;
  config.gridHeight = side;
  config.simulationTime = simulationTime;
  config.mapper = mapper;
  return config;
}

std::set<std::uint64_t> configHashes(const Engine& engine) {
  std::set<std::uint64_t> hashes;
  for (const auto& state : engine.states()) hashes.insert(state->configHash());
  return hashes;
}

std::string checkpointBlob(const Engine& engine) {
  std::ostringstream out(std::ios::binary);
  engine.checkpoint(out);
  return out.str();
}

class CheckpointTest : public ::testing::TestWithParam<MapperKind> {};

TEST_P(CheckpointTest, SuspendRestoreMatchesUninterrupted) {
  const auto config = smallGrid(GetParam(), 4000);

  // Reference: one uninterrupted run to the horizon.
  trace::CollectScenario reference(config);
  ASSERT_EQ(reference.run().outcome, RunOutcome::kCompleted);
  Engine& uninterrupted = reference.engine();

  // Suspended run: stop halfway, checkpoint, and restore into a freshly
  // constructed (identically configured) engine.
  trace::CollectScenario suspended(config);
  ASSERT_EQ(suspended.engine().run(2000), RunOutcome::kCompleted);
  const std::string blob = checkpointBlob(suspended.engine());

  trace::CollectScenario resumedScenario(config);
  Engine& resumed = resumedScenario.engine();
  {
    std::istringstream in(blob, std::ios::binary);
    resumed.restore(in);
  }
  EXPECT_EQ(resumed.numStates(), suspended.engine().numStates());
  EXPECT_EQ(resumed.virtualNow(), suspended.engine().virtualNow());
  // The v3 chunk tables must reproduce the structural-sharing classes
  // exactly: the restored engine's all-component memory accounting is
  // byte-identical to the suspended one *before* any further execution.
  EXPECT_EQ(resumed.simulatedMemoryBytes(),
            suspended.engine().simulatedMemoryBytes());
  ASSERT_EQ(resumed.run(config.simulationTime), RunOutcome::kCompleted);

  // Semantically lossless: the resumed run is indistinguishable from
  // the uninterrupted one.
  EXPECT_EQ(resumed.numStates(), uninterrupted.numStates());
  EXPECT_EQ(resumed.eventsProcessed(), uninterrupted.eventsProcessed());
  EXPECT_EQ(resumed.virtualNow(), uninterrupted.virtualNow());
  EXPECT_EQ(configHashes(resumed), configHashes(uninterrupted));
  EXPECT_EQ(countScenarios(resumed.mapper()),
            countScenarios(uninterrupted.mapper()));
  const auto resumedPrints = scenarioFingerprints(resumed.mapper());
  const auto referencePrints = scenarioFingerprints(uninterrupted.mapper());
  EXPECT_EQ(std::set<std::uint64_t>(resumedPrints.begin(),
                                    resumedPrints.end()),
            std::set<std::uint64_t>(referencePrints.begin(),
                                    referencePrints.end()));
  // Every statistic — engine, interpreter and solver — continues from
  // the restored value to the uninterrupted total (peak_memory_bytes
  // included: it is recomputed at run end and memory is monotone).
  EXPECT_EQ(resumed.stats().all(), uninterrupted.stats().all());
  EXPECT_EQ(resumed.interpStats().all(), uninterrupted.interpStats().all());
  EXPECT_EQ(resumed.solverStats().all(), uninterrupted.solverStats().all());
  EXPECT_EQ(resumed.simulatedMemoryBytes(),
            uninterrupted.simulatedMemoryBytes());

  // The suspended engine itself also finishes identically (the
  // checkpoint call must not perturb the run it snapshots).
  ASSERT_EQ(suspended.engine().run(config.simulationTime),
            RunOutcome::kCompleted);
  EXPECT_EQ(configHashes(suspended.engine()), configHashes(uninterrupted));
}

TEST_P(CheckpointTest, RestoreIsLosslessAtManySuspensionPoints) {
  // "Any checkpoint" means any: cut the same run at several virtual
  // times and check the resumed exploration converges each time.
  const auto config = smallGrid(GetParam(), 3000);
  trace::CollectScenario reference(config);
  ASSERT_EQ(reference.run().outcome, RunOutcome::kCompleted);
  const auto want = configHashes(reference.engine());

  for (const std::uint64_t cut : {std::uint64_t{1}, std::uint64_t{1200},
                                  std::uint64_t{2999}}) {
    trace::CollectScenario suspended(config);
    ASSERT_EQ(suspended.engine().run(cut), RunOutcome::kCompleted);
    const std::string blob = checkpointBlob(suspended.engine());

    trace::CollectScenario resumedScenario(config);
    std::istringstream in(blob, std::ios::binary);
    resumedScenario.engine().restore(in);
    ASSERT_EQ(resumedScenario.engine().run(config.simulationTime),
              RunOutcome::kCompleted);
    EXPECT_EQ(configHashes(resumedScenario.engine()), want)
        << "suspended at " << cut;
  }
}

INSTANTIATE_TEST_SUITE_P(Mappers, CheckpointTest,
                         ::testing::Values(MapperKind::kSds, MapperKind::kCow,
                                           MapperKind::kCob),
                         [](const auto& info) {
                           return std::string(mapperKindName(info.param));
                         });

// --- Memory-accounting invariants (persistent shared representation) ---------

class MemoryAccountingTest : public ::testing::TestWithParam<MapperKind> {};

TEST_P(MemoryAccountingTest, SharedAccountingIsBelowThePerStateTotal) {
  // Each state audited through a fresh seen-set pays for every block it
  // holds, as if no two states shared anything: the bill of copying
  // everything on fork. The engine's meter, which bills each shared
  // block once, must come in strictly below it (the Table I claim).
  const auto config = smallGrid(GetParam(), 3000);
  trace::CollectScenario scenario(config);
  ASSERT_EQ(scenario.run().outcome, RunOutcome::kCompleted);

  std::uint64_t perStateBytes = 0;
  for (const auto& state : scenario.engine().states()) {
    support::SeenSet seen;
    perStateBytes += state->accountBytes(seen);
  }
  EXPECT_LT(scenario.engine().simulatedMemoryBytes(), perStateBytes);
}

TEST_P(MemoryAccountingTest, AccountingIsIndependentOfStateVisitOrder) {
  // The audit walk's seen-set bills each shared block to its first
  // visitor; the *total* must not depend on who that is.
  const auto config = smallGrid(GetParam(), 3000);
  trace::CollectScenario scenario(config);
  ASSERT_EQ(scenario.run().outcome, RunOutcome::kCompleted);

  std::vector<const vm::ExecutionState*> states;
  for (const auto& state : scenario.engine().states())
    states.push_back(state.get());

  const auto total = [&](auto begin, auto end) {
    support::SeenSet seen;
    std::uint64_t bytes = 0;
    for (auto it = begin; it != end; ++it) bytes += (*it)->accountBytes(seen);
    return bytes;
  };
  const std::uint64_t forward = total(states.begin(), states.end());
  const std::uint64_t backward = total(states.rbegin(), states.rend());
  EXPECT_EQ(forward, backward);
  EXPECT_EQ(forward, scenario.engine().simulatedMemoryBytes());
}

INSTANTIATE_TEST_SUITE_P(Mappers, MemoryAccountingTest,
                         ::testing::Values(MapperKind::kSds, MapperKind::kCow),
                         [](const auto& info) {
                           return std::string(mapperKindName(info.param));
                         });

// Every register survives a checkpoint, value for value; a state that
// never wrote one (a node not yet booted) restores without a register
// block, as it was.
TEST(CheckpointRegistersTest, RegistersSurviveAndUnwrittenFilesStayAbsent) {
  auto config = smallGrid(MapperKind::kCow, 1200);
  config.engine.sampleEveryEvents = 1;
  config.engine.adaptiveSampling = false;
  // A state's register file as value hashes (0 for null), or nothing
  // when the state holds no block.
  using File = std::optional<std::vector<std::uint64_t>>;
  const auto filesOf = [](const Engine& engine) {
    std::vector<File> files;
    for (const auto& state : engine.states()) {
      const vm::ExecutionState blank(0, state->node(), state->program());
      if (&state->regs() == &blank.regs()) {
        files.emplace_back();
        continue;
      }
      std::vector<std::uint64_t> hashes;
      for (const expr::Ref reg : state->regs())
        hashes.push_back(reg == nullptr ? 0 : reg->hash());
      files.emplace_back(std::move(hashes));
    }
    return files;
  };

  // The first checkpoint (one node booted) and the last one.
  std::vector<std::pair<std::string, std::vector<File>>> taken;
  trace::CollectScenario scenario(config);
  scenario.engine().setCheckpointSink(
      [&](const Engine& engine) {
        if (taken.size() == 2) taken.pop_back();
        taken.emplace_back(checkpointBlob(engine), filesOf(engine));
      },
      1);
  ASSERT_EQ(scenario.engine().run(config.simulationTime),
            RunOutcome::kCompleted);
  ASSERT_EQ(taken.size(), 2u);

  std::size_t blocks = 0;
  std::size_t blockless = 0;
  for (const auto& [blob, files] : taken) {
    trace::CollectScenario copy(config);
    std::istringstream in(blob, std::ios::binary);
    copy.engine().restore(in);
    EXPECT_EQ(filesOf(copy.engine()), files);
    for (const File& file : files) ++(file.has_value() ? blocks : blockless);
  }
  EXPECT_GT(blocks, 0u);
  EXPECT_GT(blockless, 0u);
}

// Two runs of one merged scenario write the same checkpoints, byte for
// byte, except the solver's measured latencies: the 8 value bytes after
// each "solver.layer.<layer>.nanos" key, masked here (the fingerprint
// digest skips them too). COB is left out: on this grid its two runs
// take about 40 s (its 31 checkpoints compare equal too).
class MergeCheckpointTest : public ::testing::TestWithParam<MapperKind> {};

TEST_P(MergeCheckpointTest, TwoRunsWriteTheSameCheckpointsButTheirLatencies) {
  trace::CollectScenarioConfig config = smallGrid(GetParam(), 6000);
  config.engine.mergeStates = true;
  const auto checkpoints = [&] {
    trace::CollectScenario scenario(config);
    std::vector<std::string> blobs;
    scenario.engine().setCheckpointSink(
        [&blobs](const Engine& engine) {
          std::string blob = checkpointBlob(engine);
          const std::string key = ".nanos";
          for (std::size_t at = blob.find(key); at != std::string::npos;
               at = blob.find(key, at + key.size())) {
            EXPECT_LE(at + key.size() + 8, blob.size());
            blob.replace(at + key.size(), 8, 8, '\0');
          }
          blobs.push_back(std::move(blob));
        },
        64);
    EXPECT_EQ(scenario.engine().run(config.simulationTime),
              RunOutcome::kCompleted);
    EXPECT_GT(scenario.engine().stats().get("engine.merges"), 0u);
    return blobs;
  };
  const std::vector<std::string> first = checkpoints();
  const std::vector<std::string> second = checkpoints();
  ASSERT_EQ(first.size(), second.size());
  EXPECT_GT(first.size(), 10u);
  for (std::size_t i = 0; i < first.size(); ++i)
    EXPECT_TRUE(first[i] == second[i]) << "checkpoint " << i << " differs";
}

INSTANTIATE_TEST_SUITE_P(Mappers, MergeCheckpointTest,
                         ::testing::Values(MapperKind::kSds, MapperKind::kCow),
                         [](const auto& info) {
                           return std::string(mapperKindName(info.param));
                         });

TEST(CheckpointHeaderTest, InspectReportsTheRunSummary) {
  const auto config = smallGrid(MapperKind::kSds, 4000);
  trace::CollectScenario scenario(config);
  ASSERT_EQ(scenario.engine().run(2000), RunOutcome::kCompleted);
  std::ostringstream out(std::ios::binary);
  scenario.engine().checkpoint(out);

  std::istringstream in(out.str(), std::ios::binary);
  const snapshot::CheckpointInfo info = snapshot::inspectCheckpointHeader(in);
  EXPECT_EQ(info.version, snapshot::kCheckpointVersion);
  EXPECT_EQ(info.numNodes, 25u);
  EXPECT_EQ(info.mapper, "SDS");
  EXPECT_TRUE(info.booted);
  EXPECT_EQ(info.numStates, scenario.engine().numStates());
  EXPECT_EQ(info.virtualNow, scenario.engine().virtualNow());
  EXPECT_EQ(info.eventsProcessed, scenario.engine().eventsProcessed());
}

class CheckpointFramingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_ = smallGrid(MapperKind::kSds, 2000);
    trace::CollectScenario scenario(config_);
    ASSERT_EQ(scenario.engine().run(1000), RunOutcome::kCompleted);
    std::ostringstream out(std::ios::binary);
    scenario.engine().checkpoint(out);
    blob_ = out.str();
  }

  // What the restore path says about a (possibly corrupted) blob.
  std::string restoreError(const std::string& blob) {
    trace::CollectScenario fresh(config_);
    std::istringstream in(blob, std::ios::binary);
    try {
      fresh.engine().restore(in);
    } catch (const snapshot::SnapshotError& error) {
      return error.what();
    }
    return {};
  }

  trace::CollectScenarioConfig config_;
  std::string blob_;
};

TEST_F(CheckpointFramingTest, UnknownVersionIsRejectedWithAClearError) {
  // The version is the little-endian u32 right after the 8-byte magic.
  std::string patched = blob_;
  patched[8] = '\xff';
  patched[9] = '\xff';
  patched[10] = 0;
  patched[11] = 0;
  const std::string message = restoreError(patched);
  EXPECT_NE(message.find("unsupported checkpoint version"), std::string::npos)
      << "actual error: " << message;
  EXPECT_NE(message.find("this build reads"), std::string::npos)
      << "actual error: " << message;

  std::istringstream in(patched, std::ios::binary);
  EXPECT_THROW(snapshot::inspectCheckpointHeader(in), snapshot::SnapshotError);
}

TEST_F(CheckpointFramingTest, ForeignFilesAreRejected) {
  std::string patched = blob_;
  patched[0] = 'X';
  EXPECT_NE(restoreError(patched).find("not an SDE checkpoint"),
            std::string::npos);
  // A plain-text file is not a checkpoint either.
  EXPECT_FALSE(restoreError("hello, this is not a checkpoint\n").empty());
}

TEST_F(CheckpointFramingTest, TruncationIsDetected) {
  // Any prefix must fail loudly — the trailer magic guards the tail, a
  // short read anywhere else throws from the Reader.
  for (const std::size_t keep :
       {blob_.size() / 4, blob_.size() / 2, blob_.size() - 3}) {
    EXPECT_FALSE(restoreError(blob_.substr(0, keep)).empty())
        << "prefix of " << keep << " bytes";
  }
}

}  // namespace
}  // namespace sde

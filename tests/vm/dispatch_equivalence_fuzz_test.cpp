// Differential dispatch oracle (the battery certifying the VM hot path).
//
// Fused dispatch (a pre-decoded stream with superinstructions) and
// same-key event batching are pure performance transformations:
// exploring the same random program under either dispatch mode and batch
// setting must reproduce the *identical* observable run — test-case set,
// engine/interpreter/solver counters, and the exact trace byte stream —
// for every mapping algorithm. Any divergence is a soundness bug: a handler body drifting
// from the switch interpreter, a fused pair mis-accounting a mid-pair
// step-limit kill, or batching reordering the deterministic release
// order.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>

#include "../sde/random_program.hpp"
#include "obs/trace_io.hpp"
#include "sde/explode.hpp"
#include "sde/parallel.hpp"
#include "vm/dispatch.hpp"

namespace sde {
namespace {

struct DispatchDigest {
  RunOutcome outcome = RunOutcome::kCompleted;
  std::uint64_t numStates = 0;
  std::uint64_t batchedEvents = 0;  // raw, for the vacuity check only
  std::map<std::string, std::uint64_t> engineStats;
  std::map<std::string, std::uint64_t> interpStats;
  std::map<std::string, std::uint64_t> solverStats;
  std::set<std::string> testcases;
  std::string traceBytes;
};

DispatchDigest runOnce(const vm::Program& program, MapperKind kind,
                       vm::DispatchMode dispatch, bool batchEvents) {
  os::NetworkPlan plan(net::Topology::line(3));
  plan.runEverywhere(program);
  EngineConfig config;
  config.maxStates = 3'000;
  config.maxEvents = 10'000;
  config.solver.enumeration.maxCandidates = 1u << 12;
  config.interp.dispatch = dispatch;
  config.batchEvents = batchEvents;
  Engine engine(plan, kind, config);

  obs::MemoryTraceSink sink;
  engine.setTraceSink(&sink);

  DispatchDigest digest;
  digest.outcome = engine.run(2000);
  digest.numStates = engine.numStates();
  digest.batchedEvents = engine.batchedEvents();
  // Batch shape diagnostics are engine members, not registry counters,
  // precisely so the full stats maps compare clean across batch modes.
  digest.engineStats = engine.stats().all();
  digest.interpStats = engine.interpStats().all();
  digest.solverStats = engine.solverStats().all();
  engine.mapper().checkInvariants();

  // Serialize the captured events through the container writer: the
  // oracle compares the exact bytes a trace file would hold (stamps,
  // ordering, payloads), not a lossy summary.
  obs::TraceFile file;
  file.header.numNodes = 3;
  file.header.mapper = std::string(mapperKindName(kind));
  file.header.scenario = "dispatch_fuzz";
  file.events = sink.events();
  std::ostringstream bytes;
  obs::writeTrace(bytes, file);
  digest.traceBytes = bytes.str();

  ExplosionIterator scenarios(engine.mapper());
  while (const auto scenario = scenarios.next()) {
    for (std::string& testcase : expandedScenarioTestcases(
             engine.context(), engine.solver(), *scenario))
      digest.testcases.insert(std::move(testcase));
  }
  return digest;
}

void expectSameRun(const DispatchDigest& base, const DispatchDigest& other,
                   std::uint64_t seed, const char* label) {
  EXPECT_EQ(base.outcome, other.outcome) << label << " seed " << seed;
  EXPECT_EQ(base.numStates, other.numStates) << label << " seed " << seed;
  EXPECT_EQ(base.testcases, other.testcases) << label << " seed " << seed;
  EXPECT_EQ(base.engineStats, other.engineStats) << label << " seed " << seed;
  EXPECT_EQ(base.interpStats, other.interpStats) << label << " seed " << seed;
  EXPECT_EQ(base.solverStats, other.solverStats) << label << " seed " << seed;
  EXPECT_EQ(base.traceBytes, other.traceBytes) << label << " seed " << seed;
}

class DispatchEquivalenceFuzzTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, MapperKind>> {};

TEST_P(DispatchEquivalenceFuzzTest, AllDispatchModesReproduceTheRun) {
  const auto [seed, kind] = GetParam();
  RandomProgramGen gen(seed);
  const vm::Program program = gen.generate();

  // Baseline: the historical switch interpreter, one event per pop.
  const DispatchDigest base =
      runOnce(program, kind, vm::DispatchMode::kSwitch, /*batchEvents=*/false);
  if (base.outcome != RunOutcome::kCompleted)
    GTEST_SKIP() << "seed " << seed << " exceeds the exploration budget";

  expectSameRun(base,
                runOnce(program, kind, vm::DispatchMode::kSwitch, true), seed,
                "switch+batch");
  expectSameRun(base, runOnce(program, kind, vm::DispatchMode::kFused, false),
                seed, "fused");
  expectSameRun(base, runOnce(program, kind, vm::DispatchMode::kFused, true),
                seed, "fused+batch");
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByMapper, DispatchEquivalenceFuzzTest,
    ::testing::Combine(::testing::Values(11, 22, 33, 44, 55, 66),
                       ::testing::Values(MapperKind::kCob, MapperKind::kCow,
                                         MapperKind::kSds)),
    [](const auto& info) {
      return std::string(mapperKindName(std::get<1>(info.param))) + "_seed" +
             std::to_string(std::get<0>(info.param));
    });

// Anti-vacuity sentinels: the differential oracle proves nothing if the
// battery's programs never exercise the transformed paths.
TEST(DispatchEquivalenceVacuityTest, BatteryProgramsActuallyFuse) {
  for (const std::uint64_t seed : {11ull, 22ull, 33ull}) {
    RandomProgramGen gen(seed);
    const vm::Program program = gen.generate();
    const vm::DecodedProgram decoded(program);
    EXPECT_GT(decoded.fusedSlots(), 0u)
        << "seed " << seed << ": no superinstruction ever formed";
  }
}

TEST(DispatchEquivalenceVacuityTest, BatteryRunsActuallyBatch) {
  // Batching needs sibling states dispatching the same handler at the
  // same instant (forked timers / deliveries), which not every seed
  // produces — require the battery as a whole to exercise it.
  std::uint64_t batchedEvents = 0;
  for (const std::uint64_t seed : {11ull, 22ull, 33ull, 44ull}) {
    RandomProgramGen gen(seed);
    const vm::Program program = gen.generate();
    const DispatchDigest batched =
        runOnce(program, MapperKind::kSds, vm::DispatchMode::kFused, true);
    batchedEvents += batched.batchedEvents;
    // With batching off every pop is its own batch of one.
    const DispatchDigest unbatched =
        runOnce(program, MapperKind::kSds, vm::DispatchMode::kFused, false);
    EXPECT_EQ(unbatched.batchedEvents, 0u) << "seed " << seed;
  }
  EXPECT_GT(batchedEvents, 0u) << "the battery never batched";
}

}  // namespace
}  // namespace sde

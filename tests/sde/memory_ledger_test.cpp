// Oracle battery for the memory ledger (DESIGN.md §14).
//
// Engine::simulatedMemoryBytes() reads a ledger that shared blocks bill
// when they are made, changed in place and freed, plus per-state private
// bytes re-priced for the states events touched. The audit walk
// (Engine::auditMemoryBytes) computes the same quantity from scratch by
// visiting every state. Every run here checks ledger == walk at every
// sampler call, and the engine itself checks it after every event
// (EngineConfig::checkInvariants aborts on a mismatch), across
// {COB, COW, SDS} x merging off/on x uninterrupted/resumed from a
// mid-run checkpoint, on random programs and on the collect scenario —
// several engines alive in one thread, so a block billed to the wrong
// engine shows up as a mismatch too.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "random_program.hpp"
#include "support/memory_ledger.hpp"
#include "trace/scenario.hpp"
#include "vm/builder.hpp"

namespace sde {
namespace {

using support::BilledVector;
using support::MemoryLedger;
using support::SeenSet;

// --- The ledger and the seen-set on their own -----------------------------------

TEST(MemoryLedgerUnit, BlocksBillTheLedgerActiveWhenTheyAreMade) {
  MemoryLedger* outer = MemoryLedger::create();
  MemoryLedger* inner = MemoryLedger::create();
  std::shared_ptr<BilledVector<std::uint64_t>> a;
  std::shared_ptr<BilledVector<std::uint64_t>> b;
  std::shared_ptr<BilledVector<std::uint64_t>> unmetered;
  {
    const MemoryLedger::Scope outerScope(outer);
    a = std::make_shared<BilledVector<std::uint64_t>>(
        std::vector<std::uint64_t>(3));
    {
      const MemoryLedger::Scope innerScope(inner);
      b = std::make_shared<BilledVector<std::uint64_t>>(
          std::vector<std::uint64_t>(5));
    }
    EXPECT_EQ(MemoryLedger::active(), outer);
    a->push_back(7);
    a->rebill(sizeof(std::uint64_t), 0);
  }
  EXPECT_EQ(MemoryLedger::active(), nullptr);
  unmetered = std::make_shared<BilledVector<std::uint64_t>>(
      std::vector<std::uint64_t>(9));
  EXPECT_EQ(outer->bytes(), 4 * sizeof(std::uint64_t));
  EXPECT_EQ(inner->bytes(), 5 * sizeof(std::uint64_t));

  // A block un-bills its own ledger, whichever scope is active when it
  // is freed.
  {
    const MemoryLedger::Scope innerScope(inner);
    a.reset();
  }
  EXPECT_EQ(outer->bytes(), 0u);
  EXPECT_EQ(inner->bytes(), 5 * sizeof(std::uint64_t));
  b.reset();
  EXPECT_EQ(inner->bytes(), 0u);
  outer->release();
  inner->release();
}

TEST(MemoryLedgerUnit, ABlockMayOutliveTheLedgersOwner) {
  MemoryLedger* ledger = MemoryLedger::create();
  std::shared_ptr<BilledVector<std::uint64_t>> block;
  {
    const MemoryLedger::Scope scope(ledger);
    block = std::make_shared<BilledVector<std::uint64_t>>(
        std::vector<std::uint64_t>(4));
  }
  ledger->release();  // the owner is gone; the block keeps the ledger
  block.reset();      // ... until it un-bills (ASan guards the order)
}

TEST(MemoryLedgerUnit, SeenSetForgetsEachWalkAndGrowsOnDemand) {
  SeenSet seen;
  std::vector<std::uint64_t> blocks(1000);
  for (int walk = 0; walk < 3; ++walk) {
    seen.reset();
    for (const std::uint64_t& block : blocks) EXPECT_TRUE(seen.insert(&block));
    for (const std::uint64_t& block : blocks)
      EXPECT_FALSE(seen.insert(&block));
    EXPECT_EQ(seen.size(), blocks.size());
  }
}

// --- Engines ---------------------------------------------------------------------------

using Factory = std::function<std::unique_ptr<Engine>()>;

// Counts sampler calls at which the ledger disagreed with the walk.
struct MeterProbe {
  MeterProbe() = default;
  MeterProbe(const MeterProbe&) = delete;  // the sampler holds its address
  MeterProbe& operator=(const MeterProbe&) = delete;

  std::uint64_t samples = 0;
  std::uint64_t mismatches = 0;

  Engine::Sampler sampler() {
    return [this](const Engine& engine) {
      ++samples;
      if (engine.simulatedMemoryBytes() != engine.auditMemoryBytes())
        ++mismatches;
    };
  }
};

struct Tracked {
  std::string name;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<MeterProbe> probe;  // a stable address for the sampler
};

Tracked track(std::string name, const Factory& make) {
  Tracked tracked{std::move(name), make(), std::make_unique<MeterProbe>()};
  tracked.engine->setSampler(tracked.probe->sampler());
  return tracked;
}

void expectLedgerMatchesWalk(const Tracked& tracked) {
  EXPECT_EQ(tracked.probe->mismatches, 0u) << tracked.name;
  EXPECT_GT(tracked.probe->samples, 0u) << tracked.name;
  EXPECT_EQ(tracked.engine->simulatedMemoryBytes(),
            tracked.engine->auditMemoryBytes())
      << tracked.name;
}

EngineConfig checkedConfig(bool merge) {
  EngineConfig config;
  config.checkInvariants = true;  // ledger == walk after every event
  config.sampleEveryEvents = 1;
  config.adaptiveSampling = false;
  config.mergeStates = merge;
  config.loopSummarize = merge;
  return config;
}

Factory randomProgramEngine(std::uint64_t seed, MapperKind kind, bool merge) {
  // Quiet branch arms make merges happen (see random_program.hpp).
  RandomProgramGen gen(seed, /*quietBranchArms=*/merge);
  os::NetworkPlan plan(net::Topology::line(3));
  plan.runEverywhere(gen.generate());
  EngineConfig config = checkedConfig(merge);
  config.maxStates = 400;
  config.maxEvents = 3'000;
  config.solver.enumeration.maxCandidates = 1u << 12;
  return [plan, kind, config] {
    return std::make_unique<Engine>(plan, kind, config);
  };
}

// The collect scenario with symbolic drops, plus symbolic duplicates or
// reboots when asked: one at a time, on 3x3 and a shorter horizon, since
// each multiplies the states (COB's 3x3 takes a minute at 2,500 units).
// Duplicates and reboots together trip SDS's conflict-freeness check on
// 4x4 with or without the ledger: a mapper question, not a meter one.
enum class ExtraFailure { kNone, kDuplicates, kReboots };

trace::CollectScenarioConfig collectConfig(MapperKind kind, bool merge,
                                           ExtraFailure extra) {
  trace::CollectScenarioConfig config;
  const bool small = kind == MapperKind::kCob || extra != ExtraFailure::kNone;
  config.gridWidth = small ? 3 : 4;
  config.gridHeight = small ? 3 : 4;
  config.simulationTime = extra == ExtraFailure::kNone ? 3000 : 2000;
  config.mapper = kind;
  config.symbolicDuplicates = extra == ExtraFailure::kDuplicates;
  config.symbolicReboots = extra == ExtraFailure::kReboots;
  config.engine = checkedConfig(merge);
  return config;
}

std::string checkpointOf(const Engine& engine) {
  std::ostringstream out(std::ios::binary);
  engine.checkpoint(out);
  return out.str();
}

using Case = std::tuple<MapperKind, bool /*merge*/, bool /*resumed*/>;

class MemoryLedgerTest : public ::testing::TestWithParam<Case> {};

TEST_P(MemoryLedgerTest, LedgerEqualsTheAuditWalk) {
  const auto [kind, merge, resumed] = GetParam();

  // Every subject's engine stays alive for the whole test, and the runs
  // interleave: each block must bill the engine whose state made it.
  struct Subject {
    std::string name;
    Factory make;
    std::uint64_t horizon;
  };
  std::vector<Subject> subjects;
  std::vector<std::unique_ptr<trace::CollectScenario>> scenarios;
  for (const auto& [name, extra] :
       {std::pair{"collect", ExtraFailure::kNone},
        std::pair{"collect with duplicates", ExtraFailure::kDuplicates},
        std::pair{"collect with reboots", ExtraFailure::kReboots}}) {
    const trace::CollectScenarioConfig config =
        collectConfig(kind, merge, extra);
    scenarios.push_back(std::make_unique<trace::CollectScenario>(config));
    subjects.push_back({name,
                        [scenario = scenarios.back().get()] {
                          return scenario->engineFactory()(PartitionJob{});
                        },
                        config.simulationTime});
  }
  for (const std::uint64_t seed : {11, 22, 33})
    subjects.push_back({"random seed " + std::to_string(seed),
                        randomProgramEngine(seed, kind, merge), 3000});

  std::vector<Tracked> runs;
  for (const Subject& subject : subjects)
    runs.push_back(track(subject.name, subject.make));
  for (std::size_t i = 0; i < runs.size(); ++i)
    runs[i].engine->run(subjects[i].horizon / 2);

  std::vector<Tracked> restored;
  if (resumed) {
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const std::string blob = checkpointOf(*runs[i].engine);
      Tracked copy = track(runs[i].name + " (resumed)", subjects[i].make);
      std::istringstream in(blob, std::ios::binary);
      copy.engine->restore(in);
      // The restored blocks bill the restoring engine, and the restored
      // states are priced before anything runs.
      EXPECT_EQ(copy.engine->simulatedMemoryBytes(),
                copy.engine->auditMemoryBytes())
          << copy.name;
      EXPECT_EQ(copy.engine->simulatedMemoryBytes(),
                runs[i].engine->simulatedMemoryBytes())
          << copy.name;
      restored.push_back(std::move(copy));
    }
  }

  std::vector<RunOutcome> outcomes;
  for (std::size_t i = 0; i < runs.size(); ++i)
    outcomes.push_back(runs[i].engine->run(subjects[i].horizon));
  for (std::size_t i = 0; i < restored.size(); ++i) {
    const RunOutcome outcome = restored[i].engine->run(subjects[i].horizon);
    if (outcome == RunOutcome::kCompleted &&
        outcomes[i] == RunOutcome::kCompleted) {
      EXPECT_EQ(restored[i].engine->simulatedMemoryBytes(),
                runs[i].engine->simulatedMemoryBytes())
          << restored[i].name;
    }
  }

  std::uint64_t merges = 0;
  for (const Tracked& run : runs) {
    expectLedgerMatchesWalk(run);
    EXPECT_GT(run.engine->simulatedMemoryBytes(), 0u) << run.name;
    merges += run.engine->stats().get("engine.merges");
  }
  for (const Tracked& run : restored) expectLedgerMatchesWalk(run);
  for (std::size_t i = 0; i < scenarios.size(); ++i)
    EXPECT_EQ(outcomes[i], RunOutcome::kCompleted) << runs[i].name;
  // Anti-vacuity: merging on means the merge and reap paths ran.
  if (merge) {
    EXPECT_GT(merges, 0u);
  }
}

// The "_persistent" tag stays in the names so that the ids of these
// cases do not change.
INSTANTIATE_TEST_SUITE_P(
    Matrix, MemoryLedgerTest,
    ::testing::Combine(::testing::Values(MapperKind::kCob, MapperKind::kCow,
                                         MapperKind::kSds),
                       ::testing::Bool(), ::testing::Bool()),
    [](const auto& info) {
      return std::string(mapperKindName(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_merge" : "_nomerge") +
             "_persistent" +
             (std::get<2>(info.param) ? "_resumed" : "_uninterrupted");
    });

// Node 1 forks on a symbolic input into two states that differ only in
// when a second timer fires; once both timers have fired the two are
// mergeable, but no event touches both until node 0's packet reaches
// them. That event's merge sweep then absorbs a state which earlier
// events already priced, so the reap must refund its private bytes.
vm::Program convergingSiblings() {
  using vm::Entry;
  using vm::Op;
  using vm::Reg;
  vm::IRBuilder b("converging_siblings");
  b.setGlobals(1);

  b.beginEntry(Entry::kInit);
  const auto sender = b.newLabel();
  b.self(Reg(3));
  b.branchIfZero(Reg(3), sender);
  b.constant(Reg(4), 1000);
  b.setTimer(1, Reg(4));
  b.halt();
  b.bind(sender);
  b.constant(Reg(4), 1500);
  b.setTimer(3, Reg(4));
  b.halt();

  // r0 = timer id. Timer 1 forks (two halts: no join point to merge at),
  // timer 2 does nothing, timer 3 sends one cell to node 1.
  b.beginEntry(Entry::kTimer);
  const auto notFork = b.newLabel();
  const auto late = b.newLabel();
  const auto notSend = b.newLabel();
  b.aluImm(Op::kEq, Reg(5), Reg(0), 1, Reg(6));
  b.branchIfZero(Reg(5), notFork);
  b.makeSymbolic(Reg(7), "x", 1);
  b.branchIfZero(Reg(7), late);
  b.constant(Reg(4), 100);
  b.setTimer(2, Reg(4));
  b.constant(Reg(4), 0);
  b.halt();
  b.bind(late);
  b.constant(Reg(4), 200);
  b.setTimer(2, Reg(4));
  b.constant(Reg(4), 0);
  b.halt();
  b.bind(notFork);
  b.aluImm(Op::kEq, Reg(5), Reg(0), 3, Reg(6));
  b.branchIfZero(Reg(5), notSend);
  b.constant(Reg(8), 1);
  b.alloc(Reg(9), Reg(8));
  b.send(Reg(8), Reg(9), Reg(8));  // to node 1, one cell
  b.bind(notSend);
  b.halt();

  b.beginEntry(Entry::kRecv);
  b.halt();
  return b.finish();
}

TEST(MemoryLedgerEngine, ReapingAPricedStateRefundsItsPrivateBytes) {
  for (const MapperKind kind : {MapperKind::kCow, MapperKind::kSds}) {
    os::NetworkPlan plan(net::Topology::line(2));
    plan.runEverywhere(convergingSiblings());
    MeterProbe probe;
    Engine engine(plan, kind, checkedConfig(/*merge=*/true));
    engine.setSampler(probe.sampler());
    ASSERT_EQ(engine.run(2000), RunOutcome::kCompleted);
    EXPECT_EQ(engine.stats().get("engine.merges"), 1u) << mapperKindName(kind);
    EXPECT_EQ(probe.mismatches, 0u) << mapperKindName(kind);
    EXPECT_EQ(engine.simulatedMemoryBytes(), engine.auditMemoryBytes())
        << mapperKindName(kind);
  }
}

TEST(MemoryLedgerEngine, AForkedStateMayOutliveItsEngine) {
  // A state forked out of an engine shares its blocks; they un-bill the
  // engine's ledger when the fork dies, after the engine is gone.
  trace::CollectScenarioConfig config =
      collectConfig(MapperKind::kSds, false, ExtraFailure::kNone);
  config.simulationTime = 1500;
  auto scenario = std::make_unique<trace::CollectScenario>(config);
  ASSERT_EQ(scenario->run().outcome, RunOutcome::kCompleted);
  std::unique_ptr<vm::ExecutionState> survivor =
      scenario->engine().states().back()->fork(1u << 30);
  scenario.reset();
  survivor.reset();
}

}  // namespace
}  // namespace sde

// Differential battery for test generation (collectJobResult).
//
// Extraction renders a dscenario's test case from per-member memos when
// the dscenario's group decomposes by node, and per scenario otherwise
// (DESIGN.md §11). Either way the job's scenario fingerprints and test
// cases must equal, byte for byte, the per-scenario reference below:
// every owned dscenario, in the owned-choice odometer's order, through
// scenarioFingerprint and expandedScenarioTestcases. Each side runs on a
// fresh engine, so both start from the same solver caches. The cases:
//
//  - the collect scenario's partition jobs, whose groups decompose
//    (drop, duplicate and reboot decisions are node-local);
//  - the sensor app, whose source's reading is constrained by the relays
//    and the sink, so every group with traffic is cross-node;
//  - random programs with merging on and off, where merge guards send
//    groups to the per-scenario path.
//
// The sentinels pin that the battery exercises both paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "random_program.hpp"
#include "rime/apps.hpp"
#include "sde/parallel.hpp"
#include "trace/scenario.hpp"

namespace sde {
namespace {

struct Extraction {
  std::vector<std::uint64_t> prints;   // sorted distinct
  std::vector<std::string> testcases;  // sorted distinct
  std::uint64_t queries = 0;           // the engine's solver.queries after
};

template <typename T>
void sortDistinct(std::vector<T>& values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
}

// The ownership rule: a job owns a dscenario iff every forced-true
// variable appears in the decision log of the member of its node
// (decision names are "n<node>.<label>.<k>").
bool ownedBy(const PartitionJob& job, const ExecutionState& state) {
  const std::string prefix = "n" + std::to_string(state.node()) + ".";
  for (const auto& [name, value] : job.forced) {
    if (!value || !name.starts_with(prefix)) continue;
    if (std::none_of(state.decisions.begin(), state.decisions.end(),
                     [&](const auto& d) { return d.var->name() == name; }))
      return false;
  }
  return true;
}

// The per-scenario reference: the node-major odometer over each group's
// owned choices (the last node turns fastest), one fingerprint and one
// merge-expanded test-case set per dscenario.
Extraction perScenarioReference(Engine& engine, const PartitionJob& job) {
  Extraction out;
  for (const auto& group : engine.mapper().groupChoices()) {
    std::vector<std::vector<ExecutionState*>> owned(group.size());
    bool empty = false;
    for (std::size_t node = 0; node < group.size(); ++node) {
      for (ExecutionState* state : group[node])
        if (ownedBy(job, *state)) owned[node].push_back(state);
      empty = empty || owned[node].empty();
    }
    if (empty) continue;
    std::vector<std::size_t> odometer(owned.size(), 0);
    std::vector<ExecutionState*> scenario(owned.size());
    while (true) {
      for (std::size_t node = 0; node < owned.size(); ++node)
        scenario[node] = owned[node][odometer[node]];
      out.prints.push_back(scenarioFingerprint(scenario));
      for (std::string& testcase : expandedScenarioTestcases(
               engine.context(), engine.solver(), scenario))
        out.testcases.push_back(std::move(testcase));
      std::size_t digit = odometer.size();
      while (digit > 0 && ++odometer[digit - 1] == owned[digit - 1].size())
        odometer[--digit] = 0;
      if (digit == 0) break;
    }
  }
  sortDistinct(out.prints);
  sortDistinct(out.testcases);
  out.queries = engine.solverStats().get("solver.queries");
  return out;
}

Extraction collected(Engine& engine, const PartitionJob& job,
                     RunOutcome outcome) {
  RunConfig config;
  config.collectTestcases = true;
  config.collectStateFingerprints = false;
  JobResult result = collectJobResult(engine, job, config, outcome);
  return {std::move(result.scenarioFingerprints), std::move(result.testcases),
          result.stats.get("solver.queries")};
}

using MakeEngine = std::function<std::unique_ptr<Engine>()>;

struct Sides {
  Extraction memo;       // collectJobResult
  Extraction reference;  // perScenarioReference
};

// Runs `job` on two fresh engines from `make` and extracts one side
// from each.
Sides runBothSides(const MakeEngine& make, const PartitionJob& job,
                   std::uint64_t horizon) {
  const auto explore = [&] {
    std::unique_ptr<Engine> engine = make();
    engine->setDecisionFilter(std::unordered_map<std::string, bool>(
        job.forced.begin(), job.forced.end()));
    const RunOutcome outcome = engine->run(horizon);
    return std::make_pair(std::move(engine), outcome);
  };
  Sides sides;
  {
    auto [engine, outcome] = explore();
    sides.memo = collected(*engine, job, outcome);
  }
  {
    auto [engine, outcome] = explore();
    (void)outcome;
    sides.reference = perScenarioReference(*engine, job);
  }
  return sides;
}

void expectSameExtraction(const Sides& sides, const std::string& what) {
  EXPECT_FALSE(sides.reference.testcases.empty()) << what;
  EXPECT_EQ(sides.memo.prints, sides.reference.prints) << what;
  EXPECT_EQ(sides.memo.testcases, sides.reference.testcases) << what;
}

// --- The collect scenario ----------------------------------------------------

enum class Failures { kDrops, kDuplicates, kReboots };

const char* failuresName(Failures failures) {
  switch (failures) {
    case Failures::kDrops: return "drops";
    case Failures::kDuplicates: return "dups";
    case Failures::kReboots: return "reboots";
  }
  return "?";
}

// 5x5 grid with drops; duplicates and reboots (on top of the drops the
// partition variables need) on a 3x3 grid, because at 5x5 their
// exploration alone runs for minutes per job.
trace::CollectScenarioConfig collectConfig(MapperKind mapper,
                                           Failures failures) {
  trace::CollectScenarioConfig config;
  config.gridWidth = failures == Failures::kDrops ? 5 : 3;
  config.gridHeight = config.gridWidth;
  config.simulationTime = 4000;
  config.mapper = mapper;
  // Drops stay on: the partition variables are drop decisions.
  config.symbolicDuplicates = failures == Failures::kDuplicates;
  config.symbolicReboots = failures == Failures::kReboots;
  return config;
}

// Every partition job of the plan, both sides; returns the summed solver
// queries of each side.
std::pair<std::uint64_t, std::uint64_t> checkCollectPlan(
    const trace::CollectScenarioConfig& config, std::size_t vars,
    const std::string& tag) {
  const trace::CollectScenario scenario(config);
  const PartitionPlan plan =
      planPartitions(scenario.partitionVariables(vars));
  EXPECT_EQ(plan.jobs.size(), std::size_t{1} << vars) << tag;
  const EngineFactory factory = scenario.engineFactory();
  std::uint64_t memoQueries = 0;
  std::uint64_t referenceQueries = 0;
  for (const PartitionJob& job : plan.jobs) {
    const Sides sides = runBothSides([&] { return factory(job); }, job,
                                     config.simulationTime);
    expectSameExtraction(sides, tag + " job " + std::to_string(job.id));
    memoQueries += sides.memo.queries;
    referenceQueries += sides.reference.queries;
  }
  return {memoQueries, referenceQueries};
}

class CollectTestgenTest
    : public ::testing::TestWithParam<
          std::tuple<MapperKind, std::size_t, Failures>> {};

TEST_P(CollectTestgenTest, JobsMatchThePerScenarioReference) {
  const auto [mapper, vars, failures] = GetParam();
  const std::string tag = std::string(mapperKindName(mapper)) + " vars " +
                          std::to_string(vars) + " " + failuresName(failures);
  const auto [memo, reference] =
      checkCollectPlan(collectConfig(mapper, failures), vars, tag);
  // Sentinel: the member memo answered what the per-scenario path
  // re-asks, so these jobs took the per-member path. (A COB group is a
  // single dscenario, so there every member is solved once either way.)
  if (mapper != MapperKind::kCob) {
    EXPECT_LT(memo, reference) << tag;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Plans, CollectTestgenTest,
    ::testing::Combine(::testing::Values(MapperKind::kCob, MapperKind::kCow,
                                         MapperKind::kSds),
                       ::testing::Values(std::size_t{2}, std::size_t{3}),
                       ::testing::Values(Failures::kDrops,
                                         Failures::kDuplicates,
                                         Failures::kReboots)),
    [](const auto& info) {
      return std::string(mapperKindName(std::get<0>(info.param))) + "_vars" +
             std::to_string(std::get<1>(info.param)) + "_" +
             failuresName(std::get<2>(info.param));
    });

// --- The sensor app ----------------------------------------------------------

MakeEngine sensorEngine(std::uint32_t nodes, MapperKind mapper, bool drops) {
  return [=] {
    const net::Topology topology = net::Topology::line(nodes);
    os::NetworkPlan plan(topology);
    plan.runEverywhere(rime::buildSensorApp());
    auto engine = std::make_unique<Engine>(plan, mapper);
    const net::NodeId source = nodes - 1;
    const net::RoutingTable routing = net::RoutingTable::towards(topology, 0);
    for (const auto& boot :
         rime::collectBootGlobals(topology, routing, source, 1000))
      engine->setBootGlobal(boot.node, boot.slot, boot.value);
    if (drops) {
      std::vector<net::NodeId> everyone(nodes);
      for (net::NodeId n = 0; n < nodes; ++n) everyone[n] = n;
      engine->setFailureModel(
          std::make_unique<net::SymbolicDropModel>(everyone, 1));
    }
    return engine;
  };
}

constexpr std::uint64_t kSensorHorizon = 2500;

class SensorTestgenTest
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, MapperKind, bool>> {};

TEST_P(SensorTestgenTest, MatchesThePerScenarioReference) {
  const auto [nodes, mapper, drops] = GetParam();
  const Sides sides = runBothSides(sensorEngine(nodes, mapper, drops),
                                   PartitionJob{}, kSensorHorizon);
  expectSameExtraction(sides, "line(" + std::to_string(nodes) + ") " +
                                  std::string(mapperKindName(mapper)) +
                                  (drops ? " drops" : ""));
}

INSTANTIATE_TEST_SUITE_P(
    Lines, SensorTestgenTest,
    ::testing::Combine(::testing::Values(3u, 4u, 5u),
                       ::testing::Values(MapperKind::kCob, MapperKind::kCow,
                                         MapperKind::kSds),
                       ::testing::Bool()),
    [](const auto& info) {
      return "line" + std::to_string(std::get<0>(info.param)) + "_" +
             std::string(mapperKindName(std::get<1>(info.param))) +
             (std::get<2>(info.param) ? "_drops" : "_nodrops");
    });

// --- Random programs ---------------------------------------------------------

// `drops` puts a symbolic drop model on every node.
MakeEngine randomProgramEngine(std::uint64_t seed, MapperKind mapper,
                               bool merge, bool drops = false) {
  return [=] {
    RandomProgramGen gen(seed, /*quietBranchArms=*/true);
    os::NetworkPlan plan(net::Topology::line(3));
    plan.runEverywhere(gen.generate());
    EngineConfig config;
    config.maxStates = 3'000;
    config.maxEvents = 10'000;
    config.solver.enumeration.maxCandidates = 1u << 12;
    config.mergeStates = merge;
    auto engine = std::make_unique<Engine>(plan, mapper, config);
    if (drops)
      engine->setFailureModel(std::make_unique<net::SymbolicDropModel>(
          std::vector<net::NodeId>{0, 1, 2}));
    return engine;
  };
}

constexpr std::uint64_t kRandomHorizon = 2000;

// Every seed the batteries draw from explores to its horizon or a cap:
// the generator mints each symbolic label at one width, since an input
// re-declared at another width aborts the process
// (expr::Context::variable).
class RandomProgramExplorationTest
    : public ::testing::TestWithParam<std::tuple<MapperKind, bool>> {};

TEST_P(RandomProgramExplorationTest, SeedsOneTo88ExploreWithoutAnAbort) {
  const auto [mapper, drops] = GetParam();
  std::uint64_t completed = 0;
  for (std::uint64_t seed = 1; seed <= 88; ++seed) {
    const std::unique_ptr<Engine> engine =
        randomProgramEngine(seed, mapper, /*merge=*/false, drops)();
    if (engine->run(kRandomHorizon) == RunOutcome::kCompleted) ++completed;
    engine->mapper().checkInvariants();
  }
  EXPECT_GT(completed, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Mappers, RandomProgramExplorationTest,
    ::testing::Combine(::testing::Values(MapperKind::kCob, MapperKind::kCow,
                                         MapperKind::kSds),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(mapperKindName(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_drops" : "_nodrops");
    });

class RandomProgramTestgenTest
    : public ::testing::TestWithParam<std::tuple<MapperKind, bool>> {};

TEST_P(RandomProgramTestgenTest, SeedsMatchThePerScenarioReference) {
  const auto [mapper, merge] = GetParam();
  for (std::uint64_t seed = 11; seed <= 88; ++seed) {
    const Sides sides = runBothSides(randomProgramEngine(seed, mapper, merge),
                                     PartitionJob{}, kRandomHorizon);
    EXPECT_EQ(sides.memo.prints, sides.reference.prints) << "seed " << seed;
    EXPECT_EQ(sides.memo.testcases, sides.reference.testcases)
        << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Mappers, RandomProgramTestgenTest,
    ::testing::Combine(::testing::Values(MapperKind::kCob, MapperKind::kCow,
                                         MapperKind::kSds),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(mapperKindName(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_merge" : "_nomerge");
    });

// --- Sentinels ---------------------------------------------------------------

// Every sensor group with traffic is cross-node: the per-scenario path
// issues exactly the reference's queries.
TEST(TestgenSentinelTest, SensorGroupsTakeThePerScenarioPath) {
  const Sides sides = runBothSides(sensorEngine(3, MapperKind::kSds, false),
                                   PartitionJob{}, kSensorHorizon);
  expectSameExtraction(sides, "line(3) SDS");
  EXPECT_EQ(sides.memo.queries, sides.reference.queries);
}

// Seed 67 merges under SDS: its one group has merged members, whose
// guards send it to the per-scenario path.
TEST(TestgenSentinelTest, MergingSeedTakesThePerScenarioPath) {
  const MakeEngine make = randomProgramEngine(67, MapperKind::kSds, true);
  const std::unique_ptr<Engine> merged = make();
  (void)merged->run(kRandomHorizon);
  EXPECT_GT(merged->stats().get("engine.merges"), 0u);
  const Sides sides = runBothSides(make, PartitionJob{}, kRandomHorizon);
  expectSameExtraction(sides, "seed 67");
  EXPECT_EQ(sides.memo.queries, sides.reference.queries);
}

}  // namespace
}  // namespace sde

// Differential testing of the parallel execution mode (paper §VI).
//
// Two oracle families:
//  - Workers-invariance: the same partition plan must produce a
//    byte-identical ParallelResult (checked via fingerprintDigest) for
//    any worker count — the thread schedule must be unobservable.
//  - Partitioned-vs-legacy: against a single monolithic engine run,
//    the partition jobs together must own exactly the legacy dscenario
//    universe — equal dscenario-fingerprint sets, equal distinct
//    state-configuration sets, equal canonical test-case sets, and
//    sum(owned) == countScenarios — even though raw per-job state
//    counts legitimately differ (shared prefixes are re-executed, rival
//    branches are pruned).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <unordered_map>

#include "sde/explode.hpp"
#include "sde/parallel.hpp"
#include "random_program.hpp"
#include "trace/scenario.hpp"

namespace sde {
namespace {

trace::CollectScenarioConfig smallGrid(MapperKind mapper,
                                       std::uint64_t simulationTime) {
  trace::CollectScenarioConfig config;
  config.gridWidth = 5;
  config.gridHeight = 5;
  config.simulationTime = simulationTime;
  config.mapper = mapper;
  return config;
}

// Legacy observables the partitioned run must reproduce.
struct LegacyReference {
  std::uint64_t scenarios = 0;
  std::set<std::uint64_t> scenarioPrints;
  std::set<std::uint64_t> statePrints;
  std::set<std::string> testcases;
};

LegacyReference legacyRun(const trace::CollectScenarioConfig& config,
                          bool collectTestcases) {
  trace::CollectScenario scenario(config);
  const trace::ScenarioResult result = scenario.run();
  EXPECT_EQ(result.outcome, RunOutcome::kCompleted);
  Engine& engine = scenario.engine();

  LegacyReference ref;
  ref.scenarios = countScenarios(engine.mapper());
  const auto prints = scenarioFingerprints(engine.mapper());
  ref.scenarioPrints.insert(prints.begin(), prints.end());
  for (const auto& state : engine.states())
    ref.statePrints.insert(state->configHash());
  if (collectTestcases) {
    ExplosionIterator it(engine.mapper());
    while (auto dscenario = it.next())
      ref.testcases.insert(
          canonicalScenarioTestcase(engine.solver(), *dscenario));
  }
  return ref;
}

template <typename T>
std::set<T> asSet(const std::vector<T>& values) {
  return std::set<T>(values.begin(), values.end());
}

class ParallelEquivalenceTest : public ::testing::TestWithParam<MapperKind> {};

TEST_P(ParallelEquivalenceTest, WorkerCountIsUnobservable) {
  const auto config = smallGrid(GetParam(), 4000);
  ParallelConfig parallel;

  std::optional<std::uint64_t> digest;
  for (const unsigned workers : {1u, 2u, 4u, 8u}) {
    parallel.workers = workers;
    const trace::PartitionedCollectResult run =
        trace::runCollectPartitioned(config, parallel, /*vars=*/2);
    ASSERT_EQ(run.result.jobs.size(), 4u);
    EXPECT_EQ(run.result.outcome, RunOutcome::kCompleted);
    if (!digest) {
      digest = run.result.fingerprintDigest();
    } else {
      EXPECT_EQ(*digest, run.result.fingerprintDigest())
          << "workers = " << workers;
    }
    // The stitched metric timeline is keyed by virtual time, so its
    // shape is schedule-independent too.
    EXPECT_FALSE(run.samples.empty());
    for (std::size_t i = 1; i < run.samples.size(); ++i)
      EXPECT_LE(run.samples[i - 1].virtualTime, run.samples[i].virtualTime);
  }
}

TEST_P(ParallelEquivalenceTest, PartitionedMatchesLegacyExploration) {
  const auto config = smallGrid(GetParam(), 4000);
  const LegacyReference legacy = legacyRun(config, /*collectTestcases=*/false);

  ParallelConfig parallel;
  parallel.workers = 4;
  const trace::PartitionedCollectResult run =
      trace::runCollectPartitioned(config, parallel, /*vars=*/2);
  const ParallelResult& result = run.result;

  EXPECT_EQ(result.outcome, RunOutcome::kCompleted);
  // Every legacy dscenario is owned by exactly one job.
  EXPECT_EQ(result.totalScenariosOwned, legacy.scenarios);
  std::uint64_t ownedSum = 0;
  for (const JobResult& job : result.jobs) ownedSum += job.scenariosOwned;
  EXPECT_EQ(ownedSum, legacy.scenarios);
  EXPECT_EQ(asSet(result.scenarioFingerprints), legacy.scenarioPrints);
  EXPECT_EQ(asSet(result.stateFingerprints), legacy.statePrints);

  // The partition genuinely splits the work: no single job re-explored
  // the whole universe.
  for (const JobResult& job : result.jobs) {
    EXPECT_LT(job.scenariosOwned, legacy.scenarios) << "job " << job.jobId;
    EXPECT_GT(job.scenariosRepresented, 0u) << "job " << job.jobId;
  }
}

TEST_P(ParallelEquivalenceTest, TestcasesMatchLegacy) {
  // Shorter horizon: test-case generation solves one joint model per
  // dscenario, so keep the universe small.
  const auto config = smallGrid(GetParam(), 2500);
  const LegacyReference legacy = legacyRun(config, /*collectTestcases=*/true);

  ParallelConfig parallel;
  parallel.workers = 4;
  parallel.collectTestcases = true;
  const trace::PartitionedCollectResult run =
      trace::runCollectPartitioned(config, parallel, /*vars=*/2);

  EXPECT_EQ(run.result.outcome, RunOutcome::kCompleted);
  EXPECT_EQ(asSet(run.result.testcases), legacy.testcases);
  EXPECT_FALSE(run.result.testcases.empty());
}

INSTANTIATE_TEST_SUITE_P(Mappers, ParallelEquivalenceTest,
                         ::testing::Values(MapperKind::kSds, MapperKind::kCow),
                         [](const auto& info) {
                           return std::string(mapperKindName(info.param));
                         });

// The solver refactor's determinism contract, enforced end-to-end: the
// layered pipeline vs the monolithic path, the live shared query cache
// on vs off, and every worker count must all produce the byte-identical
// exploration digest and canonical test-case set. Any layer whose
// answer depends on timing, worker interleaving, or cache history would
// show up here as a digest mismatch.
TEST(SolverPipelineDifferentialTest,
     DigestInvariantAcrossPipelineSharedCacheAndWorkers) {
  auto config = smallGrid(MapperKind::kSds, 2500);

  std::optional<std::uint64_t> digest;
  std::optional<std::set<std::string>> testcases;
  for (const bool pipeline : {true, false}) {
    for (const bool shared : {true, false}) {
      for (const unsigned workers : {1u, 2u, 4u, 8u}) {
        config.engine.solver.usePipeline = pipeline;
        ParallelConfig parallel;
        parallel.workers = workers;
        parallel.collectTestcases = true;
        parallel.shmQueryCache = shared;
        const trace::PartitionedCollectResult run =
            trace::runCollectPartitioned(config, parallel, /*vars=*/2);
        ASSERT_EQ(run.result.outcome, RunOutcome::kCompleted);
        const std::string combo = std::string("pipeline=") +
                                  (pipeline ? "on" : "off") + " shared=" +
                                  (shared ? "on" : "off") + " workers=" +
                                  std::to_string(workers);
        if (!digest) {
          digest = run.result.fingerprintDigest();
          testcases = asSet(run.result.testcases);
          EXPECT_FALSE(testcases->empty());
        } else {
          EXPECT_EQ(*digest, run.result.fingerprintDigest()) << combo;
          EXPECT_EQ(*testcases, asSet(run.result.testcases)) << combo;
        }
      }
    }
  }
}

TEST(ParallelReplayTest, DecisionLogReplaysOneScenario) {
  // Deterministic replay: forcing a state's full decision log re-runs
  // exactly its slice of the tree — the replay contains a state with
  // the same configuration while exploring far fewer states.
  const auto config = smallGrid(MapperKind::kSds, 4000);
  trace::CollectScenario scenario(config);
  ASSERT_EQ(scenario.run().outcome, RunOutcome::kCompleted);
  Engine& legacy = scenario.engine();

  // Pick the state with the longest decision log (the deepest slice).
  const ExecutionState* deepest = nullptr;
  for (const auto& state : legacy.states())
    if (deepest == nullptr || state->decisions.size() > deepest->decisions.size())
      deepest = state.get();
  ASSERT_NE(deepest, nullptr);
  ASSERT_FALSE(deepest->decisions.empty());

  std::unordered_map<std::string, bool> filter;
  for (const auto& decision : deepest->decisions)
    filter[std::string(decision.var->name())] = decision.failed;
  const std::uint64_t wanted = deepest->configHash();

  trace::CollectScenario replayScenario(config);
  Engine& replay = replayScenario.engine();
  replay.setDecisionFilter(filter);
  ASSERT_EQ(replay.run(config.simulationTime), RunOutcome::kCompleted);

  bool found = false;
  for (const auto& state : replay.states())
    if (state->configHash() == wanted) found = true;
  EXPECT_TRUE(found);
  EXPECT_LT(replay.numStates(), legacy.numStates());
  EXPECT_GT(replay.stats().get("engine.forced_decisions"), 0u);
}

// Randomised variant: arbitrary generated node programs, partitioned on
// the first drop decisions of two nodes — the partitioned fleet must
// still reproduce the legacy exploration exactly.
class ParallelFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelFuzzTest, PartitionedMatchesLegacyOnRandomPrograms) {
  RandomProgramGen gen(GetParam());
  const vm::Program program = gen.generate();

  os::NetworkPlan plan(net::Topology::line(3));
  plan.runEverywhere(program);
  std::vector<net::NodeId> everyone{0, 1, 2};

  EngineConfig engineConfig;
  engineConfig.maxStates = 3'000;
  engineConfig.maxEvents = 10'000;
  engineConfig.solver.enumeration.maxCandidates = 1u << 12;

  const auto makeEngine = [&]() {
    auto engine = std::make_unique<Engine>(plan, MapperKind::kSds,
                                           engineConfig);
    engine->setFailureModel(
        std::make_unique<net::SymbolicDropModel>(everyone, 1));
    return engine;
  };

  // Legacy reference.
  auto legacy = makeEngine();
  const RunOutcome outcome = legacy->run(2000);
  if (outcome != RunOutcome::kCompleted ||
      countScenarios(legacy->mapper()) > 100'000) {
    GTEST_SKIP() << "seed " << GetParam()
                 << " exceeds the exploration budget";
  }
  const auto legacyPrints = scenarioFingerprints(legacy->mapper());
  std::set<std::uint64_t> legacyStates;
  for (const auto& state : legacy->states())
    legacyStates.insert(state->configHash());

  const std::vector<std::string> variables{"n1.netdrop.0", "n0.netdrop.0"};
  const PartitionPlan partitionPlan = planPartitions(variables, GetParam());
  ParallelConfig parallel;
  parallel.horizon = 2000;

  std::optional<std::uint64_t> digest;
  for (const unsigned workers : {1u, 4u}) {
    parallel.workers = workers;
    const ParallelResult result = runPartitioned(
        [&](const PartitionJob&) { return makeEngine(); }, partitionPlan,
        parallel);
    ASSERT_EQ(result.outcome, RunOutcome::kCompleted) << "seed " << GetParam();
    EXPECT_EQ(result.totalScenariosOwned, countScenarios(legacy->mapper()))
        << "seed " << GetParam();
    EXPECT_EQ(asSet(result.scenarioFingerprints),
              std::set<std::uint64_t>(legacyPrints.begin(), legacyPrints.end()))
        << "seed " << GetParam();
    EXPECT_EQ(asSet(result.stateFingerprints), legacyStates)
        << "seed " << GetParam();
    if (!digest) {
      digest = result.fingerprintDigest();
    } else {
      EXPECT_EQ(*digest, result.fingerprintDigest()) << "seed " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelFuzzTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// The fleet coordinator folds each job as its worker reports it, so the
// fold must not see the order: folding `jobs` in any order and sealing
// the result must give the id-order finalizeParallelResult, field by
// field.
void expectFoldOrderUnobservable(const std::vector<JobResult>& jobs,
                                 const PartitionPlan& plan) {
  ParallelResult reference;
  reference.jobs = jobs;
  finalizeParallelResult(reference, plan, RunConfig{});

  std::vector<std::size_t> order(jobs.size());
  std::iota(order.begin(), order.end(), 0);
  std::size_t orders = 0;
  do {
    ParallelResult folded;
    folded.jobs = jobs;
    for (const std::size_t job : order) foldJobResult(folded, folded.jobs[job]);
    sealParallelResult(folded, plan, RunConfig{});

    std::string orderName;
    for (const std::size_t job : order) orderName += std::to_string(job);
    SCOPED_TRACE("fold order " + orderName);
    EXPECT_EQ(folded.outcome, reference.outcome);
    EXPECT_EQ(folded.totalStates, reference.totalStates);
    EXPECT_EQ(folded.totalEvents, reference.totalEvents);
    EXPECT_EQ(folded.totalScenariosOwned, reference.totalScenariosOwned);
    EXPECT_EQ(folded.scenarioFingerprints, reference.scenarioFingerprints);
    EXPECT_EQ(folded.stateFingerprints, reference.stateFingerprints);
    EXPECT_EQ(folded.testcases, reference.testcases);
    EXPECT_EQ(folded.stats.report(), reference.stats.report());
    EXPECT_EQ(folded.fingerprintDigest(), reference.fingerprintDigest());
    ++orders;
  } while (std::next_permutation(order.begin(), order.end()));
  EXPECT_EQ(orders, 24u);
}

TEST(FoldOrderTest, APartitionedRunFoldsToOneResultInEveryOrder) {
  ParallelConfig parallel;
  parallel.workers = 2;
  parallel.collectTestcases = true;
  const trace::PartitionedCollectResult run = trace::runCollectPartitioned(
      smallGrid(MapperKind::kSds, 2500), parallel, /*vars=*/2);
  ASSERT_EQ(run.result.jobs.size(), 4u);
  ASSERT_FALSE(run.result.testcases.empty());
  ASSERT_FALSE(run.result.scenarioFingerprints.empty());
  ASSERT_FALSE(run.result.stateFingerprints.empty());
  expectFoldOrderUnobservable(run.result.jobs,
                              planPartitions(std::vector<std::string>{"a", "b"}));
}

// Overlapping sets, a high-water counter (folded by max) and two jobs
// that did not complete with different outcomes: the run's outcome is
// the lower job id's whatever the fold order.
TEST(FoldOrderTest, HandBuiltJobsFoldToOneResultInEveryOrder) {
  using support::StatsRegistry;
  const auto job = [](std::uint32_t id, RunOutcome outcome,
                      std::vector<std::string> testcases,
                      std::vector<std::uint64_t> prints,
                      std::uint64_t peakStates) {
    JobResult result;
    result.jobId = id;
    result.outcome = outcome;
    result.states = 10 + id;
    result.events = 100 + id;
    result.scenariosOwned = testcases.size();
    result.testcases = std::move(testcases);
    result.scenarioFingerprints = prints;
    result.stateFingerprints = std::move(prints);
    result.stats.add(StatsRegistry::id("engine.events"), result.events);
    result.stats.maxOf(StatsRegistry::id("engine.peak_states"), peakStates);
    return result;
  };
  const std::vector<JobResult> jobs = {
      job(0, RunOutcome::kCompleted, {"a", "b", "c"}, {1, 2, 3}, 5),
      job(1, RunOutcome::kAbortedStates, {}, {}, 9),
      job(2, RunOutcome::kCompleted, {"b", "d"}, {2, 4}, 3),
      job(3, RunOutcome::kAbortedMemory, {"a", "d", "e"}, {1, 5}, 7),
  };
  const PartitionPlan plan =
      planPartitions(std::vector<std::string>{"a", "b"});
  expectFoldOrderUnobservable(jobs, plan);

  ParallelResult reference;
  reference.jobs = jobs;
  finalizeParallelResult(reference, plan, RunConfig{});
  EXPECT_EQ(reference.outcome, RunOutcome::kAbortedStates);
  EXPECT_EQ(reference.testcases,
            (std::vector<std::string>{"a", "b", "c", "d", "e"}));
  EXPECT_EQ(reference.stats.get("engine.peak_states"), 9u);
  EXPECT_EQ(reference.stats.get("engine.events"), 406u);
}

}  // namespace
}  // namespace sde

// Cross-algorithm equivalence and the paper's central claims, verified
// end-to-end on the grid data-collection scenario (§IV-A):
//
//  * Coverage: COB, COW and SDS represent exactly the same set of
//    dscenarios ("any other algorithm must cover all dscenarios
//    generated by COB", §III-A).
//  * Non-duplication: SDS never creates two states with the same strict
//    configuration (§III-D theorem); COB and COW do.
//  * Efficiency ordering: states(SDS) <= states(COW) <= states(COB).
//  * Structural invariants hold after every event (checkInvariants).
#include <gtest/gtest.h>

#include "sde/explode.hpp"
#include "trace/scenario.hpp"

namespace sde {
namespace {

struct GridCase {
  std::uint32_t width;
  std::uint32_t height;
  std::uint64_t simulationTime;
  bool duplicates;  // also enable the duplicate failure model
};

class EquivalenceTest : public ::testing::TestWithParam<GridCase> {
 protected:
  static trace::CollectScenario makeScenario(MapperKind kind) {
    const GridCase& c = GetParam();
    trace::CollectScenarioConfig config;
    config.gridWidth = c.width;
    config.gridHeight = c.height;
    config.simulationTime = c.simulationTime;
    config.mapper = kind;
    config.symbolicDuplicates = c.duplicates;
    config.engine.checkInvariants = true;
    config.engine.sampleEveryEvents = 1;
    config.engine.adaptiveSampling = false;  // observe every event
    return trace::CollectScenario(config);
  }
};

TEST_P(EquivalenceTest, AllAlgorithmsCoverTheSameDscenarios) {
  auto cob = makeScenario(MapperKind::kCob);
  auto cow = makeScenario(MapperKind::kCow);
  auto sds = makeScenario(MapperKind::kSds);
  ASSERT_EQ(cob.run().outcome, RunOutcome::kCompleted);
  ASSERT_EQ(cow.run().outcome, RunOutcome::kCompleted);
  ASSERT_EQ(sds.run().outcome, RunOutcome::kCompleted);

  const auto cobFp = scenarioFingerprints(cob.engine().mapper());
  const auto cowFp = scenarioFingerprints(cow.engine().mapper());
  const auto sdsFp = scenarioFingerprints(sds.engine().mapper());
  EXPECT_EQ(cobFp, cowFp);
  EXPECT_EQ(cobFp, sdsFp);
  EXPECT_FALSE(cobFp.empty());
}

TEST_P(EquivalenceTest, ScenarioCountsAgree) {
  auto cob = makeScenario(MapperKind::kCob);
  auto cow = makeScenario(MapperKind::kCow);
  auto sds = makeScenario(MapperKind::kSds);
  cob.run();
  cow.run();
  sds.run();
  // COB materialises every dscenario explicitly; COW and SDS represent
  // the same number compactly.
  const auto expected = countScenarios(cob.engine().mapper());
  EXPECT_EQ(countScenarios(cow.engine().mapper()), expected);
  EXPECT_EQ(countScenarios(sds.engine().mapper()), expected);
  EXPECT_EQ(cob.engine().mapper().numGroups(), expected);
}

// Strict-model duplicates are transient: a COB copy stops being a
// byte-equal duplicate once it receives a packet with a fresh id. The
// §III-D claims therefore quantify over the whole run — we sample after
// every event and track the running maximum.
static std::uint64_t maxStrictDuplicatesOverRun(trace::CollectScenario& s) {
  std::uint64_t worst = 0;
  s.engine().setSampler([&worst](const Engine& engine) {
    worst = std::max(
        worst,
        findDuplicates(engine.states()).strict.duplicateStates);
  });
  s.run();
  return worst;
}

TEST_P(EquivalenceTest, SdsIsDuplicateFreeInThePaperModel) {
  auto sds = makeScenario(MapperKind::kSds);
  EXPECT_EQ(maxStrictDuplicatesOverRun(sds), 0u)
      << "SDS must never duplicate states (§III-D)";
}

TEST_P(EquivalenceTest, CobAndCowDoDuplicate) {
  auto cob = makeScenario(MapperKind::kCob);
  auto cow = makeScenario(MapperKind::kCow);
  // On any scenario with communication after branching, COB duplicates;
  // COW duplicates bystanders (the grid always has bystanders).
  EXPECT_GT(maxStrictDuplicatesOverRun(cob), 0u);
  EXPECT_GT(maxStrictDuplicatesOverRun(cow), 0u);
}

TEST_P(EquivalenceTest, StateCountOrderingMatchesThePaper) {
  auto cob = makeScenario(MapperKind::kCob);
  auto cow = makeScenario(MapperKind::kCow);
  auto sds = makeScenario(MapperKind::kSds);
  const auto cobResult = cob.run();
  const auto cowResult = cow.run();
  const auto sdsResult = sds.run();
  EXPECT_LE(sdsResult.states, cowResult.states);
  EXPECT_LE(cowResult.states, cobResult.states);
  EXPECT_LT(sdsResult.states, cobResult.states);
  // Memory follows the same ordering (Table I).
  EXPECT_LE(sdsResult.memoryBytes, cowResult.memoryBytes);
  EXPECT_LE(cowResult.memoryBytes, cobResult.memoryBytes);
}

TEST_P(EquivalenceTest, CowAndSdsRepresentWithEqualGroupCounts) {
  // COW dstates and SDS dstates both mirror the distinct communication
  // histories; their group counts coincide on these scenarios.
  auto cow = makeScenario(MapperKind::kCow);
  auto sds = makeScenario(MapperKind::kSds);
  const auto cowResult = cow.run();
  const auto sdsResult = sds.run();
  EXPECT_EQ(cowResult.groups, sdsResult.groups);
}

TEST_P(EquivalenceTest, DistinctContentConfigurationsAgree) {
  // The *distinct* content-level configurations reached must be equal
  // across algorithms — duplicates differ, coverage does not.
  const auto distinct = [&](MapperKind kind) {
    auto scenario = makeScenario(kind);
    scenario.run();
    return findDuplicates(scenario.engine().states())
        .content.distinctConfigurations;
  };
  const auto cob = distinct(MapperKind::kCob);
  EXPECT_EQ(distinct(MapperKind::kCow), cob);
  EXPECT_EQ(distinct(MapperKind::kSds), cob);
}

INSTANTIATE_TEST_SUITE_P(
    Grids, EquivalenceTest,
    ::testing::Values(GridCase{2, 2, 3000, false},
                      GridCase{3, 2, 3000, false},
                      GridCase{2, 2, 5000, false},
                      GridCase{3, 3, 3000, false},
                      GridCase{2, 2, 3000, true},
                      GridCase{3, 2, 2000, true}),
    [](const ::testing::TestParamInfo<GridCase>& info) {
      return std::to_string(info.param.width) + "x" +
             std::to_string(info.param.height) + "_t" +
             std::to_string(info.param.simulationTime) +
             (info.param.duplicates ? "_dup" : "");
    });

}  // namespace
}  // namespace sde

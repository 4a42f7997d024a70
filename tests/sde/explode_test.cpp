// Deliberate state explosion and the incremental iterator (§IV-C).
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "sde/explode.hpp"
#include "trace/scenario.hpp"

namespace sde {
namespace {

class ExplodeTest : public ::testing::Test {
 protected:
  static trace::CollectScenario runScenario(MapperKind kind) {
    trace::CollectScenarioConfig config;
    config.gridWidth = 2;
    config.gridHeight = 2;
    config.simulationTime = 3000;
    config.mapper = kind;
    trace::CollectScenario scenario(config);
    scenario.run();
    return scenario;
  }
};

TEST_F(ExplodeTest, EagerAndIncrementalAgree) {
  auto scenario = runScenario(MapperKind::kSds);
  const auto eager = explodeScenarios(scenario.engine().mapper());
  ExplosionIterator it(scenario.engine().mapper());
  std::size_t count = 0;
  while (auto next = it.next()) {
    ASSERT_LT(count, eager.size());
    EXPECT_EQ(*next, eager[count]);
    ++count;
  }
  EXPECT_EQ(count, eager.size());
  EXPECT_EQ(it.produced(), eager.size());
}

TEST_F(ExplodeTest, CountMatchesMaterialisation) {
  for (MapperKind kind :
       {MapperKind::kCob, MapperKind::kCow, MapperKind::kSds}) {
    auto scenario = runScenario(kind);
    EXPECT_EQ(countScenarios(scenario.engine().mapper()),
              explodeScenarios(scenario.engine().mapper()).size())
        << mapperKindName(kind);
  }
}

TEST_F(ExplodeTest, EveryScenarioSpansAllNodes) {
  auto scenario = runScenario(MapperKind::kSds);
  for (const auto& dscenario :
       explodeScenarios(scenario.engine().mapper())) {
    ASSERT_EQ(dscenario.size(), 4u);
    for (NodeId node = 0; node < 4; ++node)
      EXPECT_EQ(dscenario[node]->node(), node);
  }
}

TEST_F(ExplodeTest, ExplodedScenariosAreConflictFree) {
  auto scenario = runScenario(MapperKind::kSds);
  for (const auto& dscenario :
       explodeScenarios(scenario.engine().mapper())) {
    StateGroup group(4);
    for (ExecutionState* state : dscenario) group.add(state);
    EXPECT_EQ(countConflicts(group), 0u);
  }
}

TEST_F(ExplodeTest, FingerprintsDeduplicateCobScenarios) {
  // COB may hold several dscenarios with identical configurations; the
  // fingerprint set is the deduplicated view.
  auto cob = runScenario(MapperKind::kCob);
  const auto fingerprints = scenarioFingerprints(cob.engine().mapper());
  EXPECT_LE(fingerprints.size(),
            explodeScenarios(cob.engine().mapper()).size());
  EXPECT_FALSE(fingerprints.empty());
}

TEST_F(ExplodeTest, IncrementalIterationIsMemoryBounded) {
  // The iterator only holds its odometer, never the full product: after
  // producing half the scenarios, produced() reflects exactly that.
  auto scenario = runScenario(MapperKind::kSds);
  const auto total = countScenarios(scenario.engine().mapper());
  ExplosionIterator it(scenario.engine().mapper());
  for (std::uint64_t i = 0; i < total / 2; ++i)
    ASSERT_TRUE(it.next().has_value());
  EXPECT_EQ(it.produced(), total / 2);
}

// A group of `nodes` nodes with `choices` states each; counting never
// looks at the states, so they are null.
std::vector<std::vector<ExecutionState*>> uniformGroup(std::size_t nodes,
                                                       std::size_t choices) {
  return std::vector<std::vector<ExecutionState*>>(
      nodes, std::vector<ExecutionState*>(choices, nullptr));
}

TEST(CountScenariosTest, ExactUpToTheTopOfTheRange) {
  // 2^63 + 2^62 + ... + 2^0 = 2^64 - 1, one group per power.
  std::vector<std::vector<std::vector<ExecutionState*>>> groups;
  for (std::size_t nodes = 0; nodes < 64; ++nodes)
    groups.push_back(uniformGroup(nodes, 2));
  EXPECT_EQ(countScenarios(groups), std::numeric_limits<std::uint64_t>::max());
  groups.push_back(uniformGroup(3, 0));  // an empty choice list adds 0
  EXPECT_EQ(countScenarios(groups), std::numeric_limits<std::uint64_t>::max());
}

TEST(CountScenariosTest, AProductAbove2To64Throws) {
  EXPECT_THROW((void)countScenarios({uniformGroup(64, 2)}),
               ScenarioCountOverflow);
  EXPECT_THROW((void)countScenarios({uniformGroup(3, 2), uniformGroup(65, 3)}),
               ScenarioCountOverflow);
}

TEST(CountScenariosTest, ASumAbove2To64Throws) {
  EXPECT_THROW(
      (void)countScenarios({uniformGroup(63, 2), uniformGroup(63, 2)}),
      ScenarioCountOverflow);
  std::vector<std::vector<std::vector<ExecutionState*>>> groups;
  for (std::size_t nodes = 0; nodes < 64; ++nodes)
    groups.push_back(uniformGroup(nodes, 2));
  groups.push_back(uniformGroup(0, 2));  // 2^64 - 1 plus one
  EXPECT_THROW((void)countScenarios(groups), ScenarioCountOverflow);
}

}  // namespace
}  // namespace sde

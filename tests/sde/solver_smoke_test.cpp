// Solver-stats smoke check, invoked by scripts/verify.sh: on the
// example collect scenario every pipeline layer must report nonzero
// traffic through the stats registry — a layer with zero queries means
// the pipeline wiring silently dropped it.
#include <gtest/gtest.h>

#include "sde/explode.hpp"
#include "sde/testcase.hpp"
#include "snapshot/shared_cache_io.hpp"
#include "trace/scenario.hpp"

namespace sde {
namespace {

TEST(SolverSmokeTest, EveryPipelineLayerSeesTrafficOnTheExampleScenario) {
  trace::CollectScenarioConfig config;
  config.gridWidth = 3;
  config.gridHeight = 3;
  config.simulationTime = 3000;
  trace::CollectScenario scenario(config);

  // A store made as the runners make theirs.
  const auto shared = snapshot::openSharedStore("");
  ASSERT_NE(shared, nullptr);
  scenario.engine().solver().setSharedCache(shared.get());
  ASSERT_EQ(scenario.run().outcome, RunOutcome::kCompleted);

  // Exploration branches in the failure models; the solver-heavy phase
  // is test-case generation over the explored dscenarios.
  ExplosionIterator it(scenario.engine().mapper());
  std::size_t solved = 0;
  while (solved < 50) {
    const auto dscenario = it.next();
    if (!dscenario) break;
    ++solved;
    ASSERT_TRUE(
        generateScenarioTestCases(scenario.engine().solver(), *dscenario)
            .has_value());
  }
  ASSERT_GT(solved, 0u);

  const auto& stats = scenario.engine().solver().stats();
  EXPECT_GT(stats.get("solver.queries"), 0u);
  for (const auto& layer : scenario.engine().solver().pipeline().layers()) {
    const std::string prefix = "solver.layer." + std::string(layer->name());
    EXPECT_GT(stats.get(prefix + ".queries"), 0u)
        << "pipeline layer " << layer->name()
        << " saw no traffic on the example scenario";
  }
  // The workload is real: some queries were answered from the caches
  // and at least one reached enumeration.
  EXPECT_GT(stats.get("solver.layer.exact_cache.hits"), 0u);
  EXPECT_GT(stats.get("solver.layer.enumerate.hits"), 0u);
}

}  // namespace
}  // namespace sde

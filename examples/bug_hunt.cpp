// Bug hunt: what SDE is *for* (paper §I: KleeNet "found subtle bugs in
// widely deployed sensornet software"). We arm the collect sink with two
// protocol assertions —
//
//   * "never observe the same sequence number twice"  (breaks under
//     packet duplication), and
//   * "never skip a sequence number"                   (breaks under
//     packet drops)
//
// — inject the matching symbolic failure models, and let symbolic
// distributed execution find the violating executions. Each failing
// state yields a concrete test case: the exact set of failure decisions
// that reproduces the bug deterministically.
//
// Usage: ./build/examples/bug_hunt
#include <cstdio>

#include "sde/explode.hpp"
#include "sde/testcase.hpp"
#include "trace/scenario.hpp"

namespace {

void hunt(const char* label, bool failOnDup, bool failOnLoss,
          bool injectDuplicates, bool injectDrops) {
  using namespace sde;
  std::printf("=== %s ===\n", label);

  trace::CollectScenarioConfig config;
  config.gridWidth = 3;
  config.gridHeight = 1;  // 3-node line: source 2 -> relay 1 -> sink 0
  config.simulationTime = 4000;
  config.mapper = MapperKind::kSds;
  config.symbolicDrops = injectDrops;
  config.symbolicDuplicates = injectDuplicates;
  config.app.failOnDuplicateSeqno = failOnDup;
  config.app.failOnLostSeqno = failOnLoss;

  trace::CollectScenario scenario(config);
  const auto result = scenario.run();
  std::printf("explored %llu states (%llu dscenario groups)\n",
              static_cast<unsigned long long>(result.states),
              static_cast<unsigned long long>(result.groups));

  std::size_t failures = 0;
  for (const auto& state : scenario.engine().states()) {
    if (state->status != vm::StateStatus::kFailed) continue;
    ++failures;
    if (failures > 3) continue;  // show the first three witnesses
    std::printf("\nBUG FOUND on node %u: %s\n", state->node(),
                state->cold().failureMessage.c_str());
    // A local test case covers only this node's own symbolic inputs; the
    // *distributed* root cause (e.g. the relay's failure decision) lives
    // in the other members of a dscenario containing this state. Solve
    // them jointly for the full reproduction recipe.
    const auto dscenario =
        scenarioContaining(scenario.engine().mapper(), *state);
    if (!dscenario) continue;
    const auto cases =
        generateScenarioTestCases(scenario.engine().solver(), *dscenario);
    if (!cases) continue;
    for (const auto& testCase : *cases)
      if (!testCase.inputs.empty())
        std::printf("%s", formatTestCase(testCase).c_str());
  }
  if (failures == 0)
    std::printf("no assertion failures (as expected for this setup)\n");
  else
    std::printf("\n%zu failing state(s) in total.\n", failures);
  std::printf("\n");
}

}  // namespace

int main() {
  // Control: assertions armed but the network is ideal — no bug fires.
  hunt("control run: ideal network, assertions armed", true, true,
       /*injectDuplicates=*/false, /*injectDrops=*/false);

  // Packet duplication violates the at-most-once assumption at the sink.
  hunt("duplicate-delivery bug under the duplication failure model", true,
       false, /*injectDuplicates=*/true, /*injectDrops=*/false);

  // Packet drops violate the no-loss assumption at the sink.
  hunt("lost-packet bug under the drop failure model", false, true,
       /*injectDuplicates=*/false, /*injectDrops=*/true);
  return 0;
}

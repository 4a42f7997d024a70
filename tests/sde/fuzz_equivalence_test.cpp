// Randomised cross-algorithm equivalence: for arbitrary (generated) node
// programs — random ALU dataflow, symbolic inputs, data-dependent
// forward branches, broadcasts — COB, COW and SDS must still explore
// identical dscenario sets, SDS must stay duplicate-free, and every
// mapper's structural invariants must hold. This generalises the
// equivalence suite beyond the handcrafted protocols.
#include <gtest/gtest.h>

#include "sde/explode.hpp"
#include "sde/sds.hpp"
#include "random_program.hpp"
#include "trace/scenario.hpp"

namespace sde {
namespace {

class FuzzEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzEquivalenceTest, AllMappersAgreeOnRandomPrograms) {
  RandomProgramGen gen(GetParam());
  const vm::Program program = gen.generate();

  std::unordered_set<std::uint64_t> fingerprints[3];
  std::uint64_t states[3] = {0, 0, 0};
  for (const MapperKind kind :
       {MapperKind::kCob, MapperKind::kCow, MapperKind::kSds}) {
    os::NetworkPlan plan(net::Topology::line(3));
    plan.runEverywhere(program);
    EngineConfig config;
    // Generated programs can branch combinatorially; keep runs small
    // enough that the quadratic end-of-run invariant checks stay cheap.
    config.maxStates = 3'000;
    config.maxEvents = 10'000;  // residual storm guard
    config.solver.enumeration.maxCandidates = 1u << 12;
    Engine engine(plan, kind, config);
    const RunOutcome outcome = engine.run(2000);
    if (outcome != RunOutcome::kCompleted ||
        countScenarios(engine.mapper()) > 100'000) {
      GTEST_SKIP() << "seed " << GetParam()
                   << " exceeds the exploration budget";
    }
    engine.mapper().checkInvariants();
    fingerprints[static_cast<int>(kind)] =
        scenarioFingerprints(engine.mapper());
    states[static_cast<int>(kind)] = engine.numStates();

    if (kind == MapperKind::kSds) {
      EXPECT_EQ(findDuplicates(engine.states()).strict.duplicateStates, 0u)
          << "seed " << GetParam();
    }
  }

  EXPECT_EQ(fingerprints[0], fingerprints[1]) << "seed " << GetParam();
  EXPECT_EQ(fingerprints[0], fingerprints[2]) << "seed " << GetParam();
  EXPECT_LE(states[2], states[1]) << "seed " << GetParam();
  EXPECT_LE(states[1], states[0]) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzEquivalenceTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88, 99,
                                           111, 222, 333));

}  // namespace
}  // namespace sde

// Oracle for the one-pass duplicate report: findDuplicates must give,
// field for field, what a plain two-scan reference gives — one hash map
// counting configHash() classes and one counting configHashStrict()
// classes — on the collect scenario under every mapper and failure
// kind, and on random programs with merging on and off.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>

#include "random_program.hpp"
#include "sde/duplicates.hpp"
#include "sde/engine.hpp"
#include "trace/scenario.hpp"

namespace sde {
namespace {

using States = std::deque<std::unique_ptr<vm::ExecutionState>>;

DuplicateReport referenceScan(const States& states, bool strict) {
  std::unordered_map<std::uint64_t, std::uint64_t> classes;
  DuplicateReport report;
  for (const auto& state : states) {
    ++report.totalStates;
    ++classes[strict ? state->configHashStrict() : state->configHash()];
  }
  report.distinctConfigurations = classes.size();
  for (const auto& [hash, count] : classes) {
    report.duplicateStates += count - 1;
    report.largestClass = std::max(report.largestClass, count);
  }
  return report;
}

void expectSameReport(const DuplicateReport& got, const DuplicateReport& want,
                      const std::string& what) {
  EXPECT_EQ(got.totalStates, want.totalStates) << what;
  EXPECT_EQ(got.distinctConfigurations, want.distinctConfigurations) << what;
  EXPECT_EQ(got.duplicateStates, want.duplicateStates) << what;
  EXPECT_EQ(got.largestClass, want.largestClass) << what;
}

// Checks both reports of `engine`'s states and returns them.
DuplicateReports expectMatchesReference(const Engine& engine,
                                        const std::string& what) {
  const DuplicateReports reports = findDuplicates(engine.states());
  expectSameReport(reports.strict, referenceScan(engine.states(), true),
                   what + " (strict)");
  expectSameReport(reports.content, referenceScan(engine.states(), false),
                   what + " (content)");
  return reports;
}

enum class Failure { kDrops, kDuplicates, kReboots };

std::string failureName(Failure failure) {
  switch (failure) {
    case Failure::kDrops:
      return "drops";
    case Failure::kDuplicates:
      return "duplicates";
    case Failure::kReboots:
      return "reboots";
  }
  return "?";
}

class CollectDuplicatesTest
    : public ::testing::TestWithParam<std::tuple<MapperKind, Failure>> {};

// 4x4 at 2,500 units; COB's duplicate and reboot runs stop at the state
// cap, which still leaves tens of thousands of states to classify.
TEST_P(CollectDuplicatesTest, OnePassEqualsTheTwoScanReference) {
  const auto [mapper, failure] = GetParam();
  trace::CollectScenarioConfig config;
  config.gridWidth = 4;
  config.gridHeight = 4;
  config.simulationTime = 2500;
  config.mapper = mapper;
  // Drops stay on under every failure kind, as in the other batteries.
  config.symbolicDuplicates = failure == Failure::kDuplicates;
  config.symbolicReboots = failure == Failure::kReboots;
  config.engine.maxStates = 20'000;
  trace::CollectScenario scenario(config);
  const trace::ScenarioResult result = scenario.run();
  const DuplicateReports reports =
      expectMatchesReference(scenario.engine(), "collect");
  // summarize reports the same scan.
  expectSameReport(result.duplicatesStrict, reports.strict, "summarize");
  expectSameReport(result.duplicatesContent, reports.content, "summarize");
  // Anti-vacuity: every run has content duplicates, and only SDS is
  // free of strict ones (§III-D).
  EXPECT_GT(reports.content.duplicateStates, 0u);
  EXPECT_GT(reports.content.largestClass, 1u);
  if (mapper == MapperKind::kSds) {
    EXPECT_EQ(reports.strict.duplicateStates, 0u);
  } else {
    EXPECT_GT(reports.strict.duplicateStates, 0u);
    EXPECT_GT(reports.strict.largestClass, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Mappers, CollectDuplicatesTest,
    ::testing::Combine(::testing::Values(MapperKind::kCob, MapperKind::kCow,
                                         MapperKind::kSds),
                       ::testing::Values(Failure::kDrops,
                                         Failure::kDuplicates,
                                         Failure::kReboots)),
    [](const auto& info) {
      return std::string(mapperKindName(std::get<0>(info.param))) + "_" +
             failureName(std::get<1>(info.param));
    });

class RandomProgramDuplicatesTest
    : public ::testing::TestWithParam<std::tuple<MapperKind, bool>> {};

TEST_P(RandomProgramDuplicatesTest, OnePassEqualsTheTwoScanReference) {
  const auto [mapper, merge] = GetParam();
  std::uint64_t merges = 0;
  std::uint64_t duplicates = 0;
  for (std::uint64_t seed = 11; seed <= 34; ++seed) {
    RandomProgramGen gen(seed, /*quietBranchArms=*/true);
    os::NetworkPlan plan(net::Topology::line(3));
    plan.runEverywhere(gen.generate());
    EngineConfig config;
    config.maxStates = 3'000;
    config.maxEvents = 10'000;
    config.solver.enumeration.maxCandidates = 1u << 12;
    config.mergeStates = merge;
    Engine engine(plan, mapper, config);
    (void)engine.run(2000);
    merges += engine.stats().get("engine.merges");
    duplicates += expectMatchesReference(engine, "seed " + std::to_string(seed))
                      .content.duplicateStates;
  }
  // Anti-vacuity: the seeds duplicate, and merging on merges.
  EXPECT_GT(duplicates, 0u);
  if (merge) {
    EXPECT_GT(merges, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Mappers, RandomProgramDuplicatesTest,
    ::testing::Combine(::testing::Values(MapperKind::kCob, MapperKind::kCow,
                                         MapperKind::kSds),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(mapperKindName(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_merge" : "_nomerge");
    });

}  // namespace
}  // namespace sde

// Oracle for the one-pass duplicate report: findDuplicates must give,
// field for field, what a plain two-scan reference gives — one hash map
// counting configHash() classes and one counting configHashStrict()
// classes — on the collect scenario under every mapper and failure
// kind, and on random programs with merging on and off. The split scan
// behind it (detail::scanInRuns) is held to the same reference at 1 to
// 8 runs on those inputs, and on hand-built hash layouts: classes that
// straddle every run boundary, all-equal hashes, more runs than states,
// no states and one state.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "random_program.hpp"
#include "sde/duplicates.hpp"
#include "sde/engine.hpp"
#include "support/hash.hpp"
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

// Checks both reports of `engine`'s states — findDuplicates's, and the
// split scan's at 1 to 8 runs — and returns findDuplicates's.
DuplicateReports expectMatchesReference(const Engine& engine,
                                        const std::string& what) {
  const States& states = engine.states();
  const DuplicateReport strict = referenceScan(states, true);
  const DuplicateReport content = referenceScan(states, false);
  const DuplicateReports reports = findDuplicates(states);
  expectSameReport(reports.strict, strict, what + " (strict)");
  expectSameReport(reports.content, content, what + " (content)");
  for (unsigned runs = 1; runs <= 8; ++runs) {
    const DuplicateReports split =
        detail::scanInRuns(states.size(), runs, [&states](std::size_t i) {
          return detail::ConfigHashes{states[i]->configHash(),
                                      states[i]->configHashStrict()};
        });
    const std::string where = what + ", " + std::to_string(runs) + " runs";
    expectSameReport(split.strict, strict, where + " (strict)");
    expectSameReport(split.content, content, where + " (content)");
  }
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

// --- The split scan on hand-built hash layouts -----------------------------

// referenceScan's count over a plain hash vector.
DuplicateReport referenceCount(const std::vector<std::uint64_t>& hashes) {
  std::unordered_map<std::uint64_t, std::uint64_t> classes;
  for (const std::uint64_t hash : hashes) ++classes[hash];
  DuplicateReport report;
  report.totalStates = hashes.size();
  report.distinctConfigurations = classes.size();
  for (const auto& [hash, count] : classes) {
    report.duplicateStates += count - 1;
    report.largestClass = std::max(report.largestClass, count);
  }
  return report;
}

// Holds the split scan of the items (content[i], strict[i]) at 1 to 8
// runs to referenceCount, and checks that it hashes each item once.
void expectSplitScanMatches(const std::vector<std::uint64_t>& content,
                            const std::vector<std::uint64_t>& strict,
                            const std::string& what) {
  ASSERT_EQ(content.size(), strict.size());
  const DuplicateReport wantStrict = referenceCount(strict);
  const DuplicateReport wantContent = referenceCount(content);
  for (unsigned runs = 1; runs <= 8; ++runs) {
    std::vector<std::atomic<int>> calls(content.size());
    const DuplicateReports got =
        detail::scanInRuns(content.size(), runs, [&](std::size_t i) {
          calls[i].fetch_add(1);
          return detail::ConfigHashes{content[i], strict[i]};
        });
    const std::string where = what + ", " + std::to_string(runs) + " runs";
    expectSameReport(got.strict, wantStrict, where + " (strict)");
    expectSameReport(got.content, wantContent, where + " (content)");
    for (std::size_t i = 0; i < calls.size(); ++i)
      EXPECT_EQ(calls[i].load(), 1) << where << ", item " << i;
  }
}

// 840 items split evenly at every run count from 1 to 8. Interleaved
// classes have members on both sides of every run boundary; contiguous
// ones fall across the boundaries wherever they are cut.
TEST(SplitScanTest, ClassesAcrossRunBoundariesCountOnce) {
  constexpr std::size_t kItems = 840;
  std::vector<std::uint64_t> interleaved(kItems);
  std::vector<std::uint64_t> oddOnesAlike(kItems);
  std::vector<std::uint64_t> contiguous(kItems);
  std::vector<std::uint64_t> unequal(kItems);
  for (std::size_t i = 0; i < kItems; ++i) {
    interleaved[i] = support::mix64(i % 7);
    oddOnesAlike[i] = support::mix64(i % 2 == 0 ? kItems + i : 0);
    contiguous[i] = (i + 3) / 11;
    unequal[i] = (i * 13) % kItems;
  }
  expectSplitScanMatches(interleaved, oddOnesAlike, "interleaved");
  expectSplitScanMatches(contiguous, interleaved, "contiguous");
  expectSplitScanMatches(unequal, contiguous, "one class per item");
}

TEST(SplitScanTest, AllEqualHashesAreOneClass) {
  const std::vector<std::uint64_t> equal(1000, 42);
  std::vector<std::uint64_t> distinct(1000);
  for (std::size_t i = 0; i < distinct.size(); ++i) distinct[i] = 999 - i;
  expectSplitScanMatches(equal, equal, "all equal");
  expectSplitScanMatches(equal, distinct, "equal content, distinct strict");
  const DuplicateReports got = detail::scanInRuns(
      equal.size(), 4, [](std::size_t) { return detail::ConfigHashes{7, 7}; });
  EXPECT_EQ(got.content.distinctConfigurations, 1u);
  EXPECT_EQ(got.content.duplicateStates, 999u);
  EXPECT_EQ(got.content.largestClass, 1000u);
}

TEST(SplitScanTest, MoreRunsThanStates) {
  expectSplitScanMatches({5, 3, 5}, {1, 2, 3}, "three items");
}

TEST(SplitScanTest, NoStates) {
  expectSplitScanMatches({}, {}, "no items");
  const DuplicateReports none = findDuplicates(States{});
  expectSameReport(none.strict, DuplicateReport{}, "findDuplicates (strict)");
  expectSameReport(none.content, DuplicateReport{}, "findDuplicates (content)");
}

TEST(SplitScanTest, OneState) {
  expectSplitScanMatches({9}, {9}, "one item");
}

}  // namespace
}  // namespace sde

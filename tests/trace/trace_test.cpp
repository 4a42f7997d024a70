#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "trace/metrics.hpp"
#include "trace/scenario.hpp"
#include "trace/table.hpp"

namespace sde::trace {
namespace {

TEST(Table, RendersAlignedGrid) {
  TextTable table({"a", "long header"});
  table.addRow({"xxxx", "1"});
  const std::string out = table.render();
  EXPECT_EQ(out,
            "+------+-------------+\n"
            "| a    | long header |\n"
            "+------+-------------+\n"
            "| xxxx | 1           |\n"
            "+------+-------------+\n");
}

TEST(TableDeathTest, RowWidthMismatchAborts) {
  TextTable table({"one"});
  EXPECT_DEATH(table.addRow({"a", "b"}), "width mismatch");
}

TEST(Format, DurationMatchesPaperStyle) {
  EXPECT_EQ(formatDuration(0.002), "2ms");
  EXPECT_EQ(formatDuration(7.4), "7s");
  EXPECT_EQ(formatDuration(98.0), "1m:38s");
  EXPECT_EQ(formatDuration(5880.0), "1h:38m");   // Table I's COW row
  EXPECT_EQ(formatDuration(34740.0), "9h:39m");  // Table I's COB row
}

TEST(Format, CountWithThousandsSeparators) {
  EXPECT_EQ(formatCount(0), "0");
  EXPECT_EQ(formatCount(999), "999");
  EXPECT_EQ(formatCount(1000), "1,000");
  EXPECT_EQ(formatCount(1025700), "1,025,700");  // Table I's COB states
}

TEST(Format, BytesHumanReadable) {
  EXPECT_EQ(formatBytes(512), "512 B");
  EXPECT_EQ(formatBytes(2048), "2.0 KB");
  EXPECT_EQ(formatBytes(3650722202ull), "3.4 GB");  // Table I's COW RAM
}

TEST(Metrics, RecorderCapturesEngineProgress) {
  CollectScenarioConfig config;
  config.gridWidth = 2;
  config.gridHeight = 2;
  config.simulationTime = 3000;
  config.engine.sampleEveryEvents = 1;
  config.engine.adaptiveSampling = false;
  CollectScenario scenario(config);
  scenario.run();

  const auto& samples = scenario.metrics().samples();
  ASSERT_GT(samples.size(), 2u);
  // Monotone in events and virtual time; states never shrink.
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i].events, samples[i - 1].events);
    EXPECT_GE(samples[i].virtualTime, samples[i - 1].virtualTime);
    EXPECT_GE(samples[i].states, samples[i - 1].states);
  }
  EXPECT_EQ(scenario.metrics().last().states,
            scenario.engine().numStates());
}

TEST(Metrics, CsvHasHeaderAndRows) {
  MetricsRecorder recorder;
  CollectScenarioConfig config;
  config.gridWidth = 2;
  config.gridHeight = 2;
  config.simulationTime = 2000;
  CollectScenario scenario(config);
  scenario.run();

  std::ostringstream os;
  scenario.metrics().writeCsv(os, "SDS");
  const std::string text = os.str();
  EXPECT_NE(text.find("series,wall_s,virtual_t,states,memory_bytes"),
            std::string::npos);
  EXPECT_NE(text.find("SDS,"), std::string::npos);
}

// Real RAM next to the simulated meter: every sample carries the
// process's resident bytes, in the CSV's column right after the
// simulated memory.
TEST(Metrics, SamplesCarryTheResidentBytes) {
  CollectScenarioConfig config;
  config.gridWidth = 2;
  config.gridHeight = 2;
  config.simulationTime = 2000;
  CollectScenario scenario(config);
  scenario.run();

  std::ostringstream os;
  scenario.metrics().writeCsv(os, "SDS");
  EXPECT_EQ(os.str().rfind("series,wall_s,virtual_t,states,memory_bytes,"
                           "resident_bytes,",
                           0),
            0u);
  ASSERT_FALSE(scenario.metrics().samples().empty());
#ifdef __linux__
  for (const MetricSample& sample : scenario.metrics().samples())
    EXPECT_GT(sample.residentBytes, 0u);
#endif
}

// The kernel raises the resident high-water mark lazily; a summary's
// peak must still never read below its own resident bytes.
TEST(Metrics, SummaryPeakIsNeverBelowTheResidentBytes) {
  CollectScenarioConfig config;
  config.gridWidth = 2;
  config.gridHeight = 2;
  config.simulationTime = 2000;
  CollectScenario scenario(config);
  const ScenarioResult result = scenario.run();
  EXPECT_GE(result.peakResidentBytes, result.residentBytes);
#ifdef __linux__
  EXPECT_GT(result.residentBytes, 0u);
#endif
}

// Regression: the CSV header used to be a hand-maintained literal that
// silently went stale when sample fields were added — rows grew columns
// the header didn't name. Header and rows must both follow
// metricCsvSchema(), so every line of the file has the same width.
TEST(Metrics, CsvHeaderFollowsTheRowSchema) {
  const auto columns = [](const std::string& line) {
    return 1 + std::count(line.begin(), line.end(), ',');
  };

  MetricsRecorder recorder;
  CollectScenarioConfig config;
  config.gridWidth = 2;
  config.gridHeight = 2;
  config.simulationTime = 2000;
  config.engine.mergeStates = true;
  CollectScenario scenario(config);
  scenario.run();

  std::ostringstream os;
  scenario.metrics().writeCsv(os, "SDS");
  std::istringstream lines(os.str());
  std::string header;
  ASSERT_TRUE(std::getline(lines, header));

  // Header = "series" + exactly the schema column names, in order.
  std::string expected = "series";
  for (const MetricColumn& column : metricCsvSchema())
    expected += std::string(",") + column.name;
  EXPECT_EQ(header, expected);
  EXPECT_NE(header.find(",merges"), std::string::npos);
  EXPECT_NE(header.find(",loop_summaries"), std::string::npos);

  std::string row;
  std::size_t rows = 0;
  while (std::getline(lines, row)) {
    ++rows;
    EXPECT_EQ(columns(row), columns(header)) << "row " << rows << ": " << row;
  }
  EXPECT_GT(rows, 0u);
}

namespace {
MetricSample sample(std::uint64_t virtualTime, std::uint64_t events,
                    std::uint64_t states, double wallSeconds = 0) {
  MetricSample s;
  s.virtualTime = virtualTime;
  s.events = events;
  s.states = states;
  s.wallSeconds = wallSeconds;
  return s;
}
}  // namespace

TEST(Stitch, EmptyAndAllEmptySeriesYieldAnEmptyTimeline) {
  EXPECT_TRUE(stitchSamples({}).empty());
  const std::vector<std::vector<MetricSample>> hollow(3);
  EXPECT_TRUE(stitchSamples(hollow).empty());
}

TEST(Stitch, EmptySeriesAmongNonEmptyContributesNothing) {
  // A worker that never sampled (e.g. a resumed .done job) must not
  // disturb the tie-break indices of its neighbours: series indices are
  // positional, so the empty series in the middle still counts as index
  // 1 and the last series ties AFTER series 0.
  const std::vector<std::vector<MetricSample>> series{
      {sample(100, 7, 11)},
      {},
      {sample(100, 7, 22), sample(300, 9, 33)},
  };
  const std::vector<MetricSample> stitched = stitchSamples(series);
  ASSERT_EQ(stitched.size(), 3u);
  EXPECT_EQ(stitched[0].states, 11u);  // full tie: series 0 before 2
  EXPECT_EQ(stitched[1].states, 22u);
  EXPECT_EQ(stitched[2].states, 33u);
}

TEST(MetricsDeathTest, CsvRejectsSeriesNamesThatBreakTheFormat) {
  // The series name lands verbatim in the lead column; the shared
  // schema-driven writer (trace/csv.hpp) rejects field-breaking bytes.
  MetricsRecorder recorder;
  std::ostringstream os;
  EXPECT_DEATH(recorder.writeCsv(os, "bad,name"), "CSV field");
  EXPECT_DEATH(recorder.writeCsv(os, "bad\nname"), "CSV field");
}

TEST(Stitch, SingleSeriesPassesThroughInRecordedOrder) {
  // A single worker's series is already sorted by construction (an
  // engine samples at monotone virtual times); stitching must return
  // it untouched — including repeated end-of-run samples, which tie on
  // the whole key and rely on the stable sort.
  const std::vector<std::vector<MetricSample>> one{{
      sample(0, 0, 1),
      sample(500, 10, 4),
      sample(500, 10, 4),  // repeated sample: order preserved
      sample(1000, 25, 9),
  }};
  const std::vector<MetricSample> stitched = stitchSamples(one);
  ASSERT_EQ(stitched.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(stitched[i].virtualTime, one[0][i].virtualTime) << i;
    EXPECT_EQ(stitched[i].events, one[0][i].events) << i;
    EXPECT_EQ(stitched[i].states, one[0][i].states) << i;
  }
}

TEST(Stitch, SamplesKeepTheirResidentBytes) {
  // Each worker samples its own process's RSS; the timeline keeps every
  // sample's value rather than summing or re-reading it.
  std::vector<std::vector<MetricSample>> series{
      {sample(100, 7, 11), sample(300, 9, 33)},
      {sample(200, 8, 22)},
  };
  series[0][0].residentBytes = 1000;
  series[0][1].residentBytes = 3000;
  series[1][0].residentBytes = 2000;
  const std::vector<MetricSample> stitched = stitchSamples(series);
  ASSERT_EQ(stitched.size(), 3u);
  EXPECT_EQ(stitched[0].residentBytes, 1000u);
  EXPECT_EQ(stitched[1].residentBytes, 2000u);
  EXPECT_EQ(stitched[2].residentBytes, 3000u);
}

TEST(Stitch, DuplicateVirtualTimesBreakTiesByEventsThenSeriesIndex) {
  // Three workers sampling the same virtual instant: ordered by events
  // first; full ties (virtualTime AND events equal) by series index,
  // so the lower-indexed worker contributes first. Wall-clock stamps
  // are deliberately irrelevant — series 0 carries the LARGEST wall
  // time yet must still sort first on a full tie.
  const std::vector<std::vector<MetricSample>> series{
      {sample(100, 7, 11, /*wallSeconds=*/9.0)},
      {sample(100, 7, 22, /*wallSeconds=*/1.0), sample(100, 9, 33)},
      {sample(100, 3, 44), sample(200, 1, 55)},
  };
  const std::vector<MetricSample> stitched = stitchSamples(series);
  ASSERT_EQ(stitched.size(), 5u);
  // virtualTime 100, events 3 (series 2) first.
  EXPECT_EQ(stitched[0].states, 44u);
  // Full tie at (100, 7): series 0 before series 1, wall time ignored.
  EXPECT_EQ(stitched[1].states, 11u);
  EXPECT_EQ(stitched[2].states, 22u);
  // (100, 9) after both, then virtualTime 200.
  EXPECT_EQ(stitched[3].states, 33u);
  EXPECT_EQ(stitched[4].states, 55u);
  // The virtual-time axis is sorted.
  for (std::size_t i = 1; i < stitched.size(); ++i)
    EXPECT_LE(stitched[i - 1].virtualTime, stitched[i].virtualTime);
}

TEST(Scenario, SummarizeReflectsEngine) {
  CollectScenarioConfig config;
  config.gridWidth = 2;
  config.gridHeight = 2;
  config.simulationTime = 2000;
  CollectScenario scenario(config);
  const auto result = scenario.run();
  EXPECT_EQ(result.states, scenario.engine().numStates());
  EXPECT_EQ(result.groups, scenario.engine().mapper().numGroups());
  EXPECT_EQ(result.events, scenario.engine().eventsProcessed());
  EXPECT_GT(result.packets, 0u);
  EXPECT_GT(result.memoryBytes, 0u);
}

// Real memory next to the simulated meter, in bytes: 32 MiB the
// process writes before the run and holds through it show in both the
// resident bytes and the high-water mark. (The kernel's counters are
// approximate, so the two readings are not compared with each other.)
TEST(Scenario, SummarizeReportsRealMemory) {
  constexpr std::size_t kHeld = std::size_t{32} << 20;
  const std::vector<char> held(kHeld, 1);
  CollectScenarioConfig config;
  config.gridWidth = 3;
  config.gridHeight = 3;
  config.simulationTime = 2000;
  CollectScenario scenario(config);
  const auto result = scenario.run();
  EXPECT_GE(result.residentBytes, kHeld);
  EXPECT_GE(result.peakResidentBytes, kHeld);
  EXPECT_EQ(held[kHeld / 2], 1);
}

TEST(Scenario, SourceAndSinkPlacementMatchesFigureNine) {
  CollectScenarioConfig config;
  config.gridWidth = 3;
  config.gridHeight = 3;
  CollectScenario scenario(config);
  EXPECT_EQ(scenario.sink(), 0u);        // top-left corner
  EXPECT_EQ(scenario.source(), 8u);      // bottom-right corner
}

TEST(Scenario, FloodScenarioRunsAllMappers) {
  for (const MapperKind kind :
       {MapperKind::kCob, MapperKind::kCow, MapperKind::kSds}) {
    FloodScenarioConfig config;
    config.nodes = 3;
    config.simulationTime = 1500;
    config.mapper = kind;
    FloodScenario scenario(config);
    const auto result = scenario.run();
    EXPECT_EQ(result.outcome, RunOutcome::kCompleted);
    EXPECT_GE(result.states, 3u);
  }
}

}  // namespace
}  // namespace sde::trace

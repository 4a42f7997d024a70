// fleetStatusJson validity battery — including the ISSUE 8 regression:
// a run directory with ZERO completed jobs must still emit parseable
// JSON (optional fields omitted, never half-emitted). The checker is a
// complete little recursive-descent JSON parser, so structural damage
// (trailing commas, bare values, unterminated strings) fails loudly.
#include "sde/fleet_status.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <string>

#include "obs/metrics.hpp"
#include "snapshot/manifest.hpp"

namespace sde {
namespace {

namespace fs = std::filesystem;

// --- a strict, minimal JSON parser (objects/arrays/strings/numbers) ---
struct JsonParser {
  std::string_view text;
  std::size_t pos = 0;

  void ws() {
    while (pos < text.size() && std::isspace(static_cast<unsigned char>(
                                    text[pos])) != 0)
      ++pos;
  }
  bool eat(char c) {
    ws();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }
  bool string() {
    ws();
    if (pos >= text.size() || text[pos] != '"') return false;
    ++pos;
    while (pos < text.size() && text[pos] != '"') {
      if (text[pos] == '\\') {
        ++pos;
        if (pos >= text.size()) return false;
      }
      ++pos;
    }
    if (pos >= text.size()) return false;
    ++pos;  // closing quote
    return true;
  }
  bool number() {
    ws();
    const std::size_t start = pos;
    if (pos < text.size() && text[pos] == '-') ++pos;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) != 0 ||
            text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
            text[pos] == '+' || text[pos] == '-'))
      ++pos;
    return pos > start;
  }
  bool value() {
    ws();
    if (pos >= text.size()) return false;
    const char c = text[pos];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string();
    return number();
  }
  bool object() {
    if (!eat('{')) return false;
    if (eat('}')) return true;
    do {
      if (!string()) return false;
      if (!eat(':')) return false;
      if (!value()) return false;
    } while (eat(','));
    return eat('}');
  }
  bool array() {
    if (!eat('[')) return false;
    if (eat(']')) return true;
    do {
      if (!value()) return false;
    } while (eat(','));
    return eat(']');
  }
  bool parseDocument() {
    if (!value()) return false;
    ws();
    return pos == text.size();
  }
};

bool validJson(const std::string& text) {
  JsonParser parser{text};
  return parser.parseDocument();
}

snapshot::RunManifest makeManifest(std::size_t jobs) {
  snapshot::RunManifest manifest;
  manifest.scenarioSpec = "collect v1 w=4 h=4 t=1000";
  manifest.horizon = 1000;
  manifest.plan.variables = {"f0", "f1"};
  for (std::size_t i = 0; i < jobs; ++i) {
    PartitionJob job;
    job.id = static_cast<std::uint32_t>(i);
    job.seed = 7 * i;
    job.forced = {{"f0", (i & 1) != 0}, {"f1", (i & 2) != 0}};
    manifest.plan.jobs.push_back(job);
  }
  return manifest;
}

class FleetStatusJson : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("sde_fleet_status_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

// The regression itself: every job pending (zero completed), JSON must
// parse and per-job rows must not carry meaningless fields.
TEST_F(FleetStatusJson, ZeroCompletedJobsEmitValidJson) {
  snapshot::writeManifest(dir_, makeManifest(4));
  const FleetRunStatus status = inspectFleetRun(dir_);
  EXPECT_EQ(status.done, 0u);
  EXPECT_EQ(status.pending, 4u);

  const std::string json = fleetStatusJson(status);
  EXPECT_TRUE(validJson(json)) << json;
  EXPECT_NE(json.find("\"jobsTotal\":4"), std::string::npos);
  EXPECT_NE(json.find("{\"id\":0,\"state\":\"pending\"}"), std::string::npos);
  // Omit-empty: pending rows carry no states/virtualNow, and no metrics
  // object exists without a sidecar.
  EXPECT_EQ(json.find("virtualNow"), std::string::npos);
  EXPECT_EQ(json.find("\"states\""), std::string::npos);
  EXPECT_EQ(json.find("\"metrics\""), std::string::npos);
}

TEST_F(FleetStatusJson, EmptyScenarioSpecIsOmittedNotEmitted) {
  snapshot::RunManifest manifest = makeManifest(1);
  manifest.scenarioSpec.clear();
  snapshot::writeManifest(dir_, manifest);
  const std::string json = fleetStatusJson(inspectFleetRun(dir_));
  EXPECT_TRUE(validJson(json)) << json;
  EXPECT_EQ(json.find("\"scenario\""), std::string::npos);
}

TEST_F(FleetStatusJson, DoneJobsCarryStatesAndMetricsObjectRides) {
  snapshot::writeManifest(dir_, makeManifest(2));
  JobResult result;
  result.jobId = 1;
  result.outcome = RunOutcome::kCompleted;
  result.states = 37;
  snapshot::writeJobResultFile(snapshot::jobDonePath(dir_, 1), result);

  using support::StatsRegistry;
  StatsRegistry reg;
  reg.add(StatsRegistry::id("engine.forks_total"), 12);
  reg.observe(StatsRegistry::id("solver.layer.cache.latency_ns",
                                support::MetricKind::kHistogram),
              256);
  {
    std::ofstream os(snapshot::metricsSnapshotPath(dir_), std::ios::binary);
    os << obs::encodeMetricsSnapshot(obs::snapshotFromStats(reg));
  }

  const FleetRunStatus status = inspectFleetRun(dir_);
  EXPECT_EQ(status.done, 1u);
  EXPECT_EQ(status.pending, 1u);
  ASSERT_TRUE(status.hasMetrics);

  const std::string json = fleetStatusJson(status);
  EXPECT_TRUE(validJson(json)) << json;
  EXPECT_NE(json.find("{\"id\":1,\"state\":\"done\",\"states\":37}"),
            std::string::npos);
  EXPECT_NE(json.find("\"engine.forks_total\":12"), std::string::npos);
  // Histograms render as an object with count/sum/quantiles.
  EXPECT_NE(json.find("\"solver.layer.cache.latency_ns\":{\"count\":1"),
            std::string::npos);
}

TEST_F(FleetStatusJson, EscapesHostileStringsIntoValidJson) {
  snapshot::RunManifest manifest = makeManifest(1);
  manifest.scenarioSpec = "spec with \"quotes\"\nnewline\tand \\backslash";
  snapshot::writeManifest(dir_, manifest);
  const std::string json = fleetStatusJson(inspectFleetRun(dir_));
  EXPECT_TRUE(validJson(json)) << json;
}

}  // namespace
}  // namespace sde

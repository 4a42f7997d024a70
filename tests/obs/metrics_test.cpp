// MetricsSnapshot battery: the shared max-vs-sum fold rule against
// StatsRegistry::mergeFrom (the 4-worker peak regression of the first
// metrics plane), rendering a registry into a snapshot, codec roundtrip
// fuzz with truncation/magic/version rejection, quantiles and the
// Prometheus exposition.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>

#include "snapshot/error.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace sde::obs {
namespace {

using support::StatsRegistry;

// The 4-worker peak regression: a *.peak_* gauge folds with max across
// fleet workers, and the metrics-side fold agrees exactly with
// StatsRegistry::mergeFrom because both run through support::foldCounter.
TEST(MetricsSnapshot, PeakGaugeFoldsWithMaxAcrossFourWorkers) {
  const std::uint64_t peaks[4] = {120, 450, 90, 301};
  const std::uint64_t forks[4] = {10, 20, 30, 40};

  MetricsSnapshot merged;
  StatsRegistry mergedStats;
  for (int w = 0; w < 4; ++w) {
    StatsRegistry workerStats;
    workerStats.maxOf(StatsRegistry::id("engine.peak_states"), peaks[w]);
    workerStats.add(StatsRegistry::id("engine.forks_total"), forks[w]);
    merged.merge(snapshotFromStats(workerStats));
    mergedStats.mergeFrom(workerStats);
  }

  EXPECT_EQ(merged.value("engine.peak_states"), 450u);  // max, not 961
  EXPECT_EQ(merged.value("engine.forks_total"), 100u);  // sum
  for (const auto& [name, value] : mergedStats.all())
    EXPECT_EQ(merged.value(name), value) << name;
}

TEST(MetricsSnapshot, MergeAddsHistogramsAndAdoptMissingKeepsExisting) {
  const StatsRegistry::Id h =
      StatsRegistry::id("h", support::MetricKind::kHistogram);
  StatsRegistry a;
  a.observe(h, 5);
  a.observe(h, 6);
  StatsRegistry b;
  b.observe(h, 1000);

  MetricsSnapshot merged = snapshotFromStats(a);
  merged.merge(snapshotFromStats(b));
  EXPECT_EQ(merged.find("h")->histogram.count, 3u);
  EXPECT_EQ(merged.find("h")->histogram.sum, 1011u);

  MetricsSnapshot exact;
  MetricPoint point;
  point.kind = MetricKind::kCounter;
  point.value = 7;
  exact.points.emplace("x", point);
  MetricsSnapshot live;
  point.value = 99;
  live.points.emplace("x", point);
  point.value = 3;
  live.points.emplace("y", point);
  exact.adoptMissing(live);
  EXPECT_EQ(exact.value("x"), 7u);  // exact entry wins
  EXPECT_EQ(exact.value("y"), 3u);  // absent name adopted
}

TEST(MetricsSnapshot, SnapshotFromStatsLiftsPeaksToGaugesVerbatim) {
  StatsRegistry stats;
  stats.add(StatsRegistry::id("engine.forks"), 17);
  stats.maxOf(StatsRegistry::id("engine.peak_memory_bytes"), 123456);
  const MetricsSnapshot snap = snapshotFromStats(stats);
  EXPECT_EQ(snap.find("engine.forks")->kind, MetricKind::kCounter);
  EXPECT_EQ(snap.find("engine.peak_memory_bytes")->kind, MetricKind::kGauge);
  EXPECT_EQ(snap.value("engine.forks"), 17u);
  EXPECT_EQ(snap.value("engine.peak_memory_bytes"), 123456u);
}

TEST(MetricsCodec, RoundtripFuzz) {
  support::Rng rng(0xC0DECu);
  for (int round = 0; round < 200; ++round) {
    MetricsSnapshot snap;
    const std::size_t n = rng.below(20);
    for (std::size_t i = 0; i < n; ++i) {
      MetricPoint point;
      const std::uint64_t kindPick = rng.below(3);
      point.kind = static_cast<MetricKind>(kindPick);
      if (point.kind == MetricKind::kHistogram) {
        const std::size_t observations = rng.below(50);
        for (std::size_t o = 0; o < observations; ++o)
          point.histogram.observe(rng.next() >> rng.below(64));
      } else {
        point.value = rng.next();
      }
      snap.points.insert_or_assign(
          "m." + std::to_string(rng.below(1000)), point);
    }
    const std::string bytes = encodeMetricsSnapshot(snap);
    const MetricsSnapshot back = decodeMetricsSnapshot(bytes);
    ASSERT_EQ(back.points.size(), snap.points.size());
    for (const auto& [name, point] : snap.points) {
      const MetricPoint* decoded = back.find(name);
      ASSERT_NE(decoded, nullptr) << name;
      EXPECT_EQ(decoded->kind, point.kind);
      EXPECT_EQ(decoded->value, point.value);
      EXPECT_EQ(decoded->histogram.count, point.histogram.count);
      EXPECT_EQ(decoded->histogram.sum, point.histogram.sum);
      EXPECT_EQ(decoded->histogram.buckets, point.histogram.buckets);
    }
    // Deterministic encoding: same snapshot, same bytes.
    EXPECT_EQ(encodeMetricsSnapshot(back), bytes);
  }
}

TEST(MetricsCodec, RejectsTruncationMagicAndVersion) {
  StatsRegistry reg;
  reg.add(StatsRegistry::id("a"), 1);
  reg.observe(StatsRegistry::id("b", support::MetricKind::kHistogram), 500);
  const std::string bytes = encodeMetricsSnapshot(snapshotFromStats(reg));

  // Truncation at every prefix length must throw, never crash or
  // fabricate data.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut)
    EXPECT_THROW((void)decodeMetricsSnapshot(bytes.substr(0, cut)),
                 snapshot::SnapshotError)
        << "prefix " << cut;

  std::string foreign = bytes;
  foreign[0] ^= 0xFF;
  EXPECT_THROW((void)decodeMetricsSnapshot(foreign), snapshot::SnapshotError);

  std::string versioned = bytes;
  versioned[kMetricsMagic.size()] =
      static_cast<char>(kMetricsVersion + 1);  // bump the version field
  EXPECT_THROW((void)decodeMetricsSnapshot(versioned),
               snapshot::SnapshotError);
}

TEST(MetricsHistogram, QuantileHitsBucketUpperBounds) {
  MetricPoint point;
  point.kind = MetricKind::kHistogram;
  for (int i = 0; i < 90; ++i) point.histogram.observe(3);    // bucket 2
  for (int i = 0; i < 10; ++i) point.histogram.observe(1000);  // bucket 10
  ASSERT_EQ(histogramBucketBound(histogramBucketOf(3)), 3u);
  ASSERT_EQ(histogramBucketBound(histogramBucketOf(1000)), 1023u);
  EXPECT_EQ(histogramQuantile(point, 0.5), 3u);
  EXPECT_EQ(histogramQuantile(point, 0.9), 3u);
  EXPECT_EQ(histogramQuantile(point, 0.95), 1023u);
  EXPECT_EQ(histogramQuantile(point, 1.0), 1023u);
  MetricPoint empty;
  empty.kind = MetricKind::kHistogram;
  EXPECT_EQ(histogramQuantile(empty, 0.5), 0u);
}

TEST(MetricsPrometheus, RendersFamiliesTenantsAndHistograms) {
  StatsRegistry reg;
  reg.add(StatsRegistry::id("engine.forks_total"), 5);
  reg.add(StatsRegistry::id("serve.tenant.alice.preemptions"), 2);
  reg.add(StatsRegistry::id("serve.tenant.bob.preemptions"), 3);
  reg.observe(StatsRegistry::id("solver.layer.cache.latency_ns",
                                support::MetricKind::kHistogram),
              100);
  const std::string text = renderPrometheus(snapshotFromStats(reg));

  EXPECT_NE(text.find("# TYPE sde_engine_forks_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("sde_engine_forks_total 5\n"), std::string::npos);
  // Tenant series collapse into one labelled family with ONE TYPE line.
  EXPECT_NE(text.find("sde_serve_preemptions{tenant=\"alice\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("sde_serve_preemptions{tenant=\"bob\"} 3\n"),
            std::string::npos);
  EXPECT_EQ(text.find("# TYPE sde_serve_preemptions counter"),
            text.rfind("# TYPE sde_serve_preemptions counter"));
  // Histogram: cumulative buckets, +Inf, sum and count.
  EXPECT_NE(text.find("sde_solver_layer_cache_latency_ns_bucket{le=\"127\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("sde_solver_layer_cache_latency_ns_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("sde_solver_layer_cache_latency_ns_sum 100"),
            std::string::npos);
  EXPECT_NE(text.find("sde_solver_layer_cache_latency_ns_count 1"),
            std::string::npos);

  // Every exposed line is `name{labels} value` over the allowed charset
  // — a cheap "Prometheus parses this" gate.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string name = line.substr(0, line.find_first_of(" {"));
    for (char c : name)
      EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == ':')
          << line;
  }
}

// Tenant names may contain dots (validateJobSpec accepts any non-empty
// tenant); the per-tenant series names are single words, so the split is
// at the last dot. Each family renders as one group under one TYPE line
// even though its tenants' series interleave in name order.
TEST(MetricsPrometheus, DottedTenantsKeepTheirLabelAndFamiliesStayGrouped) {
  MetricsSnapshot snap;
  const auto counter = [&snap](const std::string& name, std::uint64_t value) {
    MetricPoint point;
    point.value = value;
    snap.points.emplace(name, point);
  };
  counter("serve.tenant.team.a.jobs_submitted", 2);
  counter("serve.tenant.team.a.preemptions", 1);
  counter("serve.tenant.zed.jobs_submitted", 5);
  counter("serve.tenant.zed.preemptions", 4);
  const std::string text = renderPrometheus(snap);

  EXPECT_NE(text.find("sde_serve_jobs_submitted{tenant=\"team.a\"} 2\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("sde_serve_preemptions{tenant=\"team.a\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("tenant=\"team\""), std::string::npos) << text;
  for (const std::string family :
       {"sde_serve_jobs_submitted", "sde_serve_preemptions"}) {
    const std::string type = "# TYPE " + family + " counter\n";
    const std::size_t at = text.find(type);
    ASSERT_NE(at, std::string::npos) << text;
    EXPECT_EQ(at, text.rfind(type)) << text;
    // Both tenants' samples follow their family's TYPE line directly.
    const std::size_t first = at + type.size();
    const std::size_t second = text.find('\n', first) + 1;
    const std::size_t end = text.find('\n', second) + 1;
    EXPECT_EQ(text.compare(first, family.size(), family), 0) << text;
    EXPECT_EQ(text.compare(second, family.size(), family), 0) << text;
    EXPECT_TRUE(end == text.size() || text.compare(end, 1, "#") == 0)
        << text;
  }
}

// The split sde_top shares with the exposition.
TEST(MetricsPrometheus, TenantSeriesSplitAtTheLastDot) {
  std::string_view tenant;
  std::string_view series;
  ASSERT_TRUE(
      splitTenantSeries("serve.tenant.team.a.queue_wait_ms", tenant, series));
  EXPECT_EQ(tenant, "team.a");
  EXPECT_EQ(series, "queue_wait_ms");
  EXPECT_FALSE(splitTenantSeries("serve.tenant.alice", tenant, series));
  EXPECT_FALSE(splitTenantSeries("serve.slots_total", tenant, series));
}

}  // namespace
}  // namespace sde::obs

// The counter store (support/stats.hpp): process-wide interned ids,
// presence ("counted at least once, even by 0"), the max-vs-sum merge
// rule, histograms that stay out of the post-run renderings, and
// interning from several threads at once.
#include "support/stats.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "support/thread_pool.hpp"

namespace sde::support {
namespace {

using Id = StatsRegistry::Id;

// The kind each written series renders with (series()).
MetricKind kindOf(const StatsRegistry& stats, const std::string& name) {
  for (const auto& series : stats.series())
    if (series.name == name) return series.kind;
  ADD_FAILURE() << name << " not rendered";
  return MetricKind::kCounter;
}

TEST(Stats, BumpAndGet) {
  StatsRegistry stats;
  EXPECT_EQ(stats.get("x"), 0u);
  stats.add(StatsRegistry::id("x"));
  stats.add(StatsRegistry::id("x"), 4);
  EXPECT_EQ(stats.get("x"), 5u);
  EXPECT_EQ(stats.get(StatsRegistry::id("x")), 5u);
}

TEST(Stats, MaxOfKeepsMaximum) {
  StatsRegistry stats;
  const Id peak = StatsRegistry::id("peak");
  stats.maxOf(peak, 10);
  stats.maxOf(peak, 3);
  stats.maxOf(peak, 12);
  EXPECT_EQ(stats.get("peak"), 12u);
}

TEST(Stats, IsPeakCounterMatchesAPeakNameComponent) {
  EXPECT_TRUE(isPeakCounter("engine.peak_states"));
  EXPECT_TRUE(isPeakCounter("engine.peak_memory_bytes"));
  EXPECT_TRUE(isPeakCounter("peak"));
  EXPECT_TRUE(isPeakCounter("peak_states"));
  EXPECT_TRUE(isPeakCounter("a.peak.b"));
  // Substring hits inside a component are NOT peaks: these are running
  // totals and must be summed by mergeFrom.
  EXPECT_FALSE(isPeakCounter("solver.peakiness"));
  EXPECT_FALSE(isPeakCounter("engine.speaker_events"));
  EXPECT_FALSE(isPeakCounter("engine.repeak"));
  EXPECT_FALSE(isPeakCounter(""));
  EXPECT_FALSE(isPeakCounter("engine.forks_total"));
  EXPECT_FALSE(isPeakCounter("engine.PEAK_states"));  // case-sensitive
}

TEST(Stats, MergeFromSumsCountersThatMerelyContainPeak) {
  // Regression: "speaker" contains "peak" as a substring; a naive
  // substring rule would max-fold it and a fleet of workers would
  // under-report the total.
  StatsRegistry a;
  StatsRegistry b;
  a.add(StatsRegistry::id("engine.speaker_events"), 5);
  b.add(StatsRegistry::id("engine.speaker_events"), 3);
  a.mergeFrom(b);
  EXPECT_EQ(a.get("engine.speaker_events"), 8u);  // summed, not max(5,3)
}

TEST(Stats, MergeFromMaxesPeaksAndSumsTheRest) {
  StatsRegistry a;
  StatsRegistry b;
  a.set(StatsRegistry::id("engine.peak_states"), 10);
  b.set(StatsRegistry::id("engine.peak_states"), 7);
  a.add(StatsRegistry::id("engine.forks_total"), 5);
  b.add(StatsRegistry::id("engine.forks_total"), 3);
  b.add(StatsRegistry::id("only.in.other"), 2);
  a.mergeFrom(b);
  EXPECT_EQ(a.get("engine.peak_states"), 10u);  // fleet peak: max, not 17
  EXPECT_EQ(a.get("engine.forks_total"), 8u);   // running total: sum
  EXPECT_EQ(a.get("only.in.other"), 2u);

  // A peak missing on the left adopts the right-hand value unchanged.
  StatsRegistry c;
  c.mergeFrom(a);
  EXPECT_EQ(c.get("engine.peak_states"), 10u);
}

TEST(Stats, ReportListsAllCountersSorted) {
  StatsRegistry stats;
  stats.add(StatsRegistry::id("b"));
  stats.add(StatsRegistry::id("a"), 2);
  EXPECT_EQ(stats.report(), "a = 2\nb = 1\n");
}

TEST(Stats, RenderingsSortByNameNotByInterningOrder) {
  StatsRegistry stats;
  // Interned in reverse byte order on purpose.
  stats.add(StatsRegistry::id("stats_test.order.z"), 1);
  stats.add(StatsRegistry::id("stats_test.order.Z"), 2);
  stats.add(StatsRegistry::id("stats_test.order.a"), 3);
  EXPECT_EQ(stats.report(),
            "stats_test.order.Z = 2\nstats_test.order.a = 3\n"
            "stats_test.order.z = 1\n");
  const auto series = stats.series();
  ASSERT_EQ(series.size(), 3u);
  EXPECT_EQ(series[0].name, "stats_test.order.Z");
  EXPECT_EQ(series[2].name, "stats_test.order.z");
}

TEST(Stats, CountedByZeroRendersUncountedDoesNot) {
  const Id zero = StatsRegistry::id("stats_test.presence.zero");
  const Id interned = StatsRegistry::id("stats_test.presence.interned");
  StatsRegistry stats;
  stats.add(zero, 0);
  EXPECT_EQ(stats.all().count("stats_test.presence.zero"), 1u);
  EXPECT_EQ(stats.all().at("stats_test.presence.zero"), 0u);
  // Interned (even by this registry's neighbours) but never written here.
  StatsRegistry other;
  other.add(interned);
  EXPECT_EQ(stats.all().count("stats_test.presence.interned"), 0u);
  EXPECT_EQ(stats.report(), "stats_test.presence.zero = 0\n");
  // set and maxOf count too, even when they leave 0 behind.
  StatsRegistry viaMax;
  viaMax.maxOf(StatsRegistry::id("stats_test.presence.peak_x"), 0);
  EXPECT_EQ(viaMax.all().size(), 1u);
  // And a merge carries presence along.
  StatsRegistry merged;
  merged.mergeFrom(stats);
  EXPECT_EQ(merged.all(), stats.all());
}

// Ported from the deleted live registry: interning is idempotent and
// process-wide, and the kind is fixed by the name (peak names are
// gauges) unless given when the name is first interned.
TEST(Stats, IdsAreProcessWideAndKindsFollowTheName) {
  const Id forks = StatsRegistry::id("engine.forks_total");
  EXPECT_EQ(forks, StatsRegistry::id("engine.forks_total"));
  EXPECT_EQ(forks, statId<"engine.forks_total">());
  const Id peak = StatsRegistry::id("engine.peak_states");
  const Id slots =
      StatsRegistry::id("stats_test.kind.slots", MetricKind::kGauge);
  EXPECT_NE(forks, peak);

  StatsRegistry stats;
  stats.add(forks);
  stats.add(forks, 41);
  stats.set(peak, 10);
  stats.maxOf(peak, 7);   // lower: ignored
  stats.maxOf(peak, 25);  // higher: taken
  stats.set(slots, 3);
  EXPECT_EQ(stats.get("engine.forks_total"), 42u);
  EXPECT_EQ(stats.get("engine.peak_states"), 25u);
  EXPECT_EQ(kindOf(stats, "engine.forks_total"), MetricKind::kCounter);
  EXPECT_EQ(kindOf(stats, "engine.peak_states"), MetricKind::kGauge);
  EXPECT_EQ(kindOf(stats, "stats_test.kind.slots"), MetricKind::kGauge);

  // Another registry addresses the same cells by the same ids.
  StatsRegistry other;
  other.add(forks, 8);
  EXPECT_EQ(other.get("engine.forks_total"), 8u);
}

TEST(Stats, HistogramObservationsLandInLog2Buckets) {
  const Id lat = StatsRegistry::id("stats_test.cache.latency_ns",
                                   MetricKind::kHistogram);
  StatsRegistry stats;
  stats.observe(lat, 0);
  stats.observe(lat, 1);
  stats.observe(lat, 2);
  stats.observe(lat, 3);
  stats.observe(lat, 1024);

  const auto series = stats.series();
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].kind, MetricKind::kHistogram);
  ASSERT_NE(series[0].histogram, nullptr);
  const Histogram& h = *series[0].histogram;
  EXPECT_EQ(h.count, 5u);
  EXPECT_EQ(h.sum, 1030u);
  EXPECT_EQ(h.buckets[0], 1u);   // value 0
  EXPECT_EQ(h.buckets[1], 1u);   // value 1
  EXPECT_EQ(h.buckets[2], 2u);   // values 2, 3
  EXPECT_EQ(h.buckets[11], 1u);  // 1024 = 2^10 -> bucket 11
}

TEST(Stats, HistogramsNeverReachThePostRunRenderings) {
  const Id lat = StatsRegistry::id("stats_test.hidden.latency_ns",
                                   MetricKind::kHistogram);
  StatsRegistry stats;
  stats.add(StatsRegistry::id("stats_test.hidden.queries"), 2);
  stats.observe(lat, 100);
  stats.observe(lat, 300);
  EXPECT_EQ(stats.all().size(), 1u);
  EXPECT_EQ(stats.report(), "stats_test.hidden.queries = 2\n");
  EXPECT_EQ(stats.get("stats_test.hidden.latency_ns"), 0u);
  EXPECT_EQ(stats.series().size(), 2u);

  // mergeFrom adds histograms, and they stay out of all() there too.
  StatsRegistry merged;
  merged.mergeFrom(stats);
  merged.mergeFrom(stats);
  EXPECT_EQ(merged.all(), (std::map<std::string, std::uint64_t>{
                              {"stats_test.hidden.queries", 4}}));
  for (const auto& series : merged.series()) {
    if (series.histogram == nullptr) continue;
    EXPECT_EQ(series.histogram->count, 4u);
    EXPECT_EQ(series.histogram->sum, 800u);
  }
}

// Ported from the deleted live registry's reset: clearing a registry
// forgets its values (and presence); ids stay valid.
TEST(Stats, ClearForgetsValuesButKeepsIds) {
  const Id c = StatsRegistry::id("stats_test.clear.b");
  const Id h =
      StatsRegistry::id("stats_test.clear.h", MetricKind::kHistogram);
  StatsRegistry stats;
  stats.add(c, 9);
  stats.observe(h, 100);
  stats.clear();
  EXPECT_TRUE(stats.series().empty());
  EXPECT_EQ(stats.get("stats_test.clear.b"), 0u);
  stats.add(c, 3);
  EXPECT_EQ(stats.get(c), 3u);
  EXPECT_EQ(StatsRegistry::id("stats_test.clear.b"), c);
}

// The name table is the only structure registries share: pool threads,
// each writing its own registry, intern shared and fresh names at once
// and all agree on every id.
TEST(Stats, PoolThreadsInternSharedAndFreshNamesConcurrently) {
  constexpr unsigned kThreads = 8;
  constexpr unsigned kNames = 64;
  std::vector<StatsRegistry> registries(kThreads);
  std::vector<std::vector<Id>> sharedIds(kThreads);
  {
    ThreadPool pool(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
      pool.submit([&, t] {
        for (unsigned n = 0; n < kNames; ++n) {
          const Id shared =
              StatsRegistry::id("stats_test.pool.shared." + std::to_string(n));
          sharedIds[t].push_back(shared);
          registries[t].add(shared, t + 1);
          registries[t].add(StatsRegistry::id("stats_test.pool.t" +
                                              std::to_string(t) + "." +
                                              std::to_string(n)));
        }
      });
    }
    pool.wait();
  }
  StatsRegistry total;
  for (unsigned t = 0; t < kThreads; ++t) {
    EXPECT_EQ(sharedIds[t], sharedIds[0]);
    EXPECT_EQ(registries[t].all().size(), 2 * kNames);
    total.mergeFrom(registries[t]);
  }
  // 1 + 2 + ... + 8 per shared name; one count per fresh name.
  EXPECT_EQ(total.get("stats_test.pool.shared.0"), 36u);
  EXPECT_EQ(total.get("stats_test.pool.t7.63"), 1u);
  EXPECT_EQ(total.all().size(), kNames + kThreads * kNames);
}

}  // namespace
}  // namespace sde::support

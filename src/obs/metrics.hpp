// Live metrics plane, part 1: snapshots.
//
// The numbers themselves live in support::StatsRegistry, the one
// counter store (support/stats.hpp). A MetricsSnapshot is its rendering
// for consumers outside the owning thread and process: plain values
// keyed by name, with merge semantics that reuse the store's max-vs-sum
// rule via support::foldCounter — a name with a "peak"/"peak_*"
// component folds with max, everything else with +; histogram counts,
// sums and buckets always add. The snapshot has a compact binary codec
// (magic-tagged, versioned, truncation-checked — snapshot dialect) so it
// can cross process boundaries through the shm plane
// (obs/metrics_shm.hpp), the serve wire protocol, and durable
// metrics.sde sidecars, plus a Prometheus text exposition for
// operators.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "support/stats.hpp"

namespace sde::obs {

using support::histogramBucketBound;
using support::histogramBucketOf;
using support::kHistogramBuckets;
using support::MetricKind;

// One metric in a snapshot: a plain value, no atomics.
struct MetricPoint {
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t value = 0;       // counter / gauge
  support::Histogram histogram;  // histogram
};

// A copy of a registry's series (snapshotFromStats, taken on the thread
// that owns the registry), keyed by name so merges are positional-
// independent. This is the unit that crosses processes.
class MetricsSnapshot {
 public:
  std::map<std::string, MetricPoint, std::less<>> points;

  // Folds `other` in. Scalars (counters and gauges) follow the
  // store's rule via support::foldCounter — max for peak-named
  // metrics, sum otherwise. Histograms add count/sum/buckets. A kind
  // mismatch keeps the existing entry's kind and folds scalars only.
  void merge(const MetricsSnapshot& other);

  // Adopts only entries whose names are absent here. Used where an
  // exact source of truth (post-run StatsRegistry) must win over the
  // live plane for overlapping names.
  void adoptMissing(const MetricsSnapshot& other);

  [[nodiscard]] std::uint64_t value(std::string_view name) const;
  [[nodiscard]] const MetricPoint* find(std::string_view name) const;
  [[nodiscard]] bool empty() const { return points.empty(); }
};

// Estimate of the q-quantile (q in [0,1]) of a histogram: the inclusive
// upper bound of the first bucket whose cumulative count reaches
// q * count. Returns 0 for an empty histogram.
[[nodiscard]] std::uint64_t histogramQuantile(const MetricPoint& point,
                                              double q);

// Binary codec (snapshot dialect). Throws snapshot::SnapshotError on a
// truncated, foreign or version-mismatched blob.
inline constexpr std::string_view kMetricsMagic = "SDEMETRX";
inline constexpr std::uint32_t kMetricsVersion = 1;

[[nodiscard]] std::string encodeMetricsSnapshot(const MetricsSnapshot& snap);
[[nodiscard]] MetricsSnapshot decodeMetricsSnapshot(std::string_view bytes);

// Renders a registry into the metrics value space: every written series
// with its kind (peak counters are gauges unless interned otherwise),
// histograms included. Values are copied verbatim, so re-encoding a
// completed job's merged stats through this lens preserves every total
// bit-for-bit.
[[nodiscard]] MetricsSnapshot snapshotFromStats(
    const support::StatsRegistry& stats);

// Splits "serve.tenant.<tenant>.<series>" into its tenant and series
// parts (false for any other name). The series part is one word, so the
// split is at the last dot: a tenant name may itself contain dots.
[[nodiscard]] bool splitTenantSeries(std::string_view name,
                                     std::string_view& tenant,
                                     std::string_view& series);

// Prometheus text exposition. Names are sanitised to [a-zA-Z0-9_:] and
// prefixed "sde_"; a "serve.tenant.<t>.<series>" name becomes
// sde_serve_<series>{tenant="<t>"} so per-tenant series share one metric
// family, rendered as one group under one # TYPE line. Histograms render
// cumulative _bucket{le=...} plus _sum/_count.
[[nodiscard]] std::string renderPrometheus(const MetricsSnapshot& snap);

}  // namespace sde::obs

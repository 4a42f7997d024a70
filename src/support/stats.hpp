// The counter store. Engine components count into it (solver queries,
// cache hits, forks, mapping invocations, duplicated states); benches and
// tests read it to validate behaviour, not just outputs — e.g. "SDS
// forked zero bystanders" — and every post-run and live rendering of a
// run's numbers (stats.txt, checkpoint and .done stats sections, the
// fingerprint digest, the metrics snapshots of the live plane) is a view
// of it.
//
// Names are interned once per process into dense ids (a locked,
// process-wide table); a write is an array add on the registry's cells,
// so no string is built and no map is searched on a hot path. Reads by
// name, renderings and merges consult the table and are cold. A registry
// belongs to one thread: cells are plain words, and the name table is the
// only shared structure.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace sde::support {

// Is `name` a high-water-mark counter? The rule is a *component* match:
// a counter records a maximum iff some dot-separated component of its
// name starts with "peak_" or is exactly "peak" (e.g.
// "engine.peak_states", "engine.peak_memory_bytes"). Aggregation
// (StatsRegistry::mergeFrom) folds such counters with max instead of +:
// a fleet's peak is the largest worker's peak, not their sum. A mere
// substring match would be too loose — e.g. a hypothetical
// "engine.speaker_events" is a running total and must be summed.
[[nodiscard]] inline bool isPeakCounter(std::string_view name) {
  std::size_t pos = 0;
  while (pos <= name.size()) {
    const std::size_t dot = name.find('.', pos);
    const std::string_view component =
        name.substr(pos, dot == std::string_view::npos ? dot : dot - pos);
    if (component == "peak" || component.substr(0, 5) == "peak_") return true;
    if (dot == std::string_view::npos) break;
    pos = dot + 1;
  }
  return false;
}

// The single aggregation rule for named counters, shared by
// StatsRegistry::mergeFrom and the metrics plane's snapshot merge
// (obs/metrics.hpp): fold `value` into `slot`, taking the max for
// high-water marks and the sum for everything else. Keeping the rule in
// one place is what makes "fleet totals" mean the same thing whether
// they were folded from post-run registries or live metrics snapshots.
inline void foldCounter(std::string_view name, std::uint64_t& slot,
                        std::uint64_t value) {
  if (isPeakCounter(name)) {
    if (value > slot) slot = value;
  } else {
    slot += value;
  }
}

// The three kinds a series renders as in a metrics snapshot:
//
//   * counter   — monotonic running total (engine.forks_total),
//   * gauge     — last-write or high-water value (engine.peak_states),
//   * histogram — fixed log2 buckets + count + sum, for latency
//                 distributions (solver.layer.interval.latency_ns).
enum class MetricKind : std::uint8_t {
  kCounter = 0,
  kGauge = 1,
  kHistogram = 2,
};

// Log2 bucketing: bucket 0 holds the value 0, bucket i (i >= 1) holds
// values in [2^(i-1), 2^i - 1]. A u64 value always lands in a bucket —
// bit_width(v) <= 64 — so there are 65 buckets and no clamping.
inline constexpr std::size_t kHistogramBuckets = 65;

[[nodiscard]] constexpr std::size_t histogramBucketOf(std::uint64_t value) {
  std::size_t width = 0;
  while (value != 0) {
    value >>= 1;
    ++width;
  }
  return width;
}

// Inclusive upper bound of a bucket (the Prometheus `le` edge).
// Bucket 64's bound is UINT64_MAX.
[[nodiscard]] constexpr std::uint64_t histogramBucketBound(std::size_t bucket) {
  if (bucket == 0) return 0;
  if (bucket >= 64) return ~std::uint64_t{0};
  return (std::uint64_t{1} << bucket) - 1;
}

struct Histogram {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  void observe(std::uint64_t value) {
    ++count;
    sum += value;
    ++buckets[histogramBucketOf(value)];
  }
  void merge(const Histogram& other) {
    count += other.count;
    sum += other.sum;
    for (std::size_t i = 0; i < kHistogramBuckets; ++i)
      buckets[i] += other.buckets[i];
  }
};

class StatsRegistry {
 public:
  using Id = std::uint32_t;

  // Interns `name` into the process-wide table: the same name has the
  // same id in every registry of the process (fork()ed children inherit
  // the table). The first interning fixes the series' kind; by default a
  // high-water mark is a gauge and everything else a counter. Locked and
  // allocating — intern once per call site (statId below) or on cold
  // paths only.
  [[nodiscard]] static Id id(std::string_view name, MetricKind kind);
  [[nodiscard]] static Id id(std::string_view name) {
    return id(name, isPeakCounter(name) ? MetricKind::kGauge
                                        : MetricKind::kCounter);
  }

  // Writes. A write counts the series even when it adds 0: a series is
  // rendered iff it was written at least once.
  void add(Id id, std::uint64_t delta = 1) { counted(id).value += delta; }
  void set(Id id, std::uint64_t value) { counted(id).value = value; }
  void maxOf(Id id, std::uint64_t value) {
    Cell& c = counted(id);
    if (value > c.value) c.value = value;
  }
  // A histogram observation (count, sum and log2 bucket). Histograms
  // reach only metrics snapshots (series()); the post-run renderings
  // below carry scalars only.
  void observe(Id id, std::uint64_t value);

  // Reads. A scalar series' value (0 when unwritten or a histogram).
  [[nodiscard]] std::uint64_t get(Id id) const {
    return id < cells_.size() && cells_[id].histogram == 0 ? cells_[id].value
                                                           : 0;
  }
  // Cold reads by name. Renderings are sorted by name, byte-wise.
  [[nodiscard]] std::uint64_t get(std::string_view name) const;
  [[nodiscard]] std::map<std::string, std::uint64_t> all() const;
  // "name = value" lines of all().
  [[nodiscard]] std::string report() const;

  // Aggregates a per-worker registry into this one: counters are
  // summed, except high-water marks (isPeakCounter), which take the
  // maximum — a fleet's peak is the largest worker's peak, not their
  // sum. Histograms add.
  void mergeFrom(const StatsRegistry& other);

  void clear() {
    cells_.clear();
    histograms_.clear();
  }

  // Every written series, histograms included, sorted by name: what a
  // metrics snapshot carries (obs::snapshotFromStats). `histogram` is
  // set for histograms and points into this registry.
  struct Series {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    std::uint64_t value = 0;
    const Histogram* histogram = nullptr;
  };
  [[nodiscard]] std::vector<Series> series() const;

 private:
  struct Cell {
    std::uint64_t value = 0;
    std::uint32_t histogram = 0;  // 1 + index into histograms_, 0 = none
    bool counted = false;
  };

  // The cell of `id`, marked written; storage grows on the first write.
  Cell& counted(Id id) {
    if (id >= cells_.size()) grow(id);
    Cell& c = cells_[id];
    c.counted = true;
    return c;
  }
  void grow(Id id);
  Histogram& histogramOf(Cell& c);

  std::vector<Cell> cells_;
  std::vector<Histogram> histograms_;
};

// A literal series name as a template argument (statId below).
template <std::size_t N>
struct StatName {
  constexpr StatName(const char (&text)[N]) { std::copy_n(text, N, chars); }
  [[nodiscard]] constexpr std::string_view view() const {
    return {chars, N - 1};
  }
  char chars[N];
};

// The id of a literal series name, interned on the first call:
//   stats.add(support::statId<"engine.forks_total">());
template <StatName Name>
[[nodiscard]] StatsRegistry::Id statId() {
  static const StatsRegistry::Id id = StatsRegistry::id(Name.view());
  return id;
}

}  // namespace sde::support

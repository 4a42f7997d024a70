#include "obs/metrics.hpp"

#include <algorithm>
#include <sstream>

#include "snapshot/error.hpp"
#include "snapshot/reader.hpp"
#include "snapshot/writer.hpp"

namespace sde::obs {

// ---------------------------------------------------------------------------
// MetricsSnapshot

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const auto& [name, point] : other.points) {
    auto [it, inserted] = points.try_emplace(name);
    MetricPoint& mine = it->second;
    if (inserted) mine.kind = point.kind;
    if (point.kind == MetricKind::kHistogram &&
        mine.kind == MetricKind::kHistogram)
      mine.histogram.merge(point.histogram);
    else
      support::foldCounter(name, mine.value, point.value);
  }
}

void MetricsSnapshot::adoptMissing(const MetricsSnapshot& other) {
  for (const auto& [name, point] : other.points) points.try_emplace(name, point);
}

std::uint64_t MetricsSnapshot::value(std::string_view name) const {
  const MetricPoint* p = find(name);
  return p == nullptr ? 0 : p->value;
}

const MetricPoint* MetricsSnapshot::find(std::string_view name) const {
  auto it = points.find(name);
  return it == points.end() ? nullptr : &it->second;
}

std::uint64_t histogramQuantile(const MetricPoint& point, double q) {
  const support::Histogram& h = point.histogram;
  if (h.count == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target observation, 1-based; ceil without float drift
  // for the common q values.
  const double exact = q * static_cast<double>(h.count);
  std::uint64_t rank = static_cast<std::uint64_t>(exact);
  if (static_cast<double>(rank) < exact) ++rank;
  if (rank == 0) rank = 1;
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    cumulative += h.buckets[i];
    if (cumulative >= rank) return histogramBucketBound(i);
  }
  return histogramBucketBound(kHistogramBuckets - 1);
}

// ---------------------------------------------------------------------------
// Binary codec

std::string encodeMetricsSnapshot(const MetricsSnapshot& snap) {
  std::ostringstream os(std::ios::binary);
  snapshot::Writer out(os);
  out.magic(kMetricsMagic);
  out.u32(kMetricsVersion);
  out.u64(snap.points.size());
  for (const auto& [name, point] : snap.points) {
    out.str(name);
    out.u8(static_cast<std::uint8_t>(point.kind));
    if (point.kind == MetricKind::kHistogram) {
      const support::Histogram& h = point.histogram;
      out.u64(h.count);
      out.u64(h.sum);
      // Trailing zero buckets are trimmed; the count is explicit so a
      // future bucket-geometry change is a version bump, not a guess.
      std::uint32_t used = kHistogramBuckets;
      while (used > 0 && h.buckets[used - 1] == 0) --used;
      out.u32(used);
      for (std::uint32_t i = 0; i < used; ++i) out.u64(h.buckets[i]);
    } else {
      out.u64(point.value);
    }
  }
  return std::move(os).str();
}

MetricsSnapshot decodeMetricsSnapshot(std::string_view bytes) {
  std::istringstream is{std::string(bytes), std::ios::binary};
  snapshot::Reader in(is);
  in.expectMagic(kMetricsMagic, "not an SDE metrics snapshot");
  const std::uint32_t version = in.u32();
  if (version != kMetricsVersion) {
    throw snapshot::SnapshotError("metrics snapshot version " +
                                  std::to_string(version) + ", expected " +
                                  std::to_string(kMetricsVersion));
  }
  const std::uint64_t count = in.u64();
  MetricsSnapshot snap;
  for (std::uint64_t n = 0; n < count; ++n) {
    std::string name = in.str();
    const std::uint8_t rawKind = in.u8();
    if (rawKind > static_cast<std::uint8_t>(MetricKind::kHistogram)) {
      throw snapshot::SnapshotError("metrics snapshot: unknown metric kind " +
                                    std::to_string(rawKind));
    }
    MetricPoint point;
    point.kind = static_cast<MetricKind>(rawKind);
    if (point.kind == MetricKind::kHistogram) {
      point.histogram.count = in.u64();
      point.histogram.sum = in.u64();
      const std::uint32_t used = in.u32();
      if (used > kHistogramBuckets) {
        throw snapshot::SnapshotError(
            "metrics snapshot: histogram claims " + std::to_string(used) +
            " buckets, layout has " + std::to_string(kHistogramBuckets));
      }
      for (std::uint32_t i = 0; i < used; ++i)
        point.histogram.buckets[i] = in.u64();
    } else {
      point.value = in.u64();
    }
    snap.points.insert_or_assign(std::move(name), point);
  }
  return snap;
}

MetricsSnapshot snapshotFromStats(const support::StatsRegistry& stats) {
  MetricsSnapshot snap;
  for (const auto& series : stats.series()) {
    MetricPoint point;
    point.kind = series.kind;
    point.value = series.value;
    if (series.histogram != nullptr) point.histogram = *series.histogram;
    snap.points.emplace_hint(snap.points.end(), series.name, point);
  }
  return snap;
}

bool splitTenantSeries(std::string_view name, std::string_view& tenant,
                       std::string_view& series) {
  constexpr std::string_view kTenantPrefix = "serve.tenant.";
  if (!name.starts_with(kTenantPrefix)) return false;
  const std::size_t dot = name.rfind('.');
  if (dot <= kTenantPrefix.size() || dot + 1 == name.size()) return false;
  tenant = name.substr(kTenantPrefix.size(), dot - kTenantPrefix.size());
  series = name.substr(dot + 1);
  return true;
}

// ---------------------------------------------------------------------------
// Prometheus exposition

namespace {

std::string sanitizeMetricName(std::string_view name) {
  std::string out = "sde_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

std::string escapeLabelValue(std::string_view value) {
  std::string out;
  for (char c : value) {
    if (c == '\\' || c == '"') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

struct ExposedName {
  std::string family;  // sanitised metric family name
  std::string labels;  // "" or tenant="..."
};

// "serve.tenant.<t>.<series>" → family sde_serve_<series>, label
// tenant=<t>; everything else is sanitised verbatim with no labels.
ExposedName exposeName(std::string_view name) {
  std::string_view tenant;
  std::string_view series;
  if (splitTenantSeries(name, tenant, series))
    return {sanitizeMetricName("serve." + std::string(series)),
            "tenant=\"" + escapeLabelValue(tenant) + "\""};
  return {sanitizeMetricName(name), ""};
}

// "{labels,extra}" without empty parts; "" when both are empty.
std::string braced(const std::string& labels, const std::string& extra = "") {
  const std::string joined =
      labels.empty() || extra.empty() ? labels + extra : labels + "," + extra;
  return joined.empty() ? "" : "{" + joined + "}";
}

std::string_view kindText(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "untyped";
}

}  // namespace

std::string renderPrometheus(const MetricsSnapshot& snap) {
  // Grouped by family: the tenant-labelled series of one family are not
  // adjacent in name order (serve.tenant.<t>.* sorts by tenant first),
  // and the exposition wants one # TYPE line and one group per family.
  struct Family {
    MetricKind kind = MetricKind::kCounter;
    std::ostringstream lines;
  };
  std::map<std::string, Family> families;
  for (const auto& [name, point] : snap.points) {
    const ExposedName exposed = exposeName(name);
    auto [it, inserted] = families.try_emplace(exposed.family);
    if (inserted) it->second.kind = point.kind;
    std::ostringstream& os = it->second.lines;
    const std::string& family = exposed.family;
    if (point.kind == MetricKind::kHistogram) {
      const support::Histogram& h = point.histogram;
      std::uint64_t cumulative = 0;
      std::size_t top = kHistogramBuckets;
      while (top > 0 && h.buckets[top - 1] == 0) --top;
      for (std::size_t i = 0; i < top; ++i) {
        cumulative += h.buckets[i];
        const std::string le =
            "le=\"" + std::to_string(histogramBucketBound(i)) + "\"";
        os << family << "_bucket" << braced(exposed.labels, le) << ' '
           << cumulative << '\n';
      }
      os << family << "_bucket" << braced(exposed.labels, "le=\"+Inf\"")
         << ' ' << h.count << '\n';
      os << family << "_sum" << braced(exposed.labels) << ' ' << h.sum
         << '\n';
      os << family << "_count" << braced(exposed.labels) << ' ' << h.count
         << '\n';
    } else {
      os << family << braced(exposed.labels) << ' ' << point.value << '\n';
    }
  }
  std::ostringstream out;
  for (const auto& [family, group] : families)
    out << "# TYPE " << family << ' ' << kindText(group.kind) << '\n'
        << group.lines.str();
  return out.str();
}

}  // namespace sde::obs

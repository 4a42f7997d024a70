#include "trace/metrics.hpp"

#include <unistd.h>

#include <algorithm>
#include <fstream>

namespace sde::trace {

std::uint64_t processResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t sizePages = 0;
  std::uint64_t residentPages = 0;
  if (!(statm >> sizePages >> residentPages)) return 0;
  return residentPages * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
}

Engine::Sampler MetricsRecorder::sampler() {
  return [this](const Engine& engine) {
    samples_.push_back(MetricSample{
        engine.wallSeconds(), engine.virtualNow(), engine.numStates(),
        engine.simulatedMemoryBytes(), processResidentBytes(),
        engine.mapper().numGroups(),
        engine.eventsProcessed(),
        engine.stats().get(support::statId<"engine.merges">()),
        engine.stats().get(support::statId<"engine.loop_summaries">())});
  };
}

std::span<const MetricColumn> metricCsvSchema() {
  static constexpr MetricColumn kSchema[] = {
      {"wall_s",
       [](std::ostream& os, const MetricSample& s) { os << s.wallSeconds; }},
      {"virtual_t",
       [](std::ostream& os, const MetricSample& s) { os << s.virtualTime; }},
      {"states",
       [](std::ostream& os, const MetricSample& s) { os << s.states; }},
      {"memory_bytes",
       [](std::ostream& os, const MetricSample& s) { os << s.memoryBytes; }},
      {"resident_bytes",
       [](std::ostream& os, const MetricSample& s) { os << s.residentBytes; }},
      {"groups",
       [](std::ostream& os, const MetricSample& s) { os << s.groups; }},
      {"events",
       [](std::ostream& os, const MetricSample& s) { os << s.events; }},
      {"merges",
       [](std::ostream& os, const MetricSample& s) { os << s.merges; }},
      {"loop_summaries",
       [](std::ostream& os, const MetricSample& s) { os << s.loopSummaries; }},
  };
  return kSchema;
}

const MetricSample& MetricsRecorder::last() const {
  SDE_ASSERT(!samples_.empty(), "no samples recorded");
  return samples_.back();
}

void MetricsRecorder::writeCsv(std::ostream& os,
                               std::string_view seriesName) const {
  // Validate up front, not just per row: a bad name must die even for a
  // recorder that never sampled.
  validateCsvField(seriesName);
  CsvWriter<MetricSample> csv(os, metricCsvSchema(), "series");
  for (const MetricSample& s : samples_) csv.row(s, seriesName);
}

std::vector<MetricSample> stitchSamples(
    std::span<const std::vector<MetricSample>> series) {
  struct Keyed {
    MetricSample sample;
    std::size_t seriesIndex = 0;
  };
  std::vector<Keyed> keyed;
  for (std::size_t i = 0; i < series.size(); ++i)
    for (const MetricSample& sample : series[i]) keyed.push_back({sample, i});
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const Keyed& a, const Keyed& b) {
                     if (a.sample.virtualTime != b.sample.virtualTime)
                       return a.sample.virtualTime < b.sample.virtualTime;
                     if (a.sample.events != b.sample.events)
                       return a.sample.events < b.sample.events;
                     return a.seriesIndex < b.seriesIndex;
                   });
  std::vector<MetricSample> merged;
  merged.reserve(keyed.size());
  for (const Keyed& k : keyed) merged.push_back(k.sample);
  return merged;
}

}  // namespace sde::trace

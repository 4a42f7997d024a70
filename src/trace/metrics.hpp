// Metric recording for the evaluation harness: samples (wall time,
// virtual time, state count, simulated memory, resident memory, group
// count) over an engine run — the raw series behind the paper's
// Figure 10 plots and Table I rows.
#pragma once

#include <cstdint>
#include <ostream>
#include <span>
#include <vector>

#include "sde/engine.hpp"
#include "trace/csv.hpp"

namespace sde::trace {

struct MetricSample {
  double wallSeconds = 0;
  std::uint64_t virtualTime = 0;
  std::uint64_t states = 0;
  std::uint64_t memoryBytes = 0;    // the simulated meter
  std::uint64_t residentBytes = 0;  // the process's real RSS (0: unknown)
  std::uint64_t groups = 0;  // dscenarios (COB) / dstates (COW, SDS)
  std::uint64_t events = 0;
  std::uint64_t merges = 0;         // engine.merges (0 unless --merge)
  std::uint64_t loopSummaries = 0;  // engine.loop_summaries
};

// The process's resident bytes now (/proc/self/statm); 0 where they
// cannot be read.
[[nodiscard]] std::uint64_t processResidentBytes();

// The CSV row schema: one entry per emitted column, in order, rendered
// through the shared schema-driven writer (trace/csv.hpp).
using MetricColumn = CsvColumn<MetricSample>;
[[nodiscard]] std::span<const MetricColumn> metricCsvSchema();

class MetricsRecorder {
 public:
  // Sampler to install via Engine::setSampler. The recorder must outlive
  // the engine run.
  [[nodiscard]] Engine::Sampler sampler();

  [[nodiscard]] const std::vector<MetricSample>& samples() const {
    return samples_;
  }
  [[nodiscard]] bool empty() const { return samples_.empty(); }
  [[nodiscard]] const MetricSample& last() const;

  // CSV whose columns follow metricCsvSchema() (series name first).
  // seriesName lands verbatim in the first column, so names containing
  // commas or newlines are rejected (SDE_ASSERT).
  void writeCsv(std::ostream& os, std::string_view seriesName) const;

  void clear() { samples_.clear(); }

 private:
  std::vector<MetricSample> samples_;
};

// Merges per-worker metric series into one deterministic timeline.
//
// Sort key and tie-breaks: samples are ordered by virtualTime first;
// samples with equal virtualTime by their events count; full ties
// (equal virtualTime AND equal events) by series index — so when two
// workers sample the same instant, the lower-indexed series
// contributes first. The sort is stable, so samples of ONE series that
// tie on the whole key (e.g. repeated end-of-run samples) keep their
// original recording order. Wall-clock stamps are carried through but
// deliberately never used as a sort key: they vary across runs while
// the virtual-time axis does not, and the stitched timeline must be
// byte-identical for any worker count.
[[nodiscard]] std::vector<MetricSample> stitchSamples(
    std::span<const std::vector<MetricSample>> series);

}  // namespace sde::trace

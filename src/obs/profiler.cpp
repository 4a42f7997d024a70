#include "obs/profiler.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>


namespace sde::obs {

std::string_view phaseName(Phase phase) {
  switch (phase) {
    case Phase::kInterp:
      return "interp";
    case Phase::kMapping:
      return "mapping";
    case Phase::kSolver:
      return "solver";
    case Phase::kCheckpoint:
      return "checkpoint";
    case Phase::kScheduler:
      return "scheduler";
    case Phase::kSampling:
      return "sampling";
    case Phase::kMerge:
      return "merge";
    case Phase::kReport:
      return "report";
    case Phase::kNumPhases:
      break;
  }
  return "?";
}

std::uint64_t PhaseProfile::totalNanos() const {
  std::uint64_t total = 0;
  for (const Entry& entry : phases) total += entry.nanos;
  return total;
}

bool PhaseProfile::empty() const {
  if (!opcodes.empty()) return false;
  for (const Entry& entry : phases)
    if (entry.nanos != 0 || entry.calls != 0) return false;
  return true;
}

void PhaseProfile::toStats(support::StatsRegistry& stats) const {
  using support::StatsRegistry;
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    const std::string prefix =
        "profile." + std::string(phaseName(static_cast<Phase>(i)));
    stats.add(StatsRegistry::id(prefix + ".micros"), phases[i].nanos / 1000);
    stats.add(StatsRegistry::id(prefix + ".calls"), phases[i].calls);
  }
  for (const OpEntry& op : opcodes) {
    stats.add(StatsRegistry::id("profile." + op.name + ".count"), op.count);
    if (op.nanos != 0)
      stats.add(StatsRegistry::id("profile." + op.name + ".micros"),
                op.nanos / 1000);
  }
}

std::string PhaseProfile::report() const {
  const std::uint64_t total = totalNanos();
  std::ostringstream os;
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    const Entry& entry = phases[i];
    const double millis = static_cast<double>(entry.nanos) / 1e6;
    const double share =
        total == 0 ? 0.0
                   : 100.0 * static_cast<double>(entry.nanos) /
                         static_cast<double>(total);
    char line[128];
    std::snprintf(line, sizeof(line), "%-10s %10.2f ms  %10llu calls  %5.1f%%\n",
                  std::string(phaseName(static_cast<Phase>(i))).c_str(), millis,
                  static_cast<unsigned long long>(entry.calls), share);
    os << line;
  }
  if (!opcodes.empty()) {
    // Display order: hottest first (ties by name); counts are exact,
    // times only present when the run profiled with SDE_OPCODE_TIME.
    std::vector<OpEntry> rows = opcodes;
    std::sort(rows.begin(), rows.end(), [](const OpEntry& a, const OpEntry& b) {
      if (a.count != b.count) return a.count > b.count;
      return a.name < b.name;
    });
    std::uint64_t opTotalNanos = 0;
    for (const OpEntry& row : rows) opTotalNanos += row.nanos;
    os << "opcode histogram:\n";
    for (const OpEntry& row : rows) {
      char line[160];
      if (row.nanos != 0) {
        const double share = opTotalNanos == 0
                                 ? 0.0
                                 : 100.0 * static_cast<double>(row.nanos) /
                                       static_cast<double>(opTotalNanos);
        std::snprintf(line, sizeof(line),
                      "  %-18s %14llu  %10.2f ms  %5.1f%%\n", row.name.c_str(),
                      static_cast<unsigned long long>(row.count),
                      static_cast<double>(row.nanos) / 1e6, share);
      } else {
        std::snprintf(line, sizeof(line), "  %-18s %14llu\n", row.name.c_str(),
                      static_cast<unsigned long long>(row.count));
      }
      os << line;
    }
  }
  return os.str();
}

PhaseProfile& PhaseProfile::mergeFrom(const PhaseProfile& other) {
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    phases[i].nanos += other.phases[i].nanos;
    phases[i].calls += other.phases[i].calls;
  }
  if (!other.opcodes.empty()) {
    // Name-keyed sum; the merged vector is rebuilt in name order so a
    // fleet merge is deterministic regardless of job arrival order.
    std::map<std::string, OpEntry> byName;
    for (const OpEntry& op : opcodes) byName[op.name] = op;
    for (const OpEntry& op : other.opcodes) {
      OpEntry& into = byName[op.name];
      into.name = op.name;
      into.count += op.count;
      into.nanos += op.nanos;
    }
    opcodes.clear();
    for (auto& [name, entry] : byName) opcodes.push_back(std::move(entry));
  }
  return *this;
}

}  // namespace sde::obs

#include "sde/duplicates.hpp"

#include <algorithm>
#include <vector>

namespace sde {

namespace {

// Counts the classes of equal hashes by sorting them.
DuplicateReport countClasses(std::vector<std::uint64_t>& hashes) {
  std::sort(hashes.begin(), hashes.end());
  DuplicateReport report;
  report.totalStates = hashes.size();
  for (auto first = hashes.begin(); first != hashes.end();) {
    const auto last = std::find_if(
        first, hashes.end(), [first](std::uint64_t h) { return h != *first; });
    ++report.distinctConfigurations;
    report.largestClass = std::max<std::uint64_t>(
        report.largestClass, static_cast<std::uint64_t>(last - first));
    first = last;
  }
  report.duplicateStates =
      report.totalStates - report.distinctConfigurations;
  return report;
}

}  // namespace

DuplicateReports findDuplicates(
    const std::deque<std::unique_ptr<vm::ExecutionState>>& states) {
  std::vector<std::uint64_t> strict;
  std::vector<std::uint64_t> content;
  strict.reserve(states.size());
  content.reserve(states.size());
  for (const auto& state : states) {
    const std::uint64_t hash = state->configHash();
    content.push_back(hash);
    strict.push_back(state->configHashStrict(hash));
  }
  return {countClasses(strict), countClasses(content)};
}

}  // namespace sde

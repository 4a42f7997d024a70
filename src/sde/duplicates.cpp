#include "sde/duplicates.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include "support/placed_threads.hpp"

namespace sde {

namespace {

// A run shorter than this costs more to start on a thread of its own
// than it saves (a state hashes in about a microsecond).
constexpr std::size_t kMinRunStates = 16'384;

// Counts the classes of equal hashes. Each run [bounds[r], bounds[r+1])
// of `hashes` is sorted; every step of one k-way pass takes the least
// value at the runs' heads and consumes it from every run, so a class
// spread over several runs counts once.
DuplicateReport countClasses(const std::vector<std::uint64_t>& hashes,
                             const std::vector<std::size_t>& bounds) {
  DuplicateReport report;
  report.totalStates = hashes.size();
  std::vector<std::size_t> heads(bounds.begin(), bounds.end() - 1);
  while (true) {
    std::optional<std::uint64_t> least;
    for (std::size_t r = 0; r < heads.size(); ++r)
      if (heads[r] != bounds[r + 1] && (!least || hashes[heads[r]] < *least))
        least = hashes[heads[r]];
    if (!least) break;
    std::uint64_t size = 0;
    for (std::size_t r = 0; r < heads.size(); ++r)
      for (; heads[r] != bounds[r + 1] && hashes[heads[r]] == *least;
           ++heads[r])
        ++size;
    ++report.distinctConfigurations;
    report.largestClass = std::max(report.largestClass, size);
  }
  report.duplicateStates =
      report.totalStates - report.distinctConfigurations;
  return report;
}

}  // namespace

DuplicateReports detail::scanInRuns(
    std::size_t count, unsigned runs,
    const std::function<ConfigHashes(std::size_t)>& hashOf) {
  runs = static_cast<unsigned>(
      std::clamp<std::size_t>(runs, 1, std::max<std::size_t>(count, 1)));
  std::vector<std::size_t> bounds(runs + 1);
  for (unsigned r = 0; r <= runs; ++r) bounds[r] = count * r / runs;
  std::vector<std::uint64_t> strict(count);
  std::vector<std::uint64_t> content(count);
  support::runPlaced(runs, [&](unsigned r) {
    for (std::size_t i = bounds[r]; i < bounds[r + 1]; ++i) {
      const ConfigHashes hashes = hashOf(i);
      content[i] = hashes.content;
      strict[i] = hashes.strict;
    }
    const auto first = static_cast<std::ptrdiff_t>(bounds[r]);
    const auto last = static_cast<std::ptrdiff_t>(bounds[r + 1]);
    std::sort(strict.begin() + first, strict.begin() + last);
    std::sort(content.begin() + first, content.begin() + last);
  });
  return {countClasses(strict, bounds), countClasses(content, bounds)};
}

DuplicateReports findDuplicates(
    const std::deque<std::unique_ptr<vm::ExecutionState>>& states) {
  const std::size_t cpus =
      std::max<std::size_t>(support::allowedCpus().size(), 1);
  const auto runs = static_cast<unsigned>(
      std::clamp<std::size_t>(states.size() / kMinRunStates, 1, cpus));
  return detail::scanInRuns(states.size(), runs, [&states](std::size_t i) {
    const vm::ExecutionState& state = *states[i];
    const std::uint64_t content = state.configHash();
    return detail::ConfigHashes{content, state.configHashStrict(content)};
  });
}

}  // namespace sde

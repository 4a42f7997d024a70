#include "sde/explode.hpp"

#include <algorithm>
#include <limits>

namespace sde {

std::vector<std::vector<ExecutionState*>> explodeScenarios(
    const StateMapper& mapper) {
  std::vector<std::vector<ExecutionState*>> result;
  ExplosionIterator it(mapper);
  while (auto scenario = it.next()) result.push_back(std::move(*scenario));
  return result;
}

std::uint64_t countScenarios(const StateMapper& mapper) {
  return countScenarios(mapper.groupChoices());
}

std::uint64_t countScenarios(
    const std::vector<std::vector<std::vector<ExecutionState*>>>& groups) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t total = 0;
  for (const auto& group : groups) {
    std::uint64_t product = 1;
    for (const auto& choices : group) {
      if (!choices.empty() && product > kMax / choices.size())
        throw ScenarioCountOverflow(
            "a dscenario group's choice product exceeds 2^64 - 1");
      product *= choices.size();
    }
    if (product > kMax - total)
      throw ScenarioCountOverflow("the dscenario count exceeds 2^64 - 1");
    total += product;
  }
  return total;
}

std::unordered_set<std::uint64_t> scenarioFingerprints(
    const StateMapper& mapper) {
  std::unordered_set<std::uint64_t> fingerprints;
  ExplosionIterator it(mapper);
  while (auto scenario = it.next())
    fingerprints.insert(scenarioFingerprint(*scenario));
  return fingerprints;
}

std::optional<std::vector<ExecutionState*>> scenarioContaining(
    const StateMapper& mapper, const ExecutionState& state) {
  for (const auto& group : mapper.groupChoices()) {
    const auto& choices = group[state.node()];
    if (std::find(choices.begin(), choices.end(), &state) == choices.end())
      continue;
    std::vector<ExecutionState*> scenario;
    scenario.reserve(group.size());
    for (NodeId node = 0; node < group.size(); ++node)
      scenario.push_back(node == state.node()
                             ? const_cast<ExecutionState*>(&state)
                             : group[node].front());
    return scenario;
  }
  return std::nullopt;
}

ExplosionIterator::ExplosionIterator(const StateMapper& mapper)
    : groups_(mapper.groupChoices()) {}

std::optional<std::vector<ExecutionState*>> ExplosionIterator::next() {
  while (group_ < groups_.size()) {
    const auto& group = groups_[group_];
    if (groupFresh_) {
      odometer_.assign(group.size(), 0);
      groupFresh_ = false;
      // A well-formed group has non-empty choices for every node.
      const bool valid = std::all_of(
          group.begin(), group.end(),
          [](const auto& choices) { return !choices.empty(); });
      SDE_ASSERT(valid, "group with an uncovered node");
    } else {
      // Advance the odometer (last node fastest).
      std::size_t digit = group.size();
      while (digit > 0) {
        --digit;
        if (++odometer_[digit] < group[digit].size()) break;
        odometer_[digit] = 0;
        if (digit == 0) {
          ++group_;
          groupFresh_ = true;
        }
      }
      if (groupFresh_) continue;
    }

    std::vector<ExecutionState*> scenario;
    scenario.reserve(group.size());
    for (std::size_t node = 0; node < group.size(); ++node)
      scenario.push_back(group[node][odometer_[node]]);
    ++produced_;
    return scenario;
  }
  return std::nullopt;
}

}  // namespace sde

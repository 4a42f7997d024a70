// Deliberate state explosion (paper §IV-C).
//
// COW and SDS keep a compact representation; generating test cases "for
// all nodes in all dscenarios" requires expanding it back to COB's
// explicit dscenario list. Full expansion is exponential, so next to the
// eager expander (fine for tests and small runs) we provide the
// incremental iterator the paper proposes as future work: dscenarios are
// produced one at a time with O(k) live memory via a per-group odometer
// over the per-node choice lists.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "sde/mapper.hpp"

namespace sde {

// Eagerly materialises every dscenario of `mapper`. Deterministic order:
// groups in mapper order, node-major odometer within a group.
[[nodiscard]] std::vector<std::vector<ExecutionState*>> explodeScenarios(
    const StateMapper& mapper);

// countScenarios' count does not fit in 64 bits.
class ScenarioCountOverflow : public std::overflow_error {
 public:
  using std::overflow_error::overflow_error;
};

// The number of dscenarios the mapper represents, computed without
// materialising them (product of choice-list sizes, summed over groups).
// Exact or nothing: throws ScenarioCountOverflow past 2^64 - 1.
[[nodiscard]] std::uint64_t countScenarios(const StateMapper& mapper);
// The same count over explicit choice lists (StateMapper::groupChoices).
[[nodiscard]] std::uint64_t countScenarios(
    const std::vector<std::vector<std::vector<ExecutionState*>>>& groups);

// The set of distinct dscenario fingerprints — the cross-algorithm
// equivalence oracle: two mapping algorithms explored the same
// distributed executions iff these sets are equal.
[[nodiscard]] std::unordered_set<std::uint64_t> scenarioFingerprints(
    const StateMapper& mapper);

// One dscenario that contains `state` (the failing state's distributed
// context: pick `state` for its node and the first choice for every
// other node of a group containing it). nullopt if the state is not part
// of any group — e.g. it was never registered with this mapper.
[[nodiscard]] std::optional<std::vector<ExecutionState*>> scenarioContaining(
    const StateMapper& mapper, const ExecutionState& state);

// Incremental expansion: yields one dscenario per next() call.
class ExplosionIterator {
 public:
  explicit ExplosionIterator(const StateMapper& mapper);

  // The next dscenario (one state per node), or nullopt when exhausted.
  [[nodiscard]] std::optional<std::vector<ExecutionState*>> next();

  [[nodiscard]] std::uint64_t produced() const { return produced_; }

 private:
  std::vector<std::vector<std::vector<ExecutionState*>>> groups_;
  std::size_t group_ = 0;
  std::vector<std::size_t> odometer_;
  bool groupFresh_ = true;
  std::uint64_t produced_ = 0;
};

}  // namespace sde

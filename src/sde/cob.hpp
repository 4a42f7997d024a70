// Copy On Branch (paper §III-A).
//
// The distributed system is a set of dscenarios, each holding exactly
// one state per node — the explicit enumeration of every distributed
// execution a monolithic simulation would explore. A local branch of any
// state forks *all other states* of its dscenario to keep the invariant;
// packet delivery is then a constant-time lookup in the sender's
// dscenario. Correct, simple, and catastrophically duplicative — the
// baseline the paper measures COW and SDS against.
#pragma once

#include <deque>

#include "sde/mapper.hpp"
#include "sde/state_table.hpp"

namespace sde {

class CobMapper final : public StateMapper {
 public:
  explicit CobMapper(std::uint32_t numNodes) : numNodes_(numNodes) {}

  [[nodiscard]] std::string_view name() const override { return "COB"; }

  void registerInitialStates(
      std::span<ExecutionState* const> states) override;
  void onLocalBranch(ExecutionState& original, ExecutionState& sibling,
                     MapperRuntime& runtime) override;
  [[nodiscard]] std::vector<ExecutionState*> onTransmit(
      ExecutionState& sender, const net::Packet& packet,
      MapperRuntime& runtime) override;

  [[nodiscard]] std::uint64_t numGroups() const override {
    return scenarios_.size() - deadScenarios_;
  }
  [[nodiscard]] std::vector<std::vector<std::vector<ExecutionState*>>>
  groupChoices() const override;

  // State merging: two same-node states of *different* dscenarios may
  // merge when every other node's members are indistinguishable (strict
  // config, symbolic inputs, decision log) — then the absorbed
  // dscenario is redundant and dies together with its k-1 bystander
  // clones, which is exactly the duplication COB's materialisation
  // created.
  [[nodiscard]] bool canMerge(const ExecutionState& survivor,
                              const ExecutionState& absorbed) const override;
  std::vector<ExecutionState*> onStatesMerged(
      ExecutionState& survivor, ExecutionState& absorbed) override;

  void checkInvariants() const override;

  void snapshotSave(snapshot::Writer& out) const override;
  void snapshotLoad(snapshot::Reader& in,
                    const StateResolver& resolve) override;

 private:
  struct Scenario {
    std::uint64_t id = 0;
    std::vector<ExecutionState*> byNode;  // exactly one per node
    // Tombstone (state merging): the deque never erases (stable
    // addresses), so an absorbed dscenario is flagged dead, its byNode
    // cleared, and every walk skips it. Dead scenarios are not
    // serialized — ids are explicit, so the gap round-trips fine.
    bool dead = false;
  };

  Scenario& scenarioOf(const ExecutionState& state);
  const Scenario& scenarioOf(const ExecutionState& state) const;

  std::uint32_t numNodes_;
  std::deque<Scenario> scenarios_;  // stable addresses
  StateTable<Scenario*> scenarioOf_;
  std::uint64_t nextScenarioId_ = 0;
  std::size_t deadScenarios_ = 0;
};

}  // namespace sde

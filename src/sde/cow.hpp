// Delayed Copy On Write (paper §III-B).
//
// A dstate allows several states per node as long as all members are
// pairwise conflict-free (same communication history). Local branches
// just add the sibling to the predecessor's dstate — no copying at all.
// Copying is delayed until a transmission whose sender has rivals
// (sibling states of the sender's node in the same dstate): then the
// sender moves to a fresh dstate together with forked copies of every
// non-rival member — the targets (which receive) and, wastefully, all
// bystanders. The bystander copies are the duplication SDS eliminates.
#pragma once

#include <deque>

#include "sde/mapper.hpp"
#include "sde/state_table.hpp"

namespace sde {

class CowMapper final : public StateMapper {
 public:
  explicit CowMapper(std::uint32_t numNodes) : numNodes_(numNodes) {}

  [[nodiscard]] std::string_view name() const override { return "COW"; }

  void registerInitialStates(
      std::span<ExecutionState* const> states) override;
  void onLocalBranch(ExecutionState& original, ExecutionState& sibling,
                     MapperRuntime& runtime) override;
  [[nodiscard]] std::vector<ExecutionState*> onTransmit(
      ExecutionState& sender, const net::Packet& packet,
      MapperRuntime& runtime) override;

  [[nodiscard]] std::uint64_t numGroups() const override {
    return dstates_.size();
  }
  [[nodiscard]] std::vector<std::vector<std::vector<ExecutionState*>>>
  groupChoices() const override;

  // State merging: two same-node rivals of the *same* dstate may merge
  // — the dscenarios the dstate represents with the absorbed member are
  // exactly the merged survivor's guard-false expansions. Cross-dstate
  // merges are vetoed (they would conflate distinct dscenario sets).
  [[nodiscard]] bool canMerge(const ExecutionState& survivor,
                              const ExecutionState& absorbed) const override;
  std::vector<ExecutionState*> onStatesMerged(
      ExecutionState& survivor, ExecutionState& absorbed) override;

  void checkInvariants() const override;

  void snapshotSave(snapshot::Writer& out) const override;
  void snapshotLoad(snapshot::Reader& in,
                    const StateResolver& resolve) override;

  // Test hook: the dstate membership of `state` as a StateGroup view.
  [[nodiscard]] const StateGroup& dstateOf(const ExecutionState& state) const;

 private:
  struct DState {
    std::uint64_t id = 0;
    StateGroup members;
    explicit DState(std::uint32_t numNodes) : members(numNodes) {}
  };

  DState& mutableDstateOf(const ExecutionState& state);

  std::uint32_t numNodes_;
  std::deque<DState> dstates_;
  StateTable<DState*> dstateOf_;
  std::uint64_t nextDstateId_ = 0;
};

}  // namespace sde

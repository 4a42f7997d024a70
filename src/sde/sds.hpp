// Super DStates (paper §III-C) — the paper's contribution.
//
// SDS is COW executed on *virtual states*: lightweight references to
// actual execution states. Each virtual state belongs to exactly one
// dstate; an actual state can have many virtual states, and the set of
// dstates its virtuals inhabit is its super-dstate. On a transmission,
// only target states are ever forked (at most once each); bystanders
// merely gain a virtual state in the newly created dstate. This removes
// the bystander duplication that dominates COW's cost on large networks
// while representing exactly the same set of dscenarios.
#pragma once

#include <deque>
#include <memory>

#include "sde/mapper.hpp"
#include "sde/state_table.hpp"

namespace sde {

class SdsMapper final : public StateMapper {
 public:
  explicit SdsMapper(std::uint32_t numNodes) : numNodes_(numNodes) {}

  [[nodiscard]] std::string_view name() const override { return "SDS"; }

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

  // State merging: two same-node states may merge when their virtual
  // states inhabit *exactly the same* dstates — then each shared dstate
  // offered both as alternative members, and dropping the absorbed
  // one's virtuals loses nothing the survivor's guard expansion does
  // not regenerate. Differing super-dstates are vetoed (a dstate only
  // the absorbed inhabits would pair its partners with survivor-arm
  // behaviours the unmerged run never paired them with).
  [[nodiscard]] bool canMerge(const ExecutionState& survivor,
                              const ExecutionState& absorbed) const override;
  std::vector<ExecutionState*> onStatesMerged(
      ExecutionState& survivor, ExecutionState& absorbed) override;

  void checkInvariants() const override;

  void snapshotSave(snapshot::Writer& out) const override;
  void snapshotLoad(snapshot::Reader& in,
                    const StateResolver& resolve) override;

  // Test hooks.
  [[nodiscard]] std::size_t numVirtualStates() const { return liveVirtuals_; }
  [[nodiscard]] std::size_t superDstateSize(const ExecutionState& s) const;

 private:
  struct VDState;
  struct Actual;

  struct VState {
    std::uint64_t id = 0;
    Actual* actual = nullptr;
    VDState* dstate = nullptr;  // exactly one (the defining invariant)
    // Tombstone (state merging): the pool asserts id == index and never
    // erases, so an absorbed state's virtuals are unlinked (actual and
    // dstate nulled) and flagged; serialization writes a sentinel.
    bool dead = false;
  };

  struct VDState {
    std::uint64_t id = 0;
    std::vector<std::vector<VState*>> byNode;
    // onTransmit scratch: equals the mapper's epoch_ while this dstate
    // holds a virtual of the current sender.
    std::uint64_t senderMark = 0;
  };

  // One actual execution state's side of the mapping. Virtuals point at
  // their Actual, so a forking target can hand its whole record to its
  // copy (a slot move in byActual_): the migrating virtuals follow
  // without being touched.
  struct Actual {
    ExecutionState* state = nullptr;
    // Its virtual states (the super-dstate) in binding order. The order
    // drives onTransmit's iteration, so it is serialized verbatim.
    std::vector<VState*> virtuals;
    // onTransmit scratch, valid while targetMark == epoch_: the state is
    // the ordinal-th target of the current transmission, and
    // `nonReceiving` is its non-receiving copy (nullptr: not forked).
    std::uint64_t targetMark = 0;
    std::size_t ordinal = 0;
    Actual* nonReceiving = nullptr;
  };

  VState& newVirtual(Actual& actual, VDState& dstate);
  VDState& newDstate();
  // Moves `v` to `dstate` (removing it from its current one).
  void moveVirtual(VState& v, VDState& dstate);
  void removeFromDstate(VState& v);

  [[nodiscard]] Actual& actualOf(const ExecutionState& state);
  // The record of `state`, created (empty) on first use.
  [[nodiscard]] Actual& actualFor(ExecutionState& state);

  std::uint32_t numNodes_;
  std::deque<VState> virtualPool_;
  std::deque<VDState> dstates_;
  // Each record is its own allocation, so VState::actual stays valid
  // when the table grows or a record changes slots.
  StateTable<std::unique_ptr<Actual>> byActual_;
  std::uint64_t nextVirtualId_ = 0;
  std::uint64_t nextDstateId_ = 0;
  std::size_t liveVirtuals_ = 0;
  // Counts onTransmit calls; the marks above compare against it, so no
  // per-transmission set is built or cleared.
  std::uint64_t epoch_ = 0;
};

}  // namespace sde

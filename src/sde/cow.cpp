#include "sde/cow.hpp"

#include <algorithm>

#include "obs/trace_sink.hpp"
#include "snapshot/reader.hpp"
#include "snapshot/writer.hpp"

namespace sde {

using support::statId;

void CowMapper::registerInitialStates(
    std::span<ExecutionState* const> states) {
  SDE_ASSERT(states.size() == numNodes_, "need exactly one state per node");
  DState& dstate = dstates_.emplace_back(numNodes_);
  dstate.id = nextDstateId_++;
  for (ExecutionState* state : states) {
    dstate.members.add(state);
    dstateOf_.slot(state->id()) = &dstate;
  }
}

CowMapper::DState& CowMapper::mutableDstateOf(const ExecutionState& state) {
  DState* dstate = dstateOf_[state.id()];
  SDE_ASSERT(dstate != nullptr, "state not registered with COW");
  return *dstate;
}

const StateGroup& CowMapper::dstateOf(const ExecutionState& state) const {
  const DState* dstate = dstateOf_[state.id()];
  SDE_ASSERT(dstate != nullptr, "state not registered with COW");
  return dstate->members;
}

void CowMapper::onLocalBranch(ExecutionState& original,
                              ExecutionState& sibling, MapperRuntime&) {
  // Conflict-free by construction: the siblings differ only in the
  // branch constraint, their communication histories are identical. Just
  // record membership (this is the entire point of COW).
  DState& dstate = mutableDstateOf(original);
  dstate.members.add(&sibling);
  dstateOf_.slot(sibling.id()) = &dstate;
}

std::vector<ExecutionState*> CowMapper::onTransmit(ExecutionState& sender,
                                                   const net::Packet& packet,
                                                   MapperRuntime& runtime) {
  runtime.stats().add(statId<"map.transmissions">());
  DState& dstate = mutableDstateOf(sender);
  const NodeId dst = packet.dst;
  SDE_ASSERT(dst < numNodes_, "destination out of range");

  const auto senderSiblings = dstate.members.statesOf(sender.node());
  const bool hasRivals = senderSiblings.size() > 1;

  if (!hasRivals) {
    // Every dscenario this dstate represents has the sender sending —
    // all destination-node members receive in place, nothing forks.
    const auto targets = dstate.members.statesOf(dst);
    return {targets.begin(), targets.end()};
  }

  // Conflict: rivals did not send this packet. Move the sender into a
  // fresh dstate together with forked copies of every member except the
  // rivals (Figure 4). The target copies receive the packet; the
  // bystander copies are pure duplicates (the COW inefficiency).
  runtime.stats().add(statId<"map.cow.conflict_resolutions">());
  DState& fresh = dstates_.emplace_back(numNodes_);
  DState& old = mutableDstateOf(sender);  // deque kept `old` stable
  const std::uint64_t oldId = old.id;
  fresh.id = nextDstateId_++;

  old.members.remove(&sender);
  fresh.members.add(&sender);
  dstateOf_.slot(sender.id()) = &fresh;

  std::uint64_t targetsForked = 0;
  std::uint64_t bystandersForked = 0;
  std::vector<ExecutionState*> receivers;
  for (NodeId node = 0; node < numNodes_; ++node) {
    if (node == sender.node()) continue;  // rivals stay, sender moved
    for (ExecutionState* member : old.members.statesOf(node)) {
      runtime.stats().add(statId<"map.cow.split_copy_elements">(),
                          member->forkCopyCost());
      ExecutionState& copy = runtime.forkState(*member);
      fresh.members.add(&copy);
      dstateOf_.slot(copy.id()) = &fresh;
      if (node == dst) {
        receivers.push_back(&copy);
        runtime.stats().add(statId<"map.targets_forked">());
        ++targetsForked;
      } else {
        runtime.stats().add(statId<"map.bystanders_forked">());
        ++bystandersForked;
      }
    }
  }
  SDE_ASSERT(!receivers.empty(), "dstate must cover the destination node");
  if (obs::TraceSink* trace = runtime.trace()) {
    obs::TraceEvent split;
    split.kind = obs::TraceEventKind::kGroupFork;
    split.detail =
        static_cast<std::uint8_t>(obs::GroupForkDetail::kDstateSplit);
    split.node = sender.node();
    split.stateId = sender.id();
    split.groupId = fresh.id;
    split.a = oldId;
    split.b = targetsForked + bystandersForked;
    trace->emit(split);

    obs::TraceEvent invoked;
    invoked.kind = obs::TraceEventKind::kMappingInvoked;
    invoked.node = sender.node();
    invoked.peer = dst;
    invoked.stateId = sender.id();
    invoked.groupId = fresh.id;
    invoked.packetId = packet.id;
    invoked.a = targetsForked;
    invoked.b = bystandersForked;
    trace->emit(invoked);
  }
  return receivers;
}

bool CowMapper::canMerge(const ExecutionState& survivor,
                         const ExecutionState& absorbed) const {
  const DState* keep = dstateOf_[survivor.id()];
  const DState* drop = dstateOf_[absorbed.id()];
  SDE_ASSERT(keep != nullptr && drop != nullptr,
             "state not registered with COW");
  return keep == drop;
}

std::vector<ExecutionState*> CowMapper::onStatesMerged(
    ExecutionState& survivor, ExecutionState& absorbed) {
  DState& dstate = mutableDstateOf(absorbed);
  SDE_ASSERT(&dstate == &mutableDstateOf(survivor),
             "merge across dstates slipped past canMerge");
  const bool removed = dstate.members.remove(&absorbed);
  SDE_ASSERT(removed, "absorbed state missing from its dstate");
  dstateOf_.erase(absorbed.id());
  return {};
}

std::vector<std::vector<std::vector<ExecutionState*>>>
CowMapper::groupChoices() const {
  // Each dstate represents the cartesian product of its per-node member
  // sets: all members share one communication history, so every
  // combination is a consistent dscenario.
  std::vector<std::vector<std::vector<ExecutionState*>>> result;
  result.reserve(dstates_.size());
  for (const DState& dstate : dstates_) {
    std::vector<std::vector<ExecutionState*>> group;
    group.reserve(numNodes_);
    for (NodeId node = 0; node < numNodes_; ++node) {
      const auto choices = dstate.members.statesOf(node);
      group.emplace_back(choices.begin(), choices.end());
    }
    result.push_back(std::move(group));
  }
  return result;
}

void CowMapper::snapshotSave(snapshot::Writer& out) const {
  out.u64(nextDstateId_);
  out.u64(dstates_.size());
  for (const DState& dstate : dstates_) {
    out.u64(dstate.id);
    // Node-major with explicit per-node counts: the slot order inside a
    // node's member list is the order onTransmit returns receivers in,
    // so it must survive the round trip verbatim.
    for (NodeId node = 0; node < numNodes_; ++node) {
      const auto members = dstate.members.statesOf(node);
      out.u64(members.size());
      for (const ExecutionState* member : members) out.u64(member->id());
    }
  }
}

void CowMapper::snapshotLoad(snapshot::Reader& in,
                             const StateResolver& resolve) {
  SDE_ASSERT(dstates_.empty(), "snapshotLoad needs a fresh mapper");
  nextDstateId_ = in.u64();
  const std::uint64_t count = in.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    DState& dstate = dstates_.emplace_back(numNodes_);
    dstate.id = in.u64();
    for (NodeId node = 0; node < numNodes_; ++node) {
      const std::uint64_t members = in.u64();
      for (std::uint64_t m = 0; m < members; ++m) {
        ExecutionState* state = resolve(in.u64());
        if (state == nullptr)
          throw snapshot::SnapshotError(
              "COW snapshot references an unknown state");
        dstate.members.add(state);
        dstateOf_.slot(state->id()) = &dstate;
      }
    }
  }
}

void CowMapper::checkInvariants() const {
  std::size_t mapped = 0;
  for (const DState& dstate : dstates_) {
    SDE_ASSERT(dstate.members.coversAllNodes(),
               "dstate must have >= 1 state per node");
    for (ExecutionState* member : dstate.members.all()) {
      ++mapped;
      SDE_ASSERT(dstateOf_[member->id()] == &dstate,
                 "dstateOf_ out of sync (a state must be in exactly one "
                 "dstate)");
    }
    SDE_ASSERT(countConflicts(dstate.members) == 0,
               "dstate members must be pairwise conflict-free");
  }
  SDE_ASSERT(mapped == dstateOf_.count(), "orphan entries in dstateOf_");
}

}  // namespace sde

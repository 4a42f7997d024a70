// Shared distributed-state vocabulary.
//
// The three mapping algorithms group execution states differently —
// dscenarios (COB, one state per node), dstates (COW, several
// conflict-free states per node), and dstates over virtual states (SDS).
// This header provides the pieces they share: node-indexed state groups,
// scenario fingerprints for cross-algorithm equivalence checks, and the
// communication-history compatibility predicate that defines "conflict"
// (paper §II-B).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "vm/state.hpp"

namespace sde {

using vm::ExecutionState;
using vm::NodeId;
using vm::StateId;

// A group of execution states indexed by node, allowing several states
// per node. COW uses it directly as the dstate representation; tests use
// it to materialise exploded dscenarios.
class StateGroup {
 public:
  explicit StateGroup(std::uint32_t numNodes) : byNode_(numNodes) {}

  void add(ExecutionState* state) {
    SDE_ASSERT(state->node() < byNode_.size(), "node out of range");
    byNode_[state->node()].push_back(state);
  }
  // Removes `state`; returns whether it was present.
  bool remove(const ExecutionState* state);

  [[nodiscard]] std::span<ExecutionState* const> statesOf(NodeId node) const {
    SDE_ASSERT(node < byNode_.size(), "node out of range");
    return byNode_[node];
  }
  [[nodiscard]] std::uint32_t numNodes() const {
    return static_cast<std::uint32_t>(byNode_.size());
  }
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] bool contains(const ExecutionState* state) const;

  // Every node is populated (the invariant both COW dstates and SDS
  // dstates maintain).
  [[nodiscard]] bool coversAllNodes() const;

  // All member states, node-major (deterministic order).
  [[nodiscard]] std::vector<ExecutionState*> all() const;

 private:
  std::vector<std::vector<ExecutionState*>> byNode_;
};

// Order-independent fingerprint of a dscenario: the XOR of its members'
// scenarioMemberMix values. Two dscenarios with the same fingerprint
// represent the same distributed execution (up to the packet-id
// renaming configHash already quotients out).
[[nodiscard]] std::uint64_t scenarioFingerprint(
    std::span<ExecutionState* const> states);
// One member's share of scenarioFingerprint: its configuration hash
// keyed by node, so distinct nodes never cancel each other out.
[[nodiscard]] std::uint64_t scenarioMemberMix(const ExecutionState& state);

// --- Communication-history compatibility (conflict detection) -------------
//
// Two states s, t are in direct conflict if s sent a packet to node(t)
// that t did not receive, or t received a packet from node(s) that s did
// not send (and symmetrically). A packet still in flight (a pending
// kRecv event carrying its id) counts as received: delivery latency must
// not look like a conflict.

// True when `receiver` has received — or will receive — the packet.
[[nodiscard]] bool hasOrWillReceive(const ExecutionState& receiver,
                                    std::uint64_t packetId);

// Direct-conflict predicate between two states (of any nodes).
[[nodiscard]] bool inDirectConflict(const ExecutionState& s,
                                    const ExecutionState& t);

// Checks pairwise conflict-freeness of a group; returns the number of
// conflicting pairs (0 = the group is a valid dstate). Terminal states
// are skipped: a crashed node's history legitimately stops short.
[[nodiscard]] std::size_t countConflicts(const StateGroup& group);

}  // namespace sde

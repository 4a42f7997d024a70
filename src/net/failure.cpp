#include "net/failure.hpp"

namespace sde::net {

namespace {

// How many failures with `label` this state has already explored. The
// interpreter names symbolic inputs per (node, label) with a per-state
// counter, so the counter doubles as the per-node failure budget.
std::uint32_t injectedSoFar(const vm::ExecutionState& state,
                            const char* label) {
  const auto& counters = state.cold().symbolicCounters;
  const auto it = counters.find(label);
  return it == counters.end() ? 0 : it->second;
}

}  // namespace

SymbolicDropModel::SymbolicDropModel(std::vector<NodeId> nodes,
                                     std::uint32_t maxPerNode)
    : nodes_(nodes.begin(), nodes.end()), maxPerNode_(maxPerNode) {}

FailureDecision SymbolicDropModel::onDelivery(const vm::ExecutionState& state,
                                              const Packet& packet) {
  (void)packet;
  if (!nodes_.contains(state.node())) return {};
  if (injectedSoFar(state, kLabel) >= maxPerNode_) return {};
  return {FailureKind::kDrop, kLabel};
}

SymbolicDuplicateModel::SymbolicDuplicateModel(std::vector<NodeId> nodes,
                                               std::uint32_t maxPerNode)
    : nodes_(nodes.begin(), nodes.end()), maxPerNode_(maxPerNode) {}

FailureDecision SymbolicDuplicateModel::onDelivery(
    const vm::ExecutionState& state, const Packet& packet) {
  (void)packet;
  if (!nodes_.contains(state.node())) return {};
  if (injectedSoFar(state, kLabel) >= maxPerNode_) return {};
  return {FailureKind::kDuplicate, kLabel};
}

SymbolicRebootModel::SymbolicRebootModel(std::vector<NodeId> nodes,
                                         std::uint32_t maxPerNode)
    : nodes_(nodes.begin(), nodes.end()), maxPerNode_(maxPerNode) {}

FailureDecision SymbolicRebootModel::onDelivery(
    const vm::ExecutionState& state, const Packet& packet) {
  (void)packet;
  if (!nodes_.contains(state.node())) return {};
  if (injectedSoFar(state, kLabel) >= maxPerNode_) return {};
  return {FailureKind::kReboot, kLabel};
}

FailureDecision CompositeFailureModel::onDelivery(
    const vm::ExecutionState& state, const Packet& packet) {
  for (const auto& model : models_) {
    FailureDecision decision = model->onDelivery(state, packet);
    if (decision.kind != FailureKind::kNone) return decision;
  }
  return {};
}

}  // namespace sde::net

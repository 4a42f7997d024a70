#include "sde/dstate.hpp"

#include <algorithm>

#include "support/hash.hpp"

namespace sde {

bool StateGroup::remove(const ExecutionState* state) {
  auto& slot = byNode_[state->node()];
  const auto it = std::find(slot.begin(), slot.end(), state);
  if (it == slot.end()) return false;
  slot.erase(it);
  return true;
}

std::size_t StateGroup::size() const {
  std::size_t n = 0;
  for (const auto& slot : byNode_) n += slot.size();
  return n;
}

bool StateGroup::contains(const ExecutionState* state) const {
  const auto& slot = byNode_[state->node()];
  return std::find(slot.begin(), slot.end(), state) != slot.end();
}

bool StateGroup::coversAllNodes() const {
  return std::all_of(byNode_.begin(), byNode_.end(),
                     [](const auto& slot) { return !slot.empty(); });
}

std::vector<ExecutionState*> StateGroup::all() const {
  std::vector<ExecutionState*> result;
  result.reserve(size());
  for (const auto& slot : byNode_)
    result.insert(result.end(), slot.begin(), slot.end());
  return result;
}

std::uint64_t scenarioFingerprint(std::span<ExecutionState* const> states) {
  std::uint64_t h = 0;
  for (const ExecutionState* state : states) h ^= scenarioMemberMix(*state);
  return h;
}

std::uint64_t scenarioMemberMix(const ExecutionState& state) {
  return support::mix64(
      support::Hasher().u64(state.node()).u64(state.configHash()).digest());
}

bool hasOrWillReceive(const ExecutionState& receiver, std::uint64_t packetId) {
  for (const vm::CommRecord& rec : receiver.commLog)
    if (!rec.sent && rec.packetId == packetId) return true;
  for (const vm::PendingEvent& event : receiver.pendingEvents)
    if (event.kind == vm::EventKind::kRecv && event.b == packetId)
      return true;
  return false;
}

bool inDirectConflict(const ExecutionState& s, const ExecutionState& t) {
  // Sends from s to node(t) must be (eventually) received by t…
  for (const vm::CommRecord& rec : s.commLog)
    if (rec.sent && rec.peer == t.node() && !hasOrWillReceive(t, rec.packetId))
      return true;
  // …and receptions by s from node(t) must have been sent by t.
  for (const vm::CommRecord& rec : s.commLog) {
    if (rec.sent || rec.peer != t.node()) continue;
    const bool sentByT =
        std::any_of(t.commLog.begin(), t.commLog.end(),
                    [&](const vm::CommRecord& other) {
                      return other.sent && other.packetId == rec.packetId;
                    });
    if (!sentByT) return true;
  }
  return false;
}

std::size_t countConflicts(const StateGroup& group) {
  const std::vector<ExecutionState*> members = group.all();
  std::size_t conflicts = 0;
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (members[i]->isTerminal()) continue;
    for (std::size_t j = i + 1; j < members.size(); ++j) {
      if (members[j]->isTerminal()) continue;
      if (inDirectConflict(*members[i], *members[j]) ||
          inDirectConflict(*members[j], *members[i]))
        ++conflicts;
    }
  }
  return conflicts;
}

}  // namespace sde

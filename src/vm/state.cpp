#include "vm/state.hpp"

namespace sde::vm {

std::string_view stateStatusName(StateStatus status) {
  switch (status) {
    case StateStatus::kIdle:
      return "idle";
    case StateStatus::kRunning:
      return "running";
    case StateStatus::kFailed:
      return "failed";
    case StateStatus::kInfeasible:
      return "infeasible";
    case StateStatus::kKilled:
      return "killed";
  }
  return "?";
}

std::uint64_t PendingEvent::contentHash() const {
  support::Hasher h;
  h.u64(time).u64(static_cast<std::uint64_t>(kind)).u64(a);
  for (const expr::Ref& cell : payload) h.u64(cell->hash());
  return h.digest();
}

void CommLog::restoreSnapshot(Records records) {
  records_ = std::move(records);
  contentChain_ = 0;
  strictChain_ = 0;
  for (const CommRecord& rec : records_) {
    contentChain_ = support::hashCombine(contentChain_, rec.sent ? 1 : 0);
    contentChain_ = support::hashCombine(contentChain_, rec.peer);
    contentChain_ = support::hashCombine(contentChain_, rec.time);
    contentChain_ = support::hashCombine(contentChain_, rec.payloadHash);
    strictChain_ = support::hashCombine(strictChain_, rec.packetId);
  }
}

void EventQueue::restoreSnapshot(Events events) {
  events_ = std::move(events);
  contentMultiset_ = 0;
  strictRecvMultiset_ = 0;
  for (const PendingEvent& event : events_) noteInsert(event);
}

const ColdFields& ExecutionState::emptyCold() {
  static const ColdFields empty;
  return empty;
}

const Registers& ExecutionState::emptyRegs() {
  static const Registers empty{};
  return empty;
}

Registers& ExecutionState::mutableRegs() {
  if (regs_ == nullptr)
    regs_ = std::make_shared<Registers>();
  else if (regs_.use_count() > 1)
    regs_ = std::make_shared<Registers>(*regs_);
  return *regs_;
}

ColdFields& ExecutionState::mutableCold() {
  if (cold_ == nullptr)
    cold_ = std::make_shared<ColdFields>();
  else if (cold_.use_count() > 1)
    cold_ = std::make_shared<ColdFields>(*cold_);
  return *cold_;
}

std::unique_ptr<ExecutionState> ExecutionState::fork(StateId newId) const {
  auto clone = std::make_unique<ExecutionState>(newId, node_, *program_);
  clone->regs_ = regs_;                  // CoW-shared register file
  clone->pc = pc;
  clone->callStack = callStack;
  clone->space = space;                  // CoW-shared object table
  clone->constraints = constraints;      // chunk- and tail-shared
  clone->status = status;
  clone->clock = clock;
  clone->pendingEvents = pendingEvents;  // CoW-shared queue payload
  clone->nextEventSeq = nextEventSeq;
  clone->commLog = commLog;              // chunk- and tail-shared
  clone->decisions = decisions;          // chunk- and tail-shared
  clone->symbolics = symbolics;          // chunk- and tail-shared
  clone->executedInstructions = executedInstructions;
  clone->cold_ = cold_;                  // CoW-shared cold fields
  // Merge tokens are shared by design: the interpreter bumps each
  // inherited token's live count right after forking (fork() itself
  // cannot, because non-branch forks — failure forks, mapper clones —
  // happen between events when the stack is empty anyway).
  clone->mergeTokens = mergeTokens;
  return clone;
}

std::uint64_t ExecutionState::forkCopyCost() const {
  return constraints.copyCostElements() + commLog.copyCostElements() +
         decisions.copyCostElements() + symbolics.copyCostElements();
}

std::uint64_t ExecutionState::forkSharedChunks() const {
  return constraints.sharedChunksOnCopy() + commLog.sharedChunksOnCopy() +
         decisions.sharedChunksOnCopy() + symbolics.sharedChunksOnCopy() +
         pendingEvents.sharedChunksOnCopy();
}

namespace {

// The private bytes of a state outside its sequences: the fixed object
// price plus its per-state containers (the cold ones billed to every
// state that shares them), as a deterministic function of the state's
// shape (sizes, not capacities, so the total survives checkpoint/restore
// byte-for-byte).
std::uint64_t ownBytes(const ExecutionState& state) {
  const ColdFields& cold = state.cold();
  std::uint64_t bytes = kStateObjectBytes;
  bytes += state.callStack.size() * sizeof(std::size_t);
  bytes += cold.failureMessage.size();
  bytes += cold.activeTimers.size() *
           (sizeof(std::uint32_t) + sizeof(std::uint64_t));
  for (const auto& [label, count] : cold.symbolicCounters)
    bytes += label.size() + sizeof(count);
  for (const MergeGuard& g : cold.mergeGuards)
    bytes += sizeof(MergeGuard) +
             (g.ifTrue.size() + g.ifFalse.size()) * sizeof(expr::Ref) +
             (g.decTrue.size() + g.decFalse.size()) * sizeof(DecisionRecord) +
             (g.objsTrueOnly.size() + g.objsFalseOnly.size()) *
                 sizeof(std::uint64_t);
  return bytes;
}

}  // namespace

std::uint64_t ExecutionState::privateBytes() const {
  return ownBytes(*this) + constraints.privateBytes() +
         commLog.privateBytes() + decisions.privateBytes() +
         symbolics.privateBytes();
}

std::uint64_t ExecutionState::accountBytes(support::SeenSet& seen) const {
  return ownBytes(*this) + space.accountBytes(seen) +
         constraints.accountBytes(seen) + commLog.accountBytes(seen) +
         decisions.accountBytes(seen) + symbolics.accountBytes(seen) +
         pendingEvents.accountBytes(seen);
}

std::uint64_t ExecutionState::configHash() const {
  support::Hasher h;
  h.u64(node_).u64(pc).u64(static_cast<std::uint64_t>(status)).u64(clock);
  for (const std::size_t ret : callStack) h.u64(ret);
  for (const expr::Ref& reg : regs()) h.u64(reg == nullptr ? 0 : reg->hash());
  h.u64(space.contentHash());
  h.u64(constraints.setHash());
  // Pending events: an order-independent multiset fingerprint maintained
  // incrementally by the queue (arming order is deterministic per
  // logical execution, so nothing is lost by dropping it here).
  h.u64(pendingEvents.contentHash());
  // Communication history without packet ids: the ids number packets
  // globally per run and differ across mapping algorithms, while the
  // logical history (direction, peer, time, content) does not. The chain
  // is maintained on append, never recomputed.
  h.u64(commLog.contentChainHash());
  h.str(cold().failureMessage);
  return h.digest();
}

std::uint64_t ExecutionState::configHashStrict(std::uint64_t content) const {
  support::Hasher h;
  h.u64(content);
  // Distinguish packets by identity on top of the content view: in the
  // paper's model two transmissions are never "the same packet", even
  // when byte-identical.
  h.u64(pendingEvents.strictRecvHash());
  h.u64(commLog.strictChainHash());
  return h.digest();
}

}  // namespace sde::vm

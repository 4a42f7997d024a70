#include "sde/engine.hpp"

#include <algorithm>

#include "support/logging.hpp"

namespace sde {

using support::statId;

std::string_view runOutcomeName(RunOutcome outcome) {
  switch (outcome) {
    case RunOutcome::kCompleted:
      return "completed";
    case RunOutcome::kAbortedStates:
      return "aborted (state cap)";
    case RunOutcome::kAbortedMemory:
      return "aborted (memory cap)";
    case RunOutcome::kAbortedEvents:
      return "aborted (event cap)";
    case RunOutcome::kAbortedWallTime:
      return "aborted (wall-clock cap)";
    case RunOutcome::kSuspended:
      return "suspended";
  }
  return "?";
}

namespace {

// The engine-level mergeStates switch is authoritative; the interpreter
// flag mirrors it so the join-point parking machinery engages.
vm::InterpConfig interpConfigFor(const EngineConfig& config) {
  vm::InterpConfig ic = config.interp;
  ic.mergeStates = ic.mergeStates || config.mergeStates;
  return ic;
}

}  // namespace

Engine::Engine(const os::NetworkPlan& plan, MapperKind mapperKind,
               EngineConfig config)
    : plan_(plan),
      config_(config),
      solver_(ctx_, config.solver),
      interp_(ctx_, solver_, interpConfigFor(config)),
      mapper_(makeMapper(mapperKind, plan.topology().numNodes())),
      failureModel_(std::make_unique<net::NoFailures>()),
      interpSink_(*this),
      mapperRuntime_(*this),
      ledger_(support::MemoryLedger::create()),
      merger_(ctx_) {
  SDE_ASSERT(plan_.complete(), "every node needs a program before running");
  config_.mergeStates = config_.mergeStates || config_.interp.mergeStates;
  config_.interp.mergeStates = config_.mergeStates;
  interp_.setNumNodes(plan_.topology().numNodes());
}

void Engine::setFailureModel(std::unique_ptr<net::FailureModel> model) {
  SDE_ASSERT(model != nullptr, "null failure model");
  failureModel_ = std::move(model);
}

void Engine::setBootGlobal(net::NodeId node, std::uint64_t slot,
                           std::uint64_t value) {
  SDE_ASSERT(!booted_, "boot globals must be set before run()");
  bootGlobals_[node][slot] = value;
}

void Engine::boot() {
  SDE_ASSERT(!booted_, "boot() called twice");
  booted_ = true;

  // Deterministic node order regardless of plan insertion order.
  std::vector<os::NodeConfig> configs = plan_.nodes();
  std::sort(configs.begin(), configs.end(),
            [](const os::NodeConfig& a, const os::NodeConfig& b) {
              return a.id < b.id;
            });

  std::vector<ExecutionState*> initial;
  for (const os::NodeConfig& node : configs) {
    auto state = std::make_unique<ExecutionState>(nextStateId_++, node.id,
                                                  *node.program);
    os::setupBoot(ctx_, *state, node.bootTime);
    const auto it = bootGlobals_.find(node.id);
    if (it != bootGlobals_.end())
      for (const auto& [slot, value] : it->second)
        state->space.store(vm::kGlobalsObject, slot, ctx_.constant(value, 64));
    initial.push_back(state.get());
    byId_.slot(state->id()) = state.get();
    states_.push_back(std::move(state));
  }
  stats_.set(statId<"engine.initial_states">(), initial.size());
  mapper_->registerInitialStates(initial);
  for (ExecutionState* state : initial) {
    scheduler_.registerState(*state);
    notePriceChange(*state);
  }
  if (trace_ != nullptr) {
    for (const ExecutionState* state : initial) {
      obs::TraceEvent event;
      event.kind = obs::TraceEventKind::kStateCreate;
      event.node = state->node();
      event.stateId = state->id();
      trace_->emit(event);
    }
  }
}

void Engine::setTraceSink(obs::TraceSink* sink) {
  trace_ = sink;
  solver_.setTraceSink(sink);
}

void Engine::setProfiler(obs::PhaseProfiler* profiler) {
  profiler_ = profiler;
  solver_.setProfiler(profiler);
}

ExecutionState& Engine::cloneInternal(ExecutionState& original) {
  // Fork cost is a deterministic structural function of the parent
  // (sequence tails + CoW queue), recorded before the fork and carried
  // on the kStateFork trace event — the observable backing the O(1)
  // fork claim.
  lastForkCopiedElements_ = original.forkCopyCost();
  lastForkSharedChunks_ = original.forkSharedChunks();
  auto clone = original.fork(nextStateId_++);
  ExecutionState& ref = *clone;
  byId_.slot(ref.id()) = &ref;
  states_.push_back(std::move(clone));
  touched_.push_back(&ref);
  stats_.add(statId<"engine.forks_total">());
  stats_.add(statId<"engine.fork_copied_elements">(), lastForkCopiedElements_);
  stats_.add(statId<"engine.fork_shared_chunks">(), lastForkSharedChunks_);
  stats_.maxOf(statId<"engine.peak_states">(), states_.size());
  return ref;
}

ExecutionState& Engine::forkLocal(ExecutionState& original,
                                  obs::ForkCause cause) {
  ExecutionState& sibling = cloneInternal(original);
  stats_.add(statId<"engine.forks_local">());
  if (trace_ != nullptr) {
    obs::TraceEvent event;
    event.kind = obs::TraceEventKind::kStateFork;
    event.detail = static_cast<std::uint8_t>(cause);
    event.node = original.node();
    event.stateId = sibling.id();
    event.parentStateId = original.id();
    event.a = lastForkCopiedElements_;
    event.b = lastForkSharedChunks_;
    trace_->emit(event);
  }
  {
    obs::ScopedPhase phase(profiler_, obs::Phase::kMapping);
    mapper_->onLocalBranch(original, sibling, mapperRuntime_);
  }
  return sibling;
}

ExecutionState& Engine::InterpSink::forkState(ExecutionState& original) {
  return engine_.forkLocal(original, obs::ForkCause::kBranch);
}

void Engine::InterpSink::onSend(ExecutionState& sender, NodeId dst,
                                std::vector<expr::Ref> payload) {
  engine_.touched_.push_back(&sender);
  if (dst == net::kBroadcastAddress) {
    // Broadcast as a series of unicasts to the radio neighbourhood
    // (paper §II-B footnote 1).
    for (NodeId neighbor : engine_.topology().neighbors(sender.node()))
      engine_.sendOne(sender, neighbor, payload);
    return;
  }
  engine_.sendOne(sender, dst, payload);
}

bool Engine::InterpSink::tryMerge(ExecutionState& survivor,
                                  ExecutionState& absorbed) {
  obs::ScopedPhase phase(engine_.profiler_, obs::Phase::kMerge);
  return engine_.tryMergeStates(survivor, absorbed);
}

void Engine::InterpSink::onLog(ExecutionState& state,
                               std::string_view message, expr::Ref value) {
  if (support::logLevel() <= support::LogLevel::kDebug) {
    support::logDebug("node", std::string(message) + " [node " +
                                  std::to_string(state.node()) + " state " +
                                  std::to_string(state.id()) + " value " +
                                  (value->isConstant()
                                       ? std::to_string(value->value())
                                       : std::string("<symbolic>")) +
                                  "]");
  }
}

ExecutionState& Engine::Runtime::forkState(ExecutionState& original) {
  ExecutionState& clone = engine_.cloneInternal(original);
  engine_.stats_.add(statId<"engine.forks_mapping">());
  if (engine_.trace_ != nullptr) {
    obs::TraceEvent event;
    event.kind = obs::TraceEventKind::kStateFork;
    event.detail = static_cast<std::uint8_t>(obs::ForkCause::kMapping);
    event.node = original.node();
    event.stateId = clone.id();
    event.parentStateId = original.id();
    event.a = engine_.lastForkCopiedElements_;
    event.b = engine_.lastForkSharedChunks_;
    engine_.trace_->emit(event);
  }
  return clone;
}

support::StatsRegistry& Engine::Runtime::stats() { return engine_.stats_; }

obs::TraceSink* Engine::Runtime::trace() { return engine_.trace_; }

void Engine::sendOne(ExecutionState& sender, NodeId dst,
                     const std::vector<expr::Ref>& payload) {
  const auto numNodes = topology().numNodes();
  if (dst >= numNodes || dst == sender.node() ||
      !topology().hasEdge(sender.node(), dst)) {
    // Out of radio range (or self/bogus destination): the transmission
    // is lost. Counted — a protocol bug a test may want to see.
    stats_.add(statId<"net.undeliverable">());
    return;
  }

  net::Packet packet;
  packet.id = nextPacketId_++;
  packet.src = sender.node();
  packet.dst = dst;
  packet.sendTime = sender.clock;
  packet.payload = payload;

  std::vector<ExecutionState*> receivers;
  {
    obs::ScopedPhase phase(profiler_, obs::Phase::kMapping);
    receivers = mapper_->onTransmit(sender, packet, mapperRuntime_);
  }
  stats_.add(statId<"engine.packets">());
  if (trace_ != nullptr) {
    obs::TraceEvent event;
    event.kind = obs::TraceEventKind::kPacketTransmit;
    event.node = sender.node();
    event.peer = dst;
    event.stateId = sender.id();
    event.packetId = packet.id;
    event.a = receivers.size();
    trace_->emit(event);
  }

  sender.commLog.push_back({/*sent=*/true, dst, sender.clock,
                            packet.payloadHash(), packet.id});

  for (ExecutionState* receiver : receivers) {
    SDE_ASSERT(receiver->node() == dst, "receiver on the wrong node");
    vm::PendingEvent event;
    event.time = sender.clock + config_.linkLatency;
    event.kind = vm::EventKind::kRecv;
    event.a = packet.src;
    event.b = packet.id;
    event.payload = packet.payload;
    event.seq = receiver->nextEventSeq++;
    receiver->pendingEvents.push_back(std::move(event));
    touched_.push_back(receiver);
  }
}

Engine::FailureVariable Engine::makeFailureVariable(ExecutionState& state,
                                                    std::string_view label) {
  // Mirrors the interpreter's kSymbolic naming so failure decisions are
  // first-class symbolic inputs in generated test cases.
  const std::string key(label);
  const std::uint32_t n = state.mutableCold().symbolicCounters[key]++;
  std::string name = "n" + std::to_string(state.node()) + "." + key + "." +
                     std::to_string(n);
  const expr::Ref var = ctx_.variable(name, 1);
  state.symbolics.push_back(var);
  return FailureVariable{var, std::move(name)};
}

// Runs one branch of a failure decision on `state`: failed = false is
// the normal delivery, failed = true the failure semantics of `kind`.
void Engine::applyFailureBranch(ExecutionState& state, net::FailureKind kind,
                                bool failed, const vm::PendingEvent& event) {
  if (!failed) {
    deliver(state, event);
    return;
  }
  switch (kind) {
    case net::FailureKind::kDrop:
      // The radio received the packet (the communication history stays
      // conflict-free) but the stack dropped it — no handler runs.
      break;
    case net::FailureKind::kDuplicate:
      if (!state.isTerminal()) {
        deliver(state, event);  // first copy
        if (!state.isTerminal()) {
          const vm::PendingEvent dup = event;
          deliver(state, dup);  // duplicated delivery
        }
      }
      break;
    case net::FailureKind::kReboot:
      if (!state.isTerminal()) os::reboot(ctx_, state, event.time);
      break;
    case net::FailureKind::kNone:
      SDE_UNREACHABLE("kNone is not a failure branch");
  }
}

void Engine::appendRecvRecord(ExecutionState& state,
                              const vm::PendingEvent& event) {
  net::Packet view;
  view.payload = event.payload;
  state.commLog.push_back({/*sent=*/false, static_cast<NodeId>(event.a),
                           event.time, view.payloadHash(), event.b});
  if (trace_ != nullptr) {
    obs::TraceEvent record;
    record.kind = obs::TraceEventKind::kPacketDeliver;
    record.node = state.node();
    record.peer = static_cast<NodeId>(event.a);
    record.stateId = state.id();
    record.packetId = event.b;
    trace_->emit(record);
  }
}

void Engine::deliver(ExecutionState& state, const vm::PendingEvent& event) {
  os::dispatchEvent(ctx_, interp_, state, event, interpSink_);
}

void Engine::processEvent(ExecutionState& state, vm::PendingEvent event) {
  virtualNow_ = std::max(virtualNow_, event.time);
  if (trace_ != nullptr) trace_->setAmbientTime(virtualNow_);
  touched_.push_back(&state);

  if (event.kind != vm::EventKind::kRecv) {
    if (config_.loopSummarize && event.kind == vm::EventKind::kTimer) {
      const std::uint64_t preSignature =
          loopSignature(state, static_cast<std::uint32_t>(event.a));
      if (tryLoopFastPath(state, event, preSignature)) return;
      deliver(state, event);
      noteLoopObservation(state, event, preSignature);
      return;
    }
    deliver(state, event);
    return;
  }

  // Network failure injection (§IV-A): consulted per delivery, above the
  // mapping layer. The radio reception itself happened in every branch —
  // the communication history stays conflict-free — and the symbolic
  // failure variable decides what the node's stack observes.
  net::Packet view;
  view.id = event.b;
  view.src = static_cast<NodeId>(event.a);
  view.dst = state.node();
  view.payload = event.payload;
  const net::FailureDecision decision =
      failureModel_->onDelivery(state, view);

  if (decision.kind == net::FailureKind::kNone) {
    appendRecvRecord(state, event);
    deliver(state, event);
    return;
  }

  const FailureVariable failVar = makeFailureVariable(state, decision.label);
  appendRecvRecord(state, event);

  const auto forced = decisionFilter_.find(failVar.name);
  if (forced != decisionFilter_.end()) {
    // Replay / partition mode: take only the filtered branch. The path
    // constraint and decision record match the corresponding branch of
    // an unfiltered run exactly; the other branch belongs to a
    // different partition job (or was not the recorded decision).
    const bool failed = forced->second;
    state.constraints.add(failed ? failVar.var
                                 : ctx_.logicalNot(failVar.var));
    state.decisions.push_back({failVar.var, failed});
    stats_.add(statId<"engine.forced_decisions">());
    applyFailureBranch(state, decision.kind, failed, event);
    return;
  }

  // Local-branch fork: the mapper treats failure forks exactly like
  // program branches (they are triggered by local state only).
  ExecutionState& failing = forkLocal(state, obs::ForkCause::kFailure);
  state.constraints.add(ctx_.logicalNot(failVar.var));
  failing.constraints.add(failVar.var);
  state.decisions.push_back({failVar.var, false});
  failing.decisions.push_back({failVar.var, true});
  stats_.add(statId<"engine.failure_forks">());

  applyFailureBranch(state, decision.kind, /*failed=*/false, event);
  if (!failing.isTerminal())
    applyFailureBranch(failing, decision.kind, /*failed=*/true, event);
}

bool Engine::tryMergeStates(ExecutionState& survivor,
                            ExecutionState& absorbed) {
  if (!config_.mergeStates) return false;
  SDE_ASSERT(survivor.id() < absorbed.id(),
             "the merge survivor is the earlier-created state");
  if (!merger_.compatible(survivor, absorbed)) {
    stats_.add(statId<"engine.merges_declined_incompatible">());
    return false;
  }
  if (!mapper_->canMerge(survivor, absorbed)) {
    stats_.add(statId<"engine.merges_declined_mapper">());
    return false;
  }
  const expr::Ref guard =
      ctx_.variable("mrg." + std::to_string(nextMergeGuard_), 1);
  if (!merger_.merge(survivor, absorbed, guard)) {
    stats_.add(statId<"engine.merges_declined_algebra">());
    return false;
  }
  ++nextMergeGuard_;
  pendingReaps_.push_back(&absorbed);
  std::uint64_t removed = 1;
  for (ExecutionState* extra : mapper_->onStatesMerged(survivor, absorbed)) {
    SDE_ASSERT(extra->mergedAway,
               "mapper merge casualties must be marked mergedAway");
    pendingReaps_.push_back(extra);
    ++removed;
  }
  stats_.add(statId<"engine.merges">());
  stats_.add(statId<"engine.merge_removed_states">(), removed);
  if (trace_ != nullptr) {
    obs::TraceEvent event;
    event.kind = obs::TraceEventKind::kStateMerge;
    event.node = survivor.node();
    event.stateId = survivor.id();
    event.parentStateId = absorbed.id();
    event.a = removed;
    trace_->emit(event);
  }
  return true;
}

void Engine::mergeSweep() {
  // Candidates: this event's touched states that ended idle. Sorted and
  // deduped by id so the earliest-created compatible state survives —
  // the same orientation the join-point parking uses.
  std::vector<ExecutionState*> candidates;
  for (ExecutionState* state : touched_) {
    if (state->mergedAway || state->status != vm::StateStatus::kIdle) continue;
    candidates.push_back(state);
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const ExecutionState* a, const ExecutionState* b) {
              return a->id() < b->id();
            });
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    ExecutionState* survivor = candidates[i];
    if (survivor->mergedAway) continue;
    for (std::size_t j = i + 1; j < candidates.size(); ++j) {
      ExecutionState* other = candidates[j];
      if (other->mergedAway) continue;
      tryMergeStates(*survivor, *other);
    }
  }
}

void Engine::reapMergedStates() {
  // Settle the meter's queue while every queued state is still alive;
  // the reaped states' private bytes then leave the total with them.
  priceTouchedStates();
  // Only live states have a byId_ slot, so an emptied slot marks a
  // reaped state (and a state listed twice is reaped once).
  const auto reaped = [this](const ExecutionState* state) {
    return byId_[state->id()] == nullptr;
  };
  for (ExecutionState* state : pendingReaps_) {
    SDE_ASSERT(state->mergedAway, "reaping a state that was not merged away");
    if (reaped(state)) continue;
    if (state->id() < privateBytes_.size()) {
      privateTotal_ -= privateBytes_[state->id()];
      privateBytes_[state->id()] = 0;
    }
    byId_.erase(state->id());
    // Forget the summariser's observations of the state.
    auto it = loopDetector_.lower_bound({state->id(), 0});
    while (it != loopDetector_.end() && it->first.first == state->id())
      it = loopDetector_.erase(it);
  }
  pendingReaps_.clear();
  touched_.erase(std::remove_if(touched_.begin(), touched_.end(), reaped),
                 touched_.end());
  // Scheduler heap entries of reaped states go stale and are dropped
  // lazily on pop (byId_ no longer resolves the id).
  states_.erase(std::remove_if(states_.begin(), states_.end(),
                               [&](const std::unique_ptr<ExecutionState>& s) {
                                 return reaped(s.get());
                               }),
                states_.end());
}

std::uint64_t Engine::loopSignature(const ExecutionState& state,
                                    std::uint32_t timerId) const {
  // Everything the fast path does not update must be pinned by the
  // signature; what it replays deterministically (clock, the re-armed
  // event's seq, the fuel counter) is excluded. The fired event is
  // already popped from the queue when this runs.
  support::Hasher h;
  h.u64(static_cast<std::uint64_t>(state.status));
  h.u64(state.pc);
  h.u64(state.space.contentHash());
  h.u64(state.constraints.setHash());
  h.u64(state.commLog.size());
  h.u64(state.commLog.contentChainHash());
  h.u64(state.commLog.strictChainHash());
  h.u64(state.symbolics.size());
  h.u64(state.cold().mergeGuards.size());
  h.u64(state.pendingEvents.contentHash());
  h.u64(state.pendingEvents.strictRecvHash());
  for (const expr::Ref& r : state.regs()) h.u64(r == nullptr ? 0 : r->hash());
  for (const auto& [timer, seq] : state.cold().activeTimers) {
    if (timer == timerId) continue;  // its seq advances every re-arm
    h.u64(timer);
    h.u64(seq);
  }
  return h.digest();
}

bool Engine::tryLoopFastPath(ExecutionState& state,
                             const vm::PendingEvent& event,
                             std::uint64_t preSignature) {
  const auto timerId = static_cast<std::uint32_t>(event.a);
  const auto it = loopDetector_.find({state.id(), timerId});
  if (it == loopDetector_.end() || !it->second.armed) return false;
  const LoopEntry& entry = it->second;
  if (entry.signature != preSignature) return false;
  // Replay the recorded iteration: the handler's only effects were the
  // clock update and one constant-delay re-arm of this same timer.
  state.clock = event.time;
  vm::PendingEvent next;
  next.time = event.time + entry.period;
  next.kind = vm::EventKind::kTimer;
  next.a = timerId;
  next.seq = state.nextEventSeq++;
  state.mutableCold().activeTimers[timerId] = next.seq;
  state.pendingEvents.push_back(std::move(next));
  state.executedInstructions += entry.instructions;
  stats_.add(statId<"engine.loop_summaries">());
  stats_.add(statId<"engine.loop_summarized_instructions">(),
             entry.instructions);
  if (trace_ != nullptr) {
    obs::TraceEvent record;
    record.kind = obs::TraceEventKind::kLoopSummary;
    record.node = state.node();
    record.stateId = state.id();
    record.a = timerId;
    record.b = entry.period;
    trace_->emit(record);
  }
  return true;
}

void Engine::noteLoopObservation(ExecutionState& state,
                                 const vm::PendingEvent& event,
                                 std::uint64_t preSignature) {
  const auto timerId = static_cast<std::uint32_t>(event.a);
  const auto key = std::make_pair(state.id(), timerId);
  const vm::EventEffects& effects = interp_.lastEventEffects();
  const bool clean = state.status == vm::StateStatus::kIdle &&
                     !effects.usedNow && effects.sends == 0 &&
                     effects.symbolicsMinted == 0 && effects.forks == 0 &&
                     effects.timerOps == 1 && effects.rearmConstant &&
                     effects.rearmTimerId == timerId;
  if (!clean) {
    loopDetector_.erase(key);
    return;
  }
  const auto [it, inserted] = loopDetector_.try_emplace(key);
  LoopEntry& entry = it->second;
  if (!inserted && entry.signature == preSignature &&
      entry.period == effects.rearmDelay) {
    entry.instructions = effects.instructions;
    if (++entry.streak >= 2) entry.armed = true;
  } else {
    entry = LoopEntry{preSignature, effects.rearmDelay, effects.instructions,
                      /*streak=*/1, /*armed=*/false};
  }
}

std::optional<RunOutcome> Engine::checkCaps() {
  // External suspend outranks every cap: the requester wants the
  // checkpoint written NOW, not after more exploration.
  if (suspendRequested_.load(std::memory_order_relaxed))
    return RunOutcome::kSuspended;
  if (config_.maxStates != 0 && states_.size() >= config_.maxStates)
    return RunOutcome::kAbortedStates;
  if (config_.maxEvents != 0 && eventsProcessed_ >= config_.maxEvents)
    return RunOutcome::kAbortedEvents;
  if (config_.maxWallSeconds != 0 && wallSeconds() >= config_.maxWallSeconds)
    return RunOutcome::kAbortedWallTime;
  return std::nullopt;
}

void Engine::sampleAndCheck() {
  obs::ScopedPhase phase(profiler_, obs::Phase::kSampling);
  if (sampler_) sampler_(*this);
  if (config_.checkInvariants) mapper_->checkInvariants();
}

RunOutcome Engine::run(std::uint64_t untilVirtualTime) {
  // Blocks this run makes bill this engine's ledger (DESIGN.md §14).
  const support::MemoryLedger::Scope ledgerScope(ledger_.get());
  if (!booted_) boot();
  running_ = true;
  runStart_ = std::chrono::steady_clock::now();
  RunOutcome outcome = RunOutcome::kCompleted;

  const auto resolve = [this](StateId id) { return byId_[id]; };

  std::uint64_t nextSampleAt = eventsProcessed_;
  const auto sampleGap = [this]() -> std::uint64_t {
    const std::uint64_t base = std::max<std::uint64_t>(
        config_.sampleEveryEvents, 1);
    if (!config_.adaptiveSampling) return base;
    return std::max<std::uint64_t>(base, states_.size() / 8);
  };

  while (true) {
    if (const auto aborted = checkCaps()) {
      outcome = *aborted;
      break;
    }
    if (eventsProcessed_ >= nextSampleAt) {
      // The memory cap is checked at sampling points only, so it may
      // overshoot by up to one gap (DESIGN.md §9).
      if (config_.maxSimulatedMemoryBytes != 0) {
        obs::ScopedPhase phase(profiler_, obs::Phase::kSampling);
        if (simulatedMemoryBytes() >= config_.maxSimulatedMemoryBytes) {
          outcome = RunOutcome::kAbortedMemory;
          break;
        }
      }
      sampleAndCheck();
      if (checkpointSink_ && checkpointEveryEvents_ != 0 &&
          eventsProcessed_ - lastCheckpointAt_ >= checkpointEveryEvents_) {
        checkpointSink_(*this);
        lastCheckpointAt_ = eventsProcessed_;
      }
      nextSampleAt = eventsProcessed_ + sampleGap();
    }

    decltype(scheduler_.pop(untilVirtualTime, resolve)) popped;
    {
      obs::ScopedPhase phase(profiler_, obs::Phase::kScheduler);
      popped = scheduler_.pop(untilVirtualTime, resolve);
    }
    if (!popped) break;

    // Same-key batch stepping: consecutive ready events dispatching the
    // same handler — equal (time, node, kind, timer/sender id), differing
    // only in which sibling state receives them, the shape forking
    // produces en masse — are stepped in one block. The pop sequence,
    // per-event processing and re-registration are exactly the per-event
    // loop's (the continuation probe consumes the scheduler head only
    // when it extends the batch), so delivery release order and digests
    // are unchanged; the batch amortizes the outer-loop housekeeping.
    const std::uint64_t batchTime = popped->event.time;
    const auto batchNode = popped->state->node();
    const auto batchKind = popped->event.kind;
    const auto batchA = popped->event.a;
    std::uint64_t batchLen = 0;
    while (true) {
      touched_.clear();
      {
        obs::ScopedPhase phase(profiler_, obs::Phase::kInterp);
        processEvent(*popped->state, std::move(popped->event));
      }
      popped.reset();
      if (config_.mergeStates) {
        obs::ScopedPhase phase(profiler_, obs::Phase::kMerge);
        mergeSweep();
        // Deferred removal: nothing holds a pointer into the absorbed
        // states once the event is fully processed.
        if (!pendingReaps_.empty()) reapMergedStates();
      }
      ++eventsProcessed_;
      ++batchLen;

      {
        // Re-register every state whose timeline changed (the dispatched
        // state, forked siblings, delivery receivers). Duplicate heap
        // entries are validated away on pop.
        obs::ScopedPhase phase(profiler_, obs::Phase::kScheduler);
        std::sort(touched_.begin(), touched_.end(),
                  [](const ExecutionState* a, const ExecutionState* b) {
                    return a->id() < b->id();
                  });
        touched_.erase(std::unique(touched_.begin(), touched_.end()),
                       touched_.end());
        for (ExecutionState* state : touched_) scheduler_.registerState(*state);
        if (trace_ != nullptr) {
          // "Became terminal this step", exactly once per state.
          for (const ExecutionState* state : touched_) {
            if (!state->isTerminal() || traceTerminated_[state->id()] != 0)
              continue;
            traceTerminated_.slot(state->id()) = 1;
            obs::TraceEvent record;
            record.kind = obs::TraceEventKind::kStateTerminate;
            record.node = state->node();
            record.stateId = state->id();
            trace_->emit(record);
          }
        }
      }
      for (const ExecutionState* state : touched_) notePriceChange(*state);
      if (config_.checkInvariants) {
        SDE_ASSERT(simulatedMemoryBytes() == auditMemoryBytes(),
                   "the memory ledger disagrees with the audit walk");
      }

      if (!config_.batchEvents) break;
      // Sampling, checkpointing and cap aborts happen between batches,
      // at the exact event counts the per-event loop would hit them.
      if (eventsProcessed_ >= nextSampleAt) break;
      if (checkCaps()) break;  // the outer loop re-checks and aborts
      {
        obs::ScopedPhase phase(profiler_, obs::Phase::kScheduler);
        popped = scheduler_.popMatching(
            untilVirtualTime, resolve,
            [&](const Scheduler::Entry& entry, const ExecutionState& next,
                const vm::PendingEvent& event) {
              return entry.time == batchTime && next.node() == batchNode &&
                     event.kind == batchKind && event.a == batchA;
            });
      }
      if (!popped) break;
    }
    // One counter write per batch instead of per event; every observer
    // (sampling, checkpoints, end-of-run reports) runs at batch
    // boundaries, so the visible counter trajectory is the baseline's.
    // Batch shape diagnostics stay plain members (not registry counters):
    // where a batch happens to break depends on suspend cuts and sampling
    // cadence, so folding them into the stats registry would violate the
    // checkpoint invariant that every serialized counter converges to the
    // uninterrupted run's totals.
    stats_.add(statId<"engine.events">(), batchLen);
    ++batches_;
    if (batchLen > 1) batchedEvents_ += batchLen - 1;
  }

  if (outcome == RunOutcome::kCompleted)
    virtualNow_ = std::max(virtualNow_, untilVirtualTime);
  sampleAndCheck();
  if (profiler_ != nullptr) {
    // Attach the interpreter's opcode histogram (cumulative across runs;
    // re-attaching replaces the previous snapshot's entries).
    std::vector<obs::PhaseProfile::OpEntry> opcodes;
    for (const auto& entry : interp_.opcodeProfile())
      opcodes.push_back({entry.name, entry.count, entry.nanos});
    profiler_->setOpcodes(std::move(opcodes));
  }
  running_ = false;
  wallSecondsAccumulated_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    runStart_)
          .count();
  stats_.maxOf(statId<"engine.peak_memory_bytes">(), simulatedMemoryBytes());
  if (outcome != RunOutcome::kCompleted) {
    // A cap latch suspends instead of discarding: the final checkpoint
    // captures the exact abort point, so a resumed run (with the cap
    // lifted) completes as if never interrupted.
    if (checkpointSink_) checkpointSink_(*this);
  }
  return outcome;
}

double Engine::wallSeconds() const {
  double total = wallSecondsAccumulated_;
  if (running_)
    total += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           runStart_)
                 .count();
  return total;
}

std::uint64_t Engine::numLiveStates() const {
  return static_cast<std::uint64_t>(
      std::count_if(states_.begin(), states_.end(), [](const auto& state) {
        return !state->isTerminal();
      }));
}

std::vector<ExecutionState*> Engine::statesOfNode(NodeId node) const {
  std::vector<ExecutionState*> result;
  for (const auto& state : states_)
    if (state->node() == node) result.push_back(state.get());
  return result;
}

void Engine::notePriceChange(const ExecutionState& state) {
  if (state.id() >= privateBytes_.size()) privateBytes_.resize(state.id() + 1);
  std::uint64_t& entry = privateBytes_[state.id()];
  if ((entry & kQueued) != 0) return;
  entry |= kQueued;
  unpriced_.push_back(&state);
}

void Engine::priceTouchedStates() const {
  for (const ExecutionState* state : unpriced_) {
    std::uint64_t& entry = privateBytes_[state->id()];
    const std::uint64_t bytes = state->privateBytes();
    privateTotal_ += bytes - (entry & ~kQueued);
    entry = bytes;
  }
  unpriced_.clear();
}

std::uint64_t Engine::simulatedMemoryBytes() const {
  // Every shared block — memory payloads, sealed history chunks, CoW
  // event queues — is billed once however many states share it, so the
  // total is what a deduplicated heap would hold (the quantity the
  // paper's Table I RAM column caps).
  priceTouchedStates();
  return ledger_->bytes() + privateTotal_;
}

std::uint64_t Engine::auditMemoryBytes() const {
  auditSeen_.reset();
  std::uint64_t total = 0;
  for (const auto& state : states_) total += state->accountBytes(auditSeen_);
  return total;
}


}  // namespace sde

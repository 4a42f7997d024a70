#include "vm/interp.hpp"

#include <algorithm>
#include <chrono>
#include <deque>

namespace sde::vm {

using support::statId;

namespace {

// Applies a 64-bit ALU operation through the expression builder.
expr::Ref applyAlu(expr::Context& ctx, Op op, expr::Ref a, expr::Ref b) {
  switch (op) {
    case Op::kAdd:
      return ctx.add(a, b);
    case Op::kSub:
      return ctx.sub(a, b);
    case Op::kMul:
      return ctx.mul(a, b);
    case Op::kUDiv:
      return ctx.udiv(a, b);
    case Op::kURem:
      return ctx.urem(a, b);
    case Op::kSDiv:
      return ctx.sdiv(a, b);
    case Op::kSRem:
      return ctx.srem(a, b);
    case Op::kAnd:
      return ctx.bvAnd(a, b);
    case Op::kOr:
      return ctx.bvOr(a, b);
    case Op::kXor:
      return ctx.bvXor(a, b);
    case Op::kShl:
      return ctx.shl(a, b);
    case Op::kLShr:
      return ctx.lshr(a, b);
    case Op::kAShr:
      return ctx.ashr(a, b);
    case Op::kEq:
      return ctx.zext(ctx.eq(a, b), 64);
    case Op::kNe:
      return ctx.zext(ctx.ne(a, b), 64);
    case Op::kUlt:
      return ctx.zext(ctx.ult(a, b), 64);
    case Op::kUle:
      return ctx.zext(ctx.ule(a, b), 64);
    case Op::kSlt:
      return ctx.zext(ctx.slt(a, b), 64);
    case Op::kSle:
      return ctx.zext(ctx.sle(a, b), 64);
    default:
      SDE_UNREACHABLE("applyAlu: not an ALU op");
  }
}

}  // namespace

expr::Ref Interpreter::reg(ExecutionState& state, std::uint8_t index) const {
  SDE_ASSERT(index < kNumRegisters, "register out of range");
  expr::Ref v = state.regs()[index];
  return v == nullptr ? zero64() : v;
}

void Interpreter::setReg(ExecutionState& state, std::uint8_t index,
                         expr::Ref value) {
  SDE_ASSERT(index < kNumRegisters, "register out of range");
  SDE_ASSERT(value->width() == 64, "registers hold 64-bit words");
  state.mutableRegs()[index] = value;
}

void Interpreter::kill(ExecutionState& state, std::string_view why) {
  state.status = StateStatus::kKilled;
  state.mutableCold().failureMessage = std::string(why);
  stats_.add(statId<"vm.killed">());
}

std::uint64_t Interpreter::concretize(ExecutionState& state,
                                      expr::Ref value) {
  if (value->isConstant()) return value->value();
  stats_.add(statId<"vm.concretizations">());
  const auto v = solver_.getValue(state.constraints, value);
  SDE_ASSERT(v.has_value(),
             "concretize on an infeasible state (engine must not schedule "
             "infeasible states)");
  // Pin the state to the chosen value so later paths stay consistent.
  state.constraints.add(ctx_.eq(value, ctx_.constant(*v, 64)));
  return *v;
}

void Interpreter::runEvent(ExecutionState& state, Entry entry,
                           std::span<const expr::Ref> args, EffectSink& sink) {
  SDE_ASSERT(state.status == StateStatus::kIdle, "runEvent on non-idle state");
  const auto entryPc = state.program().entry(entry);
  SDE_ASSERT(entryPc.has_value(), "program lacks the dispatched entry");
  SDE_ASSERT(args.size() <= 3, "at most three event arguments");

  state.status = StateStatus::kRunning;
  state.pc = *entryPc;
  state.callStack.clear();
  for (std::size_t i = 0; i < 3; ++i)
    setReg(state, static_cast<std::uint8_t>(i),
           i < args.size() ? args[i] : zero64());

  effects_ = EventEffects{};

  // Fused dispatch runs non-merge events through the decoded stream;
  // merge mode and opcode-timing profiling keep the per-step switch loop
  // (identical architectural effects either way).
  const DecodedProgram* decoded =
      config_.dispatch != DispatchMode::kSwitch && !config_.mergeStates &&
              !config_.opcodeTiming
          ? &decodedFor(state.program())
          : nullptr;

  std::deque<ExecutionState*> worklist{&state};
  while (!worklist.empty()) {
    ExecutionState* current = worklist.front();
    worklist.pop_front();
    if (current->mergedAway) continue;
    std::uint64_t steps = 0;
    std::vector<ExecutionState*> forked;
    timingPrev_ = kNoPrevOp;
    // Parked at a join, or re-queued behind a released waiter: the state
    // is still kRunning and resumes later — do not idle or untoken it.
    bool suspended = false;
    if (decoded != nullptr) {
      if (current->status == StateStatus::kRunning)
        runDecoded(*current, *decoded, sink, forked);
      for (ExecutionState* child : forked) worklist.push_back(child);
      continue;
    }
    while (current->status == StateStatus::kRunning && !current->mergedAway) {
      if (config_.mergeStates && !current->mergeTokens.empty()) {
        const auto token = current->mergeTokens.back();
        if (current->pc == token->joinPc &&
            current->callStack.size() == token->depth) {
          current->mergeTokens.pop_back();
          const Arrival arrival =
              arriveAtJoin(*current, token, sink, worklist);
          if (arrival == Arrival::kContinue) continue;  // outer token next
          if (arrival != Arrival::kAbsorbed) suspended = true;
          break;
        }
        // Sends must not be reordered against parked siblings: drop the
        // tokens first, and if a (lower-id) waiter resumes, re-queue the
        // sender behind it so the global send order matches the unmerged
        // run (where the waiter completed before this state started).
        if (current->program().at(current->pc).op == Op::kSend) {
          const std::size_t released = releaseTokens(*current, worklist);
          if (released > 0) {
            worklist.insert(
                worklist.begin() + static_cast<std::ptrdiff_t>(released),
                current);
            suspended = true;
            break;
          }
        }
      }
      if (++steps > config_.maxStepsPerEvent) {
        kill(*current, "per-event step limit exceeded");
        break;
      }
      if (config_.opcodeTiming) {
        // Profiling mode: inclusive wall-time per instruction (nested
        // solver/mapper work included) plus the adjacent-pair counts the
        // superinstruction selection is audited against.
        const auto op =
            static_cast<std::uint16_t>(current->program().at(current->pc).op);
        const auto t0 = std::chrono::steady_clock::now();
        const bool cont = step(*current, sink, forked);
        opNanos_[op] += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
        if (timingPrev_ != kNoPrevOp)
          ++pairCounts_[timingPrev_ * kNumOps + op];
        timingPrev_ = op;
        if (!cont) break;
      } else if (!step(*current, sink, forked)) {
        break;
      }
    }
    if (!suspended) {
      if (current->status == StateStatus::kRunning && !current->mergedAway)
        current->status = StateStatus::kIdle;
      // A finished or absorbed state can no longer reach a join: drop
      // its remaining tokens, releasing waiters stranded by it.
      if (!current->mergeTokens.empty()) releaseTokens(*current, worklist);
    }
    // Forked siblings execute after the current state completes, in
    // creation order (deterministic breadth-first exploration).
    for (ExecutionState* child : forked) worklist.push_back(child);
  }
  // The per-instruction counter is accumulated locally and flushed once
  // per event, keeping the step loop free of registry writes. Observers
  // only read stats between events, so the visible trajectory is
  // unchanged.
  if (effects_.instructions != 0)
    stats_.add(statId<"vm.instructions">(), effects_.instructions);
  SDE_ASSERT(parkedCount_ == 0, "merge tokens must resolve by event end");
}

bool Interpreter::step(ExecutionState& state, EffectSink& sink,
                       std::vector<ExecutionState*>& worklist) {
  const Instr& ins = state.program().at(state.pc);
  // Merge mode: the next instruction would concretize a symbolic
  // operand, which must never observe a guard-dependent value. Split the
  // innermost guard back apart (re-checking until no guards remain) and
  // re-dispatch this pc on the split state(s).
  if (needsGuardSplit(state)) {
    splitLastGuard(state, sink, worklist);
    return true;
  }
  ++state.executedInstructions;
  ++opCounts_[static_cast<std::size_t>(ins.op)];
  ++effects_.instructions;
  std::size_t nextPc = state.pc + 1;

  if (isBinaryAlu(ins.op)) {
    setReg(state, ins.a,
           applyAlu(ctx_, ins.op, reg(state, ins.b), reg(state, ins.c)));
    state.pc = nextPc;
    return true;
  }

  switch (ins.op) {
    default:
      SDE_UNREACHABLE("ALU ops handled above");
    case Op::kNop:
      break;
    case Op::kConst:
      setReg(state, ins.a,
             ctx_.constant(static_cast<std::uint64_t>(ins.imm), 64));
      break;
    case Op::kMov:
      setReg(state, ins.a, reg(state, ins.b));
      break;
    case Op::kNot:
      setReg(state, ins.a, ctx_.bvNot(reg(state, ins.b)));
      break;
    case Op::kJmp:
      nextPc = static_cast<std::size_t>(ins.imm);
      break;
    case Op::kBr: {
      const expr::Ref value = reg(state, ins.a);
      const expr::Ref cond = ctx_.boolCast(value);
      const auto takenPc = static_cast<std::size_t>(ins.imm);
      const auto fallPc = static_cast<std::size_t>(ins.imm2);
      if (cond->isConstant()) {
        nextPc = cond->isTrue() ? takenPc : fallPc;
        break;
      }
      switch (solver_.classify(state.constraints, cond)) {
        case solver::Validity::kTrue:
          nextPc = takenPc;
          break;
        case solver::Validity::kFalse:
          nextPc = fallPc;
          break;
        case solver::Validity::kUnknown: {
          stats_.add(statId<"vm.forks">());
          ++effects_.forks;
          const std::size_t branchPc = state.pc;
          ExecutionState& child = sink.forkState(state);
          noteForkTokens(child);
          // Parent takes the true edge, child the false edge.
          state.constraints.add(cond);
          child.constraints.add(ctx_.logicalNot(cond));
          child.pc = fallPc;
          SDE_ASSERT(child.status == StateStatus::kRunning,
                     "fork of a running state must be running");
          // Merge mode: when every path from this branch funnels through
          // an intra-handler join point, tag both siblings with a shared
          // token so the first to reach the join parks for the other.
          if (config_.mergeStates) {
            if (const auto join =
                    postdomFor(state.program()).joinFor(branchPc)) {
              auto token = std::make_shared<ExecutionState::MergeToken>();
              token->joinPc = *join;
              token->depth = state.callStack.size();
              token->live = 2;
              state.mergeTokens.push_back(token);
              child.mergeTokens.push_back(token);
            }
          }
          worklist.push_back(&child);
          nextPc = takenPc;
          break;
        }
      }
      break;
    }
    case Op::kCall:
      state.callStack.push_back(nextPc);
      nextPc = static_cast<std::size_t>(ins.imm);
      break;
    case Op::kRet:
      if (state.callStack.empty()) {
        // Returning from the handler's entry frame ends the event.
        state.status = StateStatus::kIdle;
        return false;
      }
      nextPc = state.callStack.back();
      state.callStack.pop_back();
      break;
    case Op::kHalt:
      state.status = StateStatus::kIdle;
      return false;
    case Op::kFail:
      state.status = StateStatus::kFailed;
      state.mutableCold().failureMessage =
          std::string(state.program().string(ins.str));
      stats_.add(statId<"vm.failures">());
      return false;
    case Op::kAlloc: {
      const std::uint64_t cells = concretize(state, reg(state, ins.b));
      const std::uint64_t id = state.space.alloc(ctx_, cells);
      setReg(state, ins.a, ctx_.constant(id, 64));
      break;
    }
    case Op::kLoad: {
      const std::uint64_t obj = concretize(state, reg(state, ins.b));
      const std::uint64_t index = concretize(state, reg(state, ins.c));
      if (!state.space.hasObject(obj) ||
          index >= state.space.objectSize(obj)) {
        kill(state, "out-of-bounds load");
        return false;
      }
      setReg(state, ins.a, state.space.load(obj, index));
      break;
    }
    case Op::kStore: {
      const std::uint64_t obj = concretize(state, reg(state, ins.b));
      const std::uint64_t index = concretize(state, reg(state, ins.c));
      if (!state.space.hasObject(obj) ||
          index >= state.space.objectSize(obj)) {
        kill(state, "out-of-bounds store");
        return false;
      }
      state.space.store(obj, index, reg(state, ins.a));
      break;
    }
    case Op::kLoadG: {
      const auto index = static_cast<std::uint64_t>(ins.imm);
      if (index >= state.space.objectSize(kGlobalsObject)) {
        kill(state, "out-of-bounds global load");
        return false;
      }
      setReg(state, ins.a, state.space.load(kGlobalsObject, index));
      break;
    }
    case Op::kStoreG: {
      const auto index = static_cast<std::uint64_t>(ins.imm);
      if (index >= state.space.objectSize(kGlobalsObject)) {
        kill(state, "out-of-bounds global store");
        return false;
      }
      state.space.store(kGlobalsObject, index, reg(state, ins.a));
      break;
    }
    case Op::kSymbolic: {
      const std::string label(state.program().string(ins.str));
      const std::uint32_t n =
          state.mutableCold().symbolicCounters[label]++;
      const std::string name = "n" + std::to_string(state.node()) + "." +
                               label + "." + std::to_string(n);
      const expr::Ref var =
          ctx_.variable(name, static_cast<unsigned>(ins.imm));
      state.symbolics.push_back(var);
      setReg(state, ins.a, ctx_.zext(var, 64));
      stats_.add(statId<"vm.symbolics">());
      ++effects_.symbolicsMinted;
      break;
    }
    case Op::kAssume: {
      const expr::Ref cond = ctx_.boolCast(reg(state, ins.a));
      if (cond->isTrue()) break;
      if (cond->isFalse() || !solver_.mayBeTrue(state.constraints, cond)) {
        state.status = StateStatus::kInfeasible;
        stats_.add(statId<"vm.infeasible_assumes">());
        return false;
      }
      state.constraints.add(cond);
      break;
    }
    case Op::kSend: {
      const std::uint64_t dst = concretize(state, reg(state, ins.a));
      const std::uint64_t obj = concretize(state, reg(state, ins.b));
      const std::uint64_t len = concretize(state, reg(state, ins.c));
      if (!state.space.hasObject(obj) || len > state.space.objectSize(obj)) {
        kill(state, "send with invalid payload object");
        return false;
      }
      stats_.add(statId<"vm.sends">());
      ++effects_.sends;
      // Advance pc before the callback: the mapping algorithm may fork
      // `state` itself (it never does — senders are not forked — but the
      // state must be consistent while the engine inspects it).
      state.pc = nextPc;
      sink.onSend(state, static_cast<NodeId>(dst),
                  state.space.read(obj, len));
      return state.status == StateStatus::kRunning;
    }
    case Op::kSetTimer: {
      const expr::Ref delayExpr = reg(state, ins.a);
      const bool constantDelay = delayExpr->isConstant();
      const std::uint64_t delay = concretize(state, delayExpr);
      const auto timerId = static_cast<std::uint32_t>(ins.imm);
      ++effects_.timerOps;
      effects_.rearmConstant = constantDelay;
      effects_.rearmTimerId = timerId;
      effects_.rearmDelay = delay;
      // Re-arming replaces any pending expiry of the same timer.
      state.pendingEvents.eraseIf([&](const PendingEvent& e) {
        return e.kind == EventKind::kTimer && e.a == timerId;
      });
      PendingEvent event;
      event.time = state.clock + delay;
      event.kind = EventKind::kTimer;
      event.a = timerId;
      event.seq = state.nextEventSeq++;
      state.mutableCold().activeTimers[timerId] = event.seq;
      state.pendingEvents.push_back(std::move(event));
      break;
    }
    case Op::kStopTimer: {
      const auto timerId = static_cast<std::uint32_t>(ins.imm);
      ++effects_.timerOps;
      effects_.rearmConstant = false;
      state.pendingEvents.eraseIf([&](const PendingEvent& e) {
        return e.kind == EventKind::kTimer && e.a == timerId;
      });
      state.mutableCold().activeTimers.erase(timerId);
      break;
    }
    case Op::kSelf:
      setReg(state, ins.a, ctx_.constant(state.node(), 64));
      break;
    case Op::kNow:
      setReg(state, ins.a, ctx_.constant(state.clock, 64));
      effects_.usedNow = true;
      break;
    case Op::kNumNodes:
      setReg(state, ins.a, ctx_.constant(numNodes_, 64));
      break;
    case Op::kLog:
      sink.onLog(state, state.program().string(ins.str), reg(state, ins.a));
      break;
  }

  state.pc = nextPc;
  return true;
}

// --- Fused fast path ---------------------------------------------------------
//
// Executes one state's handler run over the pre-decoded stream. The
// bodies below mirror step() case-for-case: same expression-builder call
// sequences, same kill messages, same pc/step accounting — that
// one-to-one correspondence is the digest-invariance argument (DESIGN.md
// section 20), and the dispatch fuzz battery enforces it end-to-end.
//
// Computed-goto dispatch on GCC/Clang; a switch over the same handler
// indices elsewhere. The OPCASE/FCASE/DISPATCH macros keep both builds
// on ONE copy of each op body (in the switch build the superinstruction
// tails `goto` a label placed inside the br case).

#if defined(__GNUC__) || defined(__clang__)
#define SDE_COMPUTED_GOTO 1
#else
#define SDE_COMPUTED_GOTO 0
#endif

void Interpreter::runDecoded(ExecutionState& state,
                             const DecodedProgram& decoded, EffectSink& sink,
                             std::vector<ExecutionState*>& forked) {
  expr::Context& ctx = ctx_;
  const DecodedInstr* const code = decoded.code();
  // The register file, ours alone for the run. A fork of `state` shares
  // it again, so every call that hands the state to the engine — where
  // it may be forked — takes the pointer anew.
  expr::Ref* regs = state.mutableRegs().data();
  const std::uint64_t maxSteps = config_.maxStepsPerEvent;
  std::uint64_t steps = 0;
  std::uint64_t flushed = 0;
  std::size_t pc = state.pc;
  const DecodedInstr* d = nullptr;

  // Per-instruction bookkeeping is accumulated in `steps` and flushed
  // before anything that can observe the state mid-run (fork clones,
  // send/log callbacks) and at exit — so observers see exactly the
  // values the per-step baseline would have shown them.
  const auto flushSteps = [&] {
    const std::uint64_t delta = steps - flushed;
    state.executedInstructions += delta;
    effects_.instructions += delta;
    flushed = steps;
  };
  const auto rd = [&](std::uint8_t r) -> expr::Ref {
    const expr::Ref v = regs[r];
    return v != nullptr ? v : zero64();
  };

#if SDE_COMPUTED_GOTO
  // Label table indexed by DecodedInstr::handler: the plain opcodes in
  // enum order, then the superinstructions, then the overrun sentinel.
  static const void* const kLabels[] = {
      &&H_kNop,      &&H_kConst,     &&H_kMov,       &&H_kAdd,
      &&H_kSub,      &&H_kMul,       &&H_kUDiv,      &&H_kURem,
      &&H_kSDiv,     &&H_kSRem,      &&H_kAnd,       &&H_kOr,
      &&H_kXor,      &&H_kShl,       &&H_kLShr,      &&H_kAShr,
      &&H_kNot,      &&H_kEq,        &&H_kNe,        &&H_kUlt,
      &&H_kUle,      &&H_kSlt,       &&H_kSle,       &&H_kJmp,
      &&H_kBr,       &&H_kCall,      &&H_kRet,       &&H_kHalt,
      &&H_kFail,     &&H_kAlloc,     &&H_kLoad,      &&H_kStore,
      &&H_kLoadG,    &&H_kStoreG,    &&H_kSymbolic,  &&H_kAssume,
      &&H_kSend,     &&H_kSetTimer,  &&H_kStopTimer, &&H_kSelf,
      &&H_kNow,      &&H_kNumNodes,  &&H_kLog,       &&H_AluBr,
      &&H_ConstAlu,  &&H_LoadGBr,    &&H_ConstStoreG, &&H_MovBr,
      &&H_OutOfRange,
  };
  static_assert(sizeof(kLabels) / sizeof(kLabels[0]) == kNumHandlers,
                "label table must cover every handler");
  static_assert(kNumOps == 43, "Op enum changed: update the label table");

#define OPCASE(name) H_##name:
#define FCASE(name) H_##name:
#define BR_TARGET
#define DISPATCH()                                           \
  do {                                                       \
    if (++steps > maxSteps) goto limit_kill;                 \
    d = code + pc;                                           \
    ++opCounts_[static_cast<std::size_t>(d->op)];            \
    goto* kLabels[d->handler];                               \
  } while (0)
#else
#define OPCASE(name) case static_cast<std::uint16_t>(Op::name):
#define FCASE(name) case kHandler##name:
#define BR_TARGET H_kBr:
#define DISPATCH()                                           \
  do {                                                       \
    if (++steps > maxSteps) goto limit_kill;                 \
    d = code + pc;                                           \
    ++opCounts_[static_cast<std::size_t>(d->op)];            \
    goto dispatch_top;                                       \
  } while (0)
#endif

// Second half of a superinstruction: the per-instruction step check and
// count for op2, placed AFTER op1's body so a mid-pair limit kill leaves
// exactly the baseline's counters (op2 unexecuted, uncounted).
#define FUSED_NEXT()                                         \
  do {                                                       \
    if (++steps > maxSteps) goto limit_kill;                 \
    d = code + pc;                                           \
    ++opCounts_[static_cast<std::size_t>(d->op)];            \
  } while (0)

// The three-register ALU forms share one body shape; Op is a compile-
// time constant per label, so applyAlu folds to the specific builder
// call.
#define ALU_BODY(name)                                          \
  OPCASE(name) {                                                \
    regs[d->a] = applyAlu(ctx, Op::name, rd(d->b), rd(d->c));   \
    ++pc;                                                       \
    DISPATCH();                                                 \
  }

  DISPATCH();

#if !SDE_COMPUTED_GOTO
dispatch_top:
  switch (d->handler) {
#endif

  OPCASE(kNop) {
    ++pc;
    DISPATCH();
  }

  OPCASE(kConst) {
    expr::Ref v = d->constCache;
    if (v == nullptr)
      v = d->constCache = ctx.constant(static_cast<std::uint64_t>(d->imm), 64);
    regs[d->a] = v;
    ++pc;
    DISPATCH();
  }

  OPCASE(kMov) {
    regs[d->a] = rd(d->b);
    ++pc;
    DISPATCH();
  }

  ALU_BODY(kAdd)
  ALU_BODY(kSub)
  ALU_BODY(kMul)
  ALU_BODY(kUDiv)
  ALU_BODY(kURem)
  ALU_BODY(kSDiv)
  ALU_BODY(kSRem)
  ALU_BODY(kAnd)
  ALU_BODY(kOr)
  ALU_BODY(kXor)
  ALU_BODY(kShl)
  ALU_BODY(kLShr)
  ALU_BODY(kAShr)

  OPCASE(kNot) {
    regs[d->a] = ctx.bvNot(rd(d->b));
    ++pc;
    DISPATCH();
  }

  ALU_BODY(kEq)
  ALU_BODY(kNe)
  ALU_BODY(kUlt)
  ALU_BODY(kUle)
  ALU_BODY(kSlt)
  ALU_BODY(kSle)

  OPCASE(kJmp) {
    pc = static_cast<std::size_t>(d->imm);
    DISPATCH();
  }

  OPCASE(kBr) {
    BR_TARGET {
      const expr::Ref cond = ctx.boolCast(rd(d->a));
      const auto takenPc = static_cast<std::size_t>(d->imm);
      const auto fallPc = static_cast<std::size_t>(d->imm2);
      if (cond->isConstant()) {
        pc = cond->isTrue() ? takenPc : fallPc;
        DISPATCH();
      }
      switch (solver_.classify(state.constraints, cond)) {
        case solver::Validity::kTrue:
          pc = takenPc;
          break;
        case solver::Validity::kFalse:
          pc = fallPc;
          break;
        case solver::Validity::kUnknown: {
          stats_.add(statId<"vm.forks">());
          ++effects_.forks;
          flushSteps();
          state.pc = pc;  // the fork clones the branch pc, as in step()
          ExecutionState& child = sink.forkState(state);
          regs = state.mutableRegs().data();
          // Parent takes the true edge, child the false edge.
          state.constraints.add(cond);
          child.constraints.add(ctx.logicalNot(cond));
          child.pc = fallPc;
          SDE_ASSERT(child.status == StateStatus::kRunning,
                     "fork of a running state must be running");
          forked.push_back(&child);
          pc = takenPc;
          break;
        }
      }
      DISPATCH();
    }
  }

  OPCASE(kCall) {
    state.callStack.push_back(pc + 1);
    pc = static_cast<std::size_t>(d->imm);
    DISPATCH();
  }

  OPCASE(kRet) {
    if (state.callStack.empty()) {
      // Returning from the handler's entry frame ends the event (pc
      // parks on the ret instruction, exactly as in step()).
      state.status = StateStatus::kIdle;
      goto done;
    }
    pc = state.callStack.back();
    state.callStack.pop_back();
    DISPATCH();
  }

  OPCASE(kHalt) {
    state.status = StateStatus::kIdle;
    goto done;
  }

  OPCASE(kFail) {
    state.status = StateStatus::kFailed;
    state.mutableCold().failureMessage =
        std::string(state.program().string(d->str));
    stats_.add(statId<"vm.failures">());
    goto done;
  }

  OPCASE(kAlloc) {
    const std::uint64_t cells = concretize(state, rd(d->b));
    const std::uint64_t id = state.space.alloc(ctx, cells);
    regs[d->a] = ctx.constant(id, 64);
    ++pc;
    DISPATCH();
  }

  OPCASE(kLoad) {
    const std::uint64_t obj = concretize(state, rd(d->b));
    const std::uint64_t index = concretize(state, rd(d->c));
    if (!state.space.hasObject(obj) || index >= state.space.objectSize(obj)) {
      kill(state, "out-of-bounds load");
      goto done;
    }
    regs[d->a] = state.space.load(obj, index);
    ++pc;
    DISPATCH();
  }

  OPCASE(kStore) {
    const std::uint64_t obj = concretize(state, rd(d->b));
    const std::uint64_t index = concretize(state, rd(d->c));
    if (!state.space.hasObject(obj) || index >= state.space.objectSize(obj)) {
      kill(state, "out-of-bounds store");
      goto done;
    }
    state.space.store(obj, index, rd(d->a));
    ++pc;
    DISPATCH();
  }

  OPCASE(kLoadG) {
    const auto index = static_cast<std::uint64_t>(d->imm);
    if (index >= state.space.objectSize(kGlobalsObject)) {
      kill(state, "out-of-bounds global load");
      goto done;
    }
    regs[d->a] = state.space.load(kGlobalsObject, index);
    ++pc;
    DISPATCH();
  }

  OPCASE(kStoreG) {
    const auto index = static_cast<std::uint64_t>(d->imm);
    if (index >= state.space.objectSize(kGlobalsObject)) {
      kill(state, "out-of-bounds global store");
      goto done;
    }
    state.space.store(kGlobalsObject, index, rd(d->a));
    ++pc;
    DISPATCH();
  }

  OPCASE(kSymbolic) {
    const std::string label(state.program().string(d->str));
    const std::uint32_t n =
        state.mutableCold().symbolicCounters[label]++;
    const std::string name = "n" + std::to_string(state.node()) + "." + label +
                             "." + std::to_string(n);
    const expr::Ref var = ctx.variable(name, static_cast<unsigned>(d->imm));
    state.symbolics.push_back(var);
    regs[d->a] = ctx.zext(var, 64);
    stats_.add(statId<"vm.symbolics">());
    ++effects_.symbolicsMinted;
    ++pc;
    DISPATCH();
  }

  OPCASE(kAssume) {
    const expr::Ref cond = ctx.boolCast(rd(d->a));
    if (!cond->isTrue()) {
      if (cond->isFalse() || !solver_.mayBeTrue(state.constraints, cond)) {
        state.status = StateStatus::kInfeasible;
        stats_.add(statId<"vm.infeasible_assumes">());
        goto done;
      }
      state.constraints.add(cond);
    }
    ++pc;
    DISPATCH();
  }

  OPCASE(kSend) {
    const std::uint64_t dst = concretize(state, rd(d->a));
    const std::uint64_t obj = concretize(state, rd(d->b));
    const std::uint64_t len = concretize(state, rd(d->c));
    if (!state.space.hasObject(obj) || len > state.space.objectSize(obj)) {
      kill(state, "send with invalid payload object");
      goto done;
    }
    stats_.add(statId<"vm.sends">());
    ++effects_.sends;
    // Advance pc and sync the state before the callback, as in step().
    ++pc;
    flushSteps();
    state.pc = pc;
    sink.onSend(state, static_cast<NodeId>(dst), state.space.read(obj, len));
    if (state.status != StateStatus::kRunning) goto done;
    regs = state.mutableRegs().data();
    DISPATCH();
  }

  OPCASE(kSetTimer) {
    const expr::Ref delayExpr = rd(d->a);
    const bool constantDelay = delayExpr->isConstant();
    const std::uint64_t delay = concretize(state, delayExpr);
    const auto timerId = static_cast<std::uint32_t>(d->imm);
    ++effects_.timerOps;
    effects_.rearmConstant = constantDelay;
    effects_.rearmTimerId = timerId;
    effects_.rearmDelay = delay;
    // Re-arming replaces any pending expiry of the same timer.
    state.pendingEvents.eraseIf([&](const PendingEvent& e) {
      return e.kind == EventKind::kTimer && e.a == timerId;
    });
    PendingEvent event;
    event.time = state.clock + delay;
    event.kind = EventKind::kTimer;
    event.a = timerId;
    event.seq = state.nextEventSeq++;
    state.mutableCold().activeTimers[timerId] = event.seq;
    state.pendingEvents.push_back(std::move(event));
    ++pc;
    DISPATCH();
  }

  OPCASE(kStopTimer) {
    const auto timerId = static_cast<std::uint32_t>(d->imm);
    ++effects_.timerOps;
    effects_.rearmConstant = false;
    state.pendingEvents.eraseIf([&](const PendingEvent& e) {
      return e.kind == EventKind::kTimer && e.a == timerId;
    });
    state.mutableCold().activeTimers.erase(timerId);
    ++pc;
    DISPATCH();
  }

  OPCASE(kSelf) {
    regs[d->a] = ctx.constant(state.node(), 64);
    ++pc;
    DISPATCH();
  }

  OPCASE(kNow) {
    regs[d->a] = ctx.constant(state.clock, 64);
    effects_.usedNow = true;
    ++pc;
    DISPATCH();
  }

  OPCASE(kNumNodes) {
    regs[d->a] = ctx.constant(numNodes_, 64);
    ++pc;
    DISPATCH();
  }

  OPCASE(kLog) {
    flushSteps();
    state.pc = pc;  // the callback observes the log pc, as in step()
    sink.onLog(state, state.program().string(d->str), rd(d->a));
    regs = state.mutableRegs().data();
    ++pc;
    DISPATCH();
  }

  // --- Superinstructions ---------------------------------------------------
  // Each executes the exact bodies of its two constituent ops with the
  // per-instruction step check in between; the only thing fused away is
  // the indirect dispatch (and for the +br forms the condition-register
  // re-read, which is identity-equal by construction).

  FCASE(AluBr) {
    regs[d->a] = applyAlu(ctx, d->op, rd(d->b), rd(d->c));
    ++pc;
    FUSED_NEXT();
    goto H_kBr;
  }

  FCASE(ConstAlu) {
    expr::Ref v = d->constCache;
    if (v == nullptr)
      v = d->constCache = ctx.constant(static_cast<std::uint64_t>(d->imm), 64);
    regs[d->a] = v;
    ++pc;
    FUSED_NEXT();
    regs[d->a] = applyAlu(ctx, d->op, rd(d->b), rd(d->c));
    ++pc;
    DISPATCH();
  }

  FCASE(LoadGBr) {
    const auto index = static_cast<std::uint64_t>(d->imm);
    if (index >= state.space.objectSize(kGlobalsObject)) {
      kill(state, "out-of-bounds global load");
      goto done;
    }
    regs[d->a] = state.space.load(kGlobalsObject, index);
    ++pc;
    FUSED_NEXT();
    goto H_kBr;
  }

  FCASE(ConstStoreG) {
    expr::Ref v = d->constCache;
    if (v == nullptr)
      v = d->constCache = ctx.constant(static_cast<std::uint64_t>(d->imm), 64);
    regs[d->a] = v;
    ++pc;
    FUSED_NEXT();
    {
      const auto index = static_cast<std::uint64_t>(d->imm);
      if (index >= state.space.objectSize(kGlobalsObject)) {
        kill(state, "out-of-bounds global store");
        goto done;
      }
      state.space.store(kGlobalsObject, index, rd(d->a));
    }
    ++pc;
    DISPATCH();
  }

  FCASE(MovBr) {
    regs[d->a] = rd(d->b);
    ++pc;
    FUSED_NEXT();
    goto H_kBr;
  }

  FCASE(OutOfRange) {
    state.pc = pc;
    flushSteps();
    SDE_ASSERT(false, "pc out of range");
    goto done;
  }

#if !SDE_COMPUTED_GOTO
    default:
      SDE_UNREACHABLE("invalid decoded handler");
  }
#endif

done:
  state.pc = pc;
  flushSteps();
  return;

limit_kill:
  --steps;  // the instruction that tripped the limit never executed
  state.pc = pc;
  flushSteps();
  kill(state, "per-event step limit exceeded");

#undef OPCASE
#undef FCASE
#undef BR_TARGET
#undef DISPATCH
#undef FUSED_NEXT
#undef ALU_BODY
}

const DecodedProgram& Interpreter::decodedFor(const Program& program) {
  auto it = decodedCache_.find(&program);
  if (it == decodedCache_.end())
    it = decodedCache_
             .emplace(std::piecewise_construct, std::forward_as_tuple(&program),
                      std::forward_as_tuple(program))
             .first;
  return it->second;
}

std::vector<Interpreter::OpcodeProfileEntry> Interpreter::opcodeProfile()
    const {
  std::vector<OpcodeProfileEntry> out;
  for (std::size_t i = 0; i < kNumOps; ++i) {
    if (opCounts_[i] == 0 && opNanos_[i] == 0) continue;
    out.push_back({"op." + std::string(opName(static_cast<Op>(i))),
                   opCounts_[i], opNanos_[i]});
  }
  if (!pairCounts_.empty()) {
    struct PairRow {
      std::size_t first;
      std::size_t second;
      std::uint64_t count;
    };
    std::vector<PairRow> pairs;
    for (std::size_t a = 0; a < kNumOps; ++a)
      for (std::size_t b = 0; b < kNumOps; ++b)
        if (const std::uint64_t c = pairCounts_[a * kNumOps + b]; c != 0)
          pairs.push_back({a, b, c});
    std::sort(pairs.begin(), pairs.end(),
              [](const PairRow& x, const PairRow& y) {
                if (x.count != y.count) return x.count > y.count;
                if (x.first != y.first) return x.first < y.first;
                return x.second < y.second;
              });
    if (pairs.size() > 16) pairs.resize(16);  // top pairs only: fusion input
    for (const PairRow& p : pairs)
      out.push_back({"pair." + std::string(opName(static_cast<Op>(p.first))) +
                         "+" + std::string(opName(static_cast<Op>(p.second))),
                     p.count, 0});
  }
  return out;
}

const PostDominators& Interpreter::postdomFor(const Program& program) {
  auto it = postdomCache_.find(&program);
  if (it == postdomCache_.end())
    it = postdomCache_.emplace(&program, PostDominators(program)).first;
  return it->second;
}

void Interpreter::noteForkTokens(ExecutionState& child) {
  // fork() copied the parent's token stack; each shared token now has
  // one more live runner that can reach (or strand) its join.
  for (const auto& token : child.mergeTokens) token->live += 1;
}

bool Interpreter::needsGuardSplit(ExecutionState& state) const {
  if (!config_.mergeStates || state.cold().mergeGuards.empty())
    return false;
  const Instr& ins = state.program().at(state.pc);
  const auto symbolic = [&](std::uint8_t index) {
    const expr::Ref v = state.regs()[index];
    return v != nullptr && !v->isConstant();
  };
  // Conservative: any symbolic operand that is about to be concretized
  // forces a split, whether or not it mentions a guard. Concretization
  // pins the state with an equality the unmerged run would have issued
  // per arm, so it must only ever run on guard-free states.
  switch (ins.op) {
    case Op::kAlloc:
      return symbolic(ins.b);
    case Op::kLoad:
    case Op::kStore:
      return symbolic(ins.b) || symbolic(ins.c);
    case Op::kSend:
      return symbolic(ins.a) || symbolic(ins.b) || symbolic(ins.c);
    case Op::kSetTimer:
      return symbolic(ins.a);
    default:
      return false;
  }
}

void Interpreter::splitLastGuard(ExecutionState& state, EffectSink& sink,
                                 std::vector<ExecutionState*>& worklist) {
  stats_.add(statId<"vm.merge_splits">());
  const auto [feasTrue, feasFalse] = merger_.feasiblePolarities(state);
  SDE_ASSERT(feasTrue || feasFalse,
             "merged state with no syntactically feasible guard polarity");
  if (feasTrue && feasFalse) {
    ExecutionState& child = sink.forkState(state);
    noteForkTokens(child);
    ++effects_.forks;
    // True arm (the old survivor, created first unmerged) runs first.
    worklist.push_back(&child);
    merger_.applyLastGuard(state, true);
    merger_.applyLastGuard(child, false);
  } else {
    // The other polarity folds a constraint item to false: this fork
    // child never represented that arm (a sibling fork covers it).
    merger_.applyLastGuard(state, feasTrue);
  }
}

namespace {

// Front-enqueues `released` in ascending-id order: pushed descending,
// so the queue front ends up lowest-id first — the order these states
// completed in the unmerged exploration.
void frontEnqueueById(std::vector<ExecutionState*>& released,
                      std::deque<ExecutionState*>& runnable) {
  std::sort(released.begin(), released.end(),
            [](const ExecutionState* a, const ExecutionState* b) {
              return a->id() > b->id();
            });
  for (ExecutionState* s : released) runnable.push_front(s);
}

}  // namespace

Interpreter::Arrival Interpreter::arriveAtJoin(
    ExecutionState& state,
    const std::shared_ptr<ExecutionState::MergeToken>& token, EffectSink& sink,
    std::deque<ExecutionState*>& runnable) {
  // The survivor of a merge is always the lower id (the state created —
  // and completed — first unmerged). Arrival order does NOT imply id
  // order: a nested join can delay a low-id state past its higher-id
  // siblings, so the arriving state may be either side of the merge.
  for (std::size_t i = 0; i < token->parked.size();) {
    ExecutionState* waiter = token->parked[i];
    if (waiter->id() < state.id()) {
      if (sink.tryMerge(*waiter, state)) {
        token->live -= 1;
        // Outer tokens the absorbed state held can no longer be
        // honoured. (The waiter keeps holding the same shared stack.)
        releaseTokens(state, runnable);
        maybeReleaseParked(*token, runnable);
        return Arrival::kAbsorbed;
      }
      ++i;
    } else {
      if (sink.tryMerge(state, *waiter)) {
        token->live -= 1;
        --parkedCount_;
        token->parked.erase(token->parked.begin() +
                            static_cast<std::ptrdiff_t>(i));
        releaseTokens(*waiter, runnable);
        continue;  // the arriving state may absorb further waiters
      }
      ++i;
    }
  }
  // How many runners still hold the token and could yet arrive?
  const std::size_t holders = static_cast<std::size_t>(token->live) -
                              token->parked.size() - 1 /* self */;
  if (holders > 0) {
    token->parked.push_back(&state);
    ++parkedCount_;
    return Arrival::kParked;
  }
  token->live -= 1;
  if (token->parked.empty()) return Arrival::kContinue;
  // Every merge declined and nobody else can arrive: resume everyone in
  // unmerged completion (= id) order, `state` slotted in by its own id.
  std::vector<ExecutionState*> released;
  collectReleasable(*token, released);
  SDE_ASSERT(!released.empty(), "stranded waiters must release");
  released.push_back(&state);
  frontEnqueueById(released, runnable);
  return Arrival::kYield;
}

std::size_t Interpreter::releaseTokens(ExecutionState& state,
                                       std::deque<ExecutionState*>& runnable) {
  std::vector<ExecutionState*> released;
  while (!state.mergeTokens.empty()) {
    const auto token = state.mergeTokens.back();
    state.mergeTokens.pop_back();
    token->live -= 1;
    collectReleasable(*token, released);
  }
  std::size_t lower = 0;
  for (const ExecutionState* s : released) lower += s->id() < state.id();
  frontEnqueueById(released, runnable);
  return lower;
}

void Interpreter::collectReleasable(ExecutionState::MergeToken& token,
                                    std::vector<ExecutionState*>& out) {
  if (token.parked.empty() ||
      static_cast<std::size_t>(token.live) > token.parked.size())
    return;
  // Only waiters remain: nobody can arrive to merge with them.
  out.insert(out.end(), token.parked.begin(), token.parked.end());
  parkedCount_ -= token.parked.size();
  token.live = 0;
  token.parked.clear();
}

void Interpreter::maybeReleaseParked(ExecutionState::MergeToken& token,
                                     std::deque<ExecutionState*>& runnable) {
  std::vector<ExecutionState*> released;
  collectReleasable(token, released);
  frontEnqueueById(released, runnable);
}

}  // namespace sde::vm

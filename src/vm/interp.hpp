// The symbolic interpreter: runs one event handler of one execution
// state to completion, forking at symbolic branches. Forked siblings
// finish the same handler within the same call (run-to-completion, like
// Contiki event handlers under KleeNet).
//
// The interpreter is policy-free: everything that concerns the
// *distributed* execution — which states receive a packet, who gets
// forked on a conflict — is delegated to the EffectSink, implemented by
// the SDE engine with a pluggable state-mapping algorithm.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "solver/client.hpp"
#include "support/stats.hpp"
#include "vm/dispatch.hpp"
#include "vm/merge.hpp"
#include "vm/postdom.hpp"
#include "vm/state.hpp"

namespace sde::vm {

class EffectSink {
 public:
  virtual ~EffectSink() = default;

  // A local symbolic branch: clone `original`, register the clone with
  // the run and notify the state-mapping algorithm. Must return the
  // clone (whose pc/constraints the interpreter then adjusts).
  virtual ExecutionState& forkState(ExecutionState& original) = 0;

  // `sender` transmitted a packet to node `dst`. The implementation
  // performs the state mapping and delivery scheduling.
  virtual void onSend(ExecutionState& sender, NodeId dst,
                      std::vector<expr::Ref> payload) = 0;

  // Merge mode: two sibling states met at a join point. The
  // implementation may ite-merge `absorbed` into `survivor` (marking
  // `absorbed` mergedAway and deferring its removal) and return true,
  // or decline. Default: merging disabled.
  virtual bool tryMerge(ExecutionState& survivor, ExecutionState& absorbed) {
    (void)survivor;
    (void)absorbed;
    return false;
  }

  // Diagnostics (optional).
  virtual void onLog(ExecutionState& state, std::string_view message,
                     expr::Ref value) {
    (void)state;
    (void)message;
    (void)value;
  }
};

struct InterpConfig {
  // Per-state fuel per event; exceeding it kills the state (catching
  // accidental infinite loops in node programs).
  std::uint64_t maxStepsPerEvent = 1u << 20;
  // Opt-in state merging: symbolic branches with an intra-handler join
  // point (post-dominator) park their siblings there and offer them to
  // EffectSink::tryMerge; merged states split back apart before any
  // concretization could observe a guard-dependent value. Set by the
  // engine from EngineConfig::mergeStates.
  bool mergeStates = false;
  // Dispatch strategy (vm/dispatch.hpp). kFused runs non-merge events
  // through the pre-decoded computed-goto executor with superinstructions;
  // kSwitch is the per-step decode switch, the reference interpreter.
  // Digest-invariant by construction: the fuzz battery
  // (tests/vm/dispatch_equivalence_fuzz_test.cpp) and the verify.sh smoke
  // stage compare the two. Merge-mode events always take the switch path
  // (its per-step merge-token checks do not fit a straight-line loop), in
  // both modes.
  DispatchMode dispatch = dispatchModeFromEnv();
  // Per-opcode self-time and adjacent-pair attribution (SDE_OPCODE_TIME).
  // Forces the switch path with a clock read around every instruction —
  // a profiling mode, not a production one. Execution *counts* are
  // always collected; only timing/pairs need this.
  bool opcodeTiming = opcodeTimingFromEnv();
};

// What one runEvent call did, summarised for the engine's bounded-loop
// summarizer: a timer handler whose effects are "clean" (no clock
// reads, sends, fresh symbolics or forks; exactly one constant-delay
// re-arm of the dispatched timer) is a candidate for summarised replay.
struct EventEffects {
  bool usedNow = false;
  std::uint32_t sends = 0;
  std::uint32_t symbolicsMinted = 0;
  std::uint32_t forks = 0;
  std::uint32_t timerOps = 0;
  bool rearmConstant = false;
  std::uint64_t rearmTimerId = 0;
  std::uint64_t rearmDelay = 0;
  std::uint64_t instructions = 0;
};

class Interpreter {
 public:
  Interpreter(expr::Context& ctx, solver::SolverClient& solver,
              InterpConfig config = {})
      : ctx_(ctx), solver_(solver), config_(config), merger_(ctx) {
    if (config_.opcodeTiming) pairCounts_.resize(kNumOps * kNumOps, 0);
  }

  // Dispatches `entry` on `state` with up to three argument words in
  // r0..r2 and runs it (plus any forked siblings) to completion. After
  // the call every involved state is kIdle or terminal.
  void runEvent(ExecutionState& state, Entry entry,
                std::span<const expr::Ref> args, EffectSink& sink);

  [[nodiscard]] const support::StatsRegistry& stats() const { return stats_; }
  // Mutable access for checkpoint restore (interpreter counters feed the
  // parallel runner's fingerprint digest, so they must round-trip).
  [[nodiscard]] support::StatsRegistry& stats() { return stats_; }

  // Network size reported by the kNumNodes intrinsic (set by the engine
  // before the first event is dispatched).
  void setNumNodes(std::uint32_t n) { numNodes_ = n; }

  // Concretises `value` under the state's constraints, pinning the state
  // to the chosen value. Exposed for the engine (e.g. symbolic packet
  // destinations).
  std::uint64_t concretize(ExecutionState& state, expr::Ref value);

  // Effects of the most recent runEvent call (loop-summarizer input).
  [[nodiscard]] const EventEffects& lastEventEffects() const {
    return effects_;
  }

  // --- Per-opcode histogram (obs::PhaseProfiler opcode section) ----------
  // Execution counts are always collected (one array increment per
  // instruction); self-time and adjacent-pair counts only under
  // InterpConfig::opcodeTiming. Entries are named "op.<name>" and
  // "pair.<a>+<b>" so they ride the trace profile section's name-keyed
  // format unchanged.
  struct OpcodeProfileEntry {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t nanos = 0;
  };
  [[nodiscard]] std::vector<OpcodeProfileEntry> opcodeProfile() const;
  [[nodiscard]] const std::array<std::uint64_t, kNumOps>& opcodeCounts() const {
    return opCounts_;
  }

  [[nodiscard]] DispatchMode dispatchMode() const { return config_.dispatch; }

 private:
  // Executes one instruction; returns false when the handler finished
  // (by halt/return/failure/kill) for this state.
  bool step(ExecutionState& state, EffectSink& sink,
            std::vector<ExecutionState*>& worklist);
  // Fused fast path: runs `state` to the end of the current handler
  // through the pre-decoded stream (computed-goto dispatch where the
  // compiler supports it). Only used for non-merge events in kFused
  // mode; behaviourally identical to the step() loop.
  void runDecoded(ExecutionState& state, const DecodedProgram& decoded,
                  EffectSink& sink, std::vector<ExecutionState*>& forked);
  // Decoded form of `program`, decoded once and shared by every state
  // (keyed by identity like the postdominator cache).
  [[nodiscard]] const DecodedProgram& decodedFor(const Program& program);

  expr::Ref reg(ExecutionState& state, std::uint8_t index) const;
  // The interned 64-bit zero, cached after first use (unwritten
  // registers read as zero; the baseline re-ran the interning lookup on
  // every such read). Lazily created so the interning-log position of
  // the node is identical to the uncached baseline's first use.
  expr::Ref zero64() const {
    return zero64_ != nullptr ? zero64_ : (zero64_ = ctx_.constant(0, 64));
  }
  void setReg(ExecutionState& state, std::uint8_t index, expr::Ref value);
  void kill(ExecutionState& state, std::string_view why);

  // --- State-merging support (all no-ops unless config_.mergeStates) ---
  [[nodiscard]] const PostDominators& postdomFor(const Program& program);
  // Bumps the live count of every merge token `child` inherited by fork.
  static void noteForkTokens(ExecutionState& child);
  // Does the next instruction concretize a guard-dependent operand?
  [[nodiscard]] bool needsGuardSplit(ExecutionState& state) const;
  // Splits the innermost merge guard back apart (forking if both
  // polarities are feasible) without executing the pending instruction.
  void splitLastGuard(ExecutionState& state, EffectSink& sink,
                      std::vector<ExecutionState*>& worklist);
  // `state` reached the join pc of its innermost token (already popped).
  // Merges with / parks against the token's waiters.
  enum class Arrival { kContinue, kParked, kAbsorbed, kYield };
  Arrival arriveAtJoin(ExecutionState& state,
                       const std::shared_ptr<ExecutionState::MergeToken>& token,
                       EffectSink& sink, std::deque<ExecutionState*>& runnable);
  // Drops every token `state` holds (it terminated, merged away, or is
  // about to emit a send). Parked waiters that can no longer merge are
  // released to the front of `runnable` in ascending-id (= unmerged
  // completion) order. Returns how many of them have lower ids than
  // `state`: a caller that keeps running must yield behind exactly
  // those (re-insert itself at that queue offset) to preserve unmerged
  // completion order; higher-id waiters queue after it either way.
  std::size_t releaseTokens(ExecutionState& state,
                            std::deque<ExecutionState*>& runnable);
  // Appends `token`'s parked waiters to `out` (un-parking them) if no
  // live runner can still arrive at its join.
  void collectReleasable(ExecutionState::MergeToken& token,
                         std::vector<ExecutionState*>& out);
  // collectReleasable + front-enqueue in ascending-id order.
  void maybeReleaseParked(ExecutionState::MergeToken& token,
                          std::deque<ExecutionState*>& runnable);

  expr::Context& ctx_;
  solver::SolverClient& solver_;
  InterpConfig config_;
  Merger merger_;
  std::uint32_t numNodes_ = 0;
  support::StatsRegistry stats_;
  EventEffects effects_;
  std::size_t parkedCount_ = 0;
  std::map<const Program*, PostDominators> postdomCache_;
  std::map<const Program*, DecodedProgram> decodedCache_;
  mutable expr::Ref zero64_ = nullptr;
  // Opcode histogram: counts always; nanos/pairs only under
  // config_.opcodeTiming (pairCounts_ is kNumOps*kNumOps, row-major by
  // first op, allocated lazily when timing is on).
  std::array<std::uint64_t, kNumOps> opCounts_{};
  std::array<std::uint64_t, kNumOps> opNanos_{};
  std::vector<std::uint64_t> pairCounts_;
  static constexpr std::uint16_t kNoPrevOp = 0xffff;
  std::uint16_t timingPrev_ = kNoPrevOp;
};

}  // namespace sde::vm

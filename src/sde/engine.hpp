// The SDE engine: KleeNet's equivalent. Simulates a complete distributed
// system in a single process (paper §IV): it starts with k states — one
// per node — executes events in virtual-time order, forks states at
// symbolic branches, injects symbolic network failures, and delegates
// every packet transmission to a pluggable state-mapping algorithm
// (COB / COW / SDS).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "net/failure.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_sink.hpp"
#include "os/events.hpp"
#include "os/node.hpp"
#include "os/runtime.hpp"
#include "sde/mapper.hpp"
#include "sde/scheduler.hpp"
#include "sde/state_table.hpp"
#include "solver/solver.hpp"
#include "support/memory_ledger.hpp"
#include "vm/merge.hpp"

namespace sde {

struct EngineConfig {
  // Virtual-time units a packet spends in flight per hop.
  std::uint64_t linkLatency = 1;
  // Resource caps emulating the paper's 40 GB abort of COB (0 = off).
  // They are per engine, so in a partitioned run each job stops at its
  // own cap; the abort-time checkpoint lets a resume built without the
  // cap finish the job as if never interrupted.
  std::uint64_t maxStates = 0;
  std::uint64_t maxSimulatedMemoryBytes = 0;
  std::uint64_t maxEvents = 0;  // guards against event storms (broadcast
                                // loops produce exponentially many packets
                                // without creating new states)
  double maxWallSeconds = 0;
  // Metric sampling / memory-cap checking cadence, in processed events.
  std::uint64_t sampleEveryEvents = 16;
  // Grow the sampling gap with the state count: max(sampleEveryEvents,
  // states / 8). A sample reads the memory ledger in O(states touched
  // since the last one), so the gap only bounds the number of samples a
  // run records (and the samplers' own cost). Disable for tests that must
  // observe every event. State- and wall-clock caps are still checked on
  // every event; only the memory cap is evaluated at sampling points.
  bool adaptiveSampling = true;
  // Run full structural + conflict-freeness checks at every sampling
  // point, and check the memory ledger against the audit walk after
  // every event (quadratic; tests and small scenarios only).
  bool checkInvariants = false;
  // Opt-in state merging: symbolic branches whose arms rejoin at a
  // post-dominator park there and ite-merge (vm/merge.hpp), and an
  // idle-state sweep after every event folds compatible siblings. Off by
  // default — exploration then matches the historical engine exactly.
  bool mergeStates = false;
  // Opt-in bounded loop summarization: a timer handler observed twice
  // with identical pre-dispatch state and clean effects (no clock reads,
  // sends, fresh symbolics or forks; one constant-delay re-arm) is
  // replayed from the recorded summary instead of the VM.
  bool loopSummarize = false;
  // Same-key event batching: consecutive ready events that dispatch the
  // same handler (equal time/node/kind/id, sibling states) are stepped
  // in one block, amortizing outer-loop housekeeping (cap checks, the
  // sampling test, one events-counter write per batch). Digest-invariant
  // — pop order and per-event semantics are untouched — so it stays on;
  // the switch exists for A/B isolation (bench_vm, dispatch equivalence
  // fuzzing).
  bool batchEvents = true;
  vm::InterpConfig interp;
  solver::SolverConfig solver;
};

enum class RunOutcome : std::uint8_t {
  kCompleted,        // all events up to the horizon processed
  kAbortedStates,    // state cap hit
  kAbortedMemory,    // simulated-memory cap hit; for a partition job
                     // also: its result did not fit in memory
                     // (runPartitionJob, sde/parallel.hpp)
  kAbortedEvents,    // event cap hit
  kAbortedWallTime,  // wall-clock cap hit
  kSuspended,        // external suspend request (requestSuspend)
};

[[nodiscard]] std::string_view runOutcomeName(RunOutcome outcome);

class Engine {
 public:
  Engine(const os::NetworkPlan& plan, MapperKind mapperKind,
         EngineConfig config = {});
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- Configuration (before the first run() call) -------------------------
  void setFailureModel(std::unique_ptr<net::FailureModel> model);
  // Preconfigures globals[slot] = value on `node` at boot — how routes
  // and roles reach node programs (the paper's "preconfigured data
  // path", Figure 9).
  void setBootGlobal(net::NodeId node, std::uint64_t slot,
                     std::uint64_t value);

  // Observer invoked every `sampleEveryEvents` processed events and once
  // at the end of each run (metric recording for the benches).
  using Sampler = std::function<void(const Engine&)>;
  void setSampler(Sampler sampler) { sampler_ = std::move(sampler); }
  [[nodiscard]] const Sampler& sampler() const { return sampler_; }

  // Deterministic-replay filter: failure decisions whose fully scoped
  // variable name ("n<node>.<label>.<k>") appears here are not forked —
  // the engine takes only the mapped branch (true = the failure branch)
  // and adds the same path constraint the corresponding branch of an
  // unfiltered run would carry. This is how the job runner of both
  // partitioned runners (runPartitionJob) turns one exploration into
  // disjoint partition jobs, and how a recorded decision log replays a
  // specific dscenario.
  void setDecisionFilter(
      std::unordered_map<std::string, bool> forcedDecisions) {
    decisionFilter_ = std::move(forcedDecisions);
  }

  // Cooperative external suspend: the current (or next) run() returns
  // RunOutcome::kSuspended at its next event boundary, after triggering
  // the abort-time checkpoint exactly like a resource-cap latch — a
  // restored checkpoint continues the run losslessly. Safe to call from
  // a signal-handling context of the same thread (the sampler hook) or
  // another thread; sticky until clearSuspendRequest().
  void requestSuspend() {
    suspendRequested_.store(true, std::memory_order_relaxed);
  }
  void clearSuspendRequest() {
    suspendRequested_.store(false, std::memory_order_relaxed);
  }

  // --- Observability ---------------------------------------------------------
  // Attaches a structured event tracer (obs/). nullptr (the default)
  // disables tracing; every emit site is a single pointer compare then.
  // The sink must outlive all runs; install it *before* restore() so a
  // resumed run continues the suspended run's sequence numbering.
  void setTraceSink(obs::TraceSink* sink);
  [[nodiscard]] obs::TraceSink* traceSink() const { return trace_; }
  // Attaches a phase profiler (wall-time by engine phase). Never feeds
  // stats_: profiler output is wall-clock and must stay out of the
  // deterministic fingerprint.
  void setProfiler(obs::PhaseProfiler* profiler);
  [[nodiscard]] obs::PhaseProfiler* profiler() const { return profiler_; }

  // --- Execution -------------------------------------------------------------
  // Processes all events with time <= `untilVirtualTime`. May be called
  // repeatedly with increasing horizons.
  RunOutcome run(std::uint64_t untilVirtualTime);

  // --- Checkpoint / restore ---------------------------------------------------
  // Serializes the complete run state — expression DAG, states (with
  // copy-on-write memory sharing preserved), constraints, solver cache
  // and stats, scheduler heap, mapper grouping — such that a restored
  // engine continues the run exactly where the original stood: the
  // resumed run's merged fingerprint digest is byte-identical to the
  // uninterrupted run's. Implemented in snapshot/checkpoint.cpp.
  void checkpoint(std::ostream& out) const;
  // Restores a checkpoint into this engine, which must be freshly
  // constructed over the same network plan, mapper kind and
  // configuration as the engine that wrote it. Throws
  // snapshot::SnapshotError on version/shape mismatches or corrupt
  // streams (the engine is then unusable — construct a new one).
  void restore(std::istream& in);

  // Auto-checkpoint: once at least `everyEvents` events have been
  // processed since the last checkpoint, `sink` is invoked at the next
  // sampling point (the cadence rides the sampling hook, so the actual
  // gap is max(everyEvents, sampling gap)); the sink is also invoked
  // once when a resource cap aborts the run, turning cap latches into
  // suspensions instead of lost work. everyEvents = 0 disables the
  // periodic trigger but keeps the abort-time checkpoint.
  using CheckpointSink = std::function<void(const Engine&)>;
  void setCheckpointSink(CheckpointSink sink, std::uint64_t everyEvents) {
    checkpointSink_ = std::move(sink);
    checkpointEveryEvents_ = everyEvents;
  }

  // --- Introspection -----------------------------------------------------------
  [[nodiscard]] std::uint64_t numStates() const { return states_.size(); }
  [[nodiscard]] std::uint64_t numLiveStates() const;
  [[nodiscard]] const std::deque<std::unique_ptr<ExecutionState>>& states()
      const {
    return states_;
  }
  [[nodiscard]] std::vector<ExecutionState*> statesOfNode(NodeId node) const;

  [[nodiscard]] StateMapper& mapper() { return *mapper_; }
  [[nodiscard]] const StateMapper& mapper() const { return *mapper_; }
  [[nodiscard]] expr::Context& context() { return ctx_; }
  [[nodiscard]] solver::Solver& solver() { return solver_; }
  [[nodiscard]] const net::Topology& topology() const {
    return plan_.topology();
  }

  [[nodiscard]] std::uint64_t virtualNow() const { return virtualNow_; }
  [[nodiscard]] std::uint64_t eventsProcessed() const {
    return eventsProcessed_;
  }
  // Wall-clock time spent inside run(), cumulative.
  [[nodiscard]] double wallSeconds() const;

  // Bytes of state the run holds, with copy-on-write sharing attributed
  // once (the paper's "RAM" axis, deterministically). A read of the
  // engine's memory ledger: shared blocks bill it when they are made,
  // changed and freed, and the states events touched since the last read
  // are re-priced, so a read costs O(change), not O(heap).
  [[nodiscard]] std::uint64_t simulatedMemoryBytes() const;
  // The same quantity by walking every state (O(heap)): the oracle the
  // ledger is checked against, under checkInvariants and in tests.
  [[nodiscard]] std::uint64_t auditMemoryBytes() const;

  // Same-key batch shape of this engine's run() calls, for benches and
  // the dispatch battery's anti-vacuity check. Deliberately NOT registry
  // counters: where a batch breaks depends on suspend cuts and sampling
  // cadence, so these may differ between an uninterrupted run and a
  // suspend/resume split of it while every real counter converges.
  [[nodiscard]] std::uint64_t batches() const { return batches_; }
  [[nodiscard]] std::uint64_t batchedEvents() const { return batchedEvents_; }

  [[nodiscard]] support::StatsRegistry& stats() { return stats_; }
  [[nodiscard]] const support::StatsRegistry& stats() const { return stats_; }
  [[nodiscard]] const support::StatsRegistry& interpStats() const {
    return interp_.stats();
  }
  [[nodiscard]] const support::StatsRegistry& solverStats() const {
    return solver_.stats();
  }
  // Folds the three registries above into `out`: what a job's post-run
  // stats and its live metrics snapshots carry.
  void mergeStatsInto(support::StatsRegistry& out) const {
    out.mergeFrom(stats_);
    out.mergeFrom(interp_.stats());
    out.mergeFrom(solver_.stats());
  }

 private:
  // Interpreter callbacks: a fork here is a *local symbolic branch*, so
  // the mapper is notified (COB reacts by forking the whole dscenario).
  class InterpSink final : public vm::EffectSink {
   public:
    explicit InterpSink(Engine& engine) : engine_(engine) {}
    ExecutionState& forkState(ExecutionState& original) override;
    void onSend(ExecutionState& sender, NodeId dst,
                std::vector<expr::Ref> payload) override;
    bool tryMerge(ExecutionState& survivor, ExecutionState& absorbed) override;
    void onLog(ExecutionState& state, std::string_view message,
               expr::Ref value) override;

   private:
    Engine& engine_;
  };

  // Mapper services: forks performed *by* the mapping algorithm are pure
  // clones — no re-notification (that would recurse).
  class Runtime final : public MapperRuntime {
   public:
    explicit Runtime(Engine& engine) : engine_(engine) {}
    ExecutionState& forkState(ExecutionState& original) override;
    support::StatsRegistry& stats() override;
    obs::TraceSink* trace() override;

   private:
    Engine& engine_;
  };

  void boot();
  void processEvent(ExecutionState& state, vm::PendingEvent event);
  void deliver(ExecutionState& state, const vm::PendingEvent& event);
  // The local-branch fork path (interpreter and failure models);
  // `cause` is the trace attribution (kBranch or kFailure).
  ExecutionState& forkLocal(ExecutionState& original, obs::ForkCause cause);
  void sendOne(ExecutionState& sender, NodeId dst,
               const std::vector<expr::Ref>& payload);
  ExecutionState& cloneInternal(ExecutionState& original);
  struct FailureVariable {
    expr::Ref var = nullptr;
    std::string name;
  };
  FailureVariable makeFailureVariable(ExecutionState& state,
                                      std::string_view label);
  void applyFailureBranch(ExecutionState& state, net::FailureKind kind,
                          bool failed, const vm::PendingEvent& event);
  void appendRecvRecord(ExecutionState& state, const vm::PendingEvent& event);
  void sampleAndCheck();
  [[nodiscard]] std::optional<RunOutcome> checkCaps();

  // --- Memory meter (simulatedMemoryBytes) ---------------------------------
  // Queues `state` to be re-priced at the next read of the meter.
  void notePriceChange(const ExecutionState& state);
  void priceTouchedStates() const;

  // --- State merging (config_.mergeStates) ---------------------------------
  // Full merge pipeline: vm compatibility -> mapper veto -> algebra.
  // On success the absorbed state (plus any mapper casualties) joins
  // pendingReaps_; removal is deferred to the end of the event so no
  // live reference dangles mid-run.
  bool tryMergeStates(ExecutionState& survivor, ExecutionState& absorbed);
  // Pairwise sweep over this event's touched idle states.
  void mergeSweep();
  void reapMergedStates();

  // --- Loop summarization (config_.loopSummarize) --------------------------
  struct LoopEntry {
    std::uint64_t signature = 0;     // pre-dispatch state fingerprint
    std::uint64_t period = 0;        // recorded constant re-arm delay
    std::uint64_t instructions = 0;  // instructions one iteration costs
    std::uint32_t streak = 0;        // consecutive identical observations
    bool armed = false;
  };
  [[nodiscard]] std::uint64_t loopSignature(const ExecutionState& state,
                                            std::uint32_t timerId) const;
  // Fast path: replays the recorded iteration (clock, re-arm, fuel)
  // without entering the VM. Returns false when not armed / mismatched.
  bool tryLoopFastPath(ExecutionState& state, const vm::PendingEvent& event,
                       std::uint64_t preSignature);
  void noteLoopObservation(ExecutionState& state,
                           const vm::PendingEvent& event,
                           std::uint64_t preSignature);

  os::NetworkPlan plan_;
  EngineConfig config_;
  expr::Context ctx_;
  solver::Solver solver_;
  vm::Interpreter interp_;
  std::unique_ptr<StateMapper> mapper_;
  std::unique_ptr<net::FailureModel> failureModel_;
  Scheduler scheduler_;
  Sampler sampler_;
  CheckpointSink checkpointSink_;
  std::uint64_t checkpointEveryEvents_ = 0;
  std::uint64_t lastCheckpointAt_ = 0;  // not serialized: a resumed run
                                        // restarts its cadence
  std::unordered_map<std::string, bool> decisionFilter_;
  std::atomic<bool> suspendRequested_{false};
  obs::TraceSink* trace_ = nullptr;
  obs::PhaseProfiler* profiler_ = nullptr;
  // Flags the states whose termination was already traced (only set
  // while a sink is attached; deliberately not serialized — a resumed
  // trace may re-report a termination, which the validator tolerates for
  // resumed streams).
  StateTable<std::uint8_t> traceTerminated_;
  support::StatsRegistry stats_;
  InterpSink interpSink_;
  Runtime mapperRuntime_;

  // The memory meter (DESIGN.md §14). Shared blocks bill ledger_ while
  // this engine runs or restores (declared before states_, so it outlives
  // their blocks). Private bytes are cached per StateId and re-priced for
  // the states queued in unpriced_; kQueued marks a queued entry.
  static constexpr std::uint64_t kQueued = std::uint64_t{1} << 63;
  std::unique_ptr<support::MemoryLedger, support::MemoryLedger::Release>
      ledger_;
  mutable std::vector<std::uint64_t> privateBytes_;
  mutable std::vector<const ExecutionState*> unpriced_;
  mutable std::uint64_t privateTotal_ = 0;
  mutable support::SeenSet auditSeen_;

  std::deque<std::unique_ptr<ExecutionState>> states_;
  // The live state of each id; reaping a merged-away state empties its
  // slot, which is also how the reap tells reaped states apart.
  StateTable<ExecutionState*> byId_;
  std::unordered_map<NodeId, std::unordered_map<std::uint64_t, std::uint64_t>>
      bootGlobals_;

  std::vector<ExecutionState*> touched_;  // re-register after each event
  // Merge machinery: the guard-variable allocator is serialized
  // (checkpoint v5) so resumed runs mint disjoint guard names; the reap
  // list and the loop-summary table are engine-local.
  vm::Merger merger_;
  std::uint64_t nextMergeGuard_ = 0;
  std::vector<ExecutionState*> pendingReaps_;
  std::map<std::pair<StateId, std::uint32_t>, LoopEntry> loopDetector_;
  // Fork cost of the most recent cloneInternal (deterministic per state
  // shape); carried on the kStateFork trace event by both fork paths.
  std::uint64_t lastForkCopiedElements_ = 0;
  std::uint64_t lastForkSharedChunks_ = 0;
  bool booted_ = false;
  StateId nextStateId_ = 0;
  std::uint64_t nextPacketId_ = 1;
  std::uint64_t virtualNow_ = 0;
  std::uint64_t eventsProcessed_ = 0;
  std::uint64_t batches_ = 0;        // run-local diagnostics — see batches()
  std::uint64_t batchedEvents_ = 0;  // for why these are not stats counters
  double wallSecondsAccumulated_ = 0;
  std::chrono::steady_clock::time_point runStart_{};
  bool running_ = false;
};

}  // namespace sde

// One symbolic execution state of one node. This is the object the
// paper's state-mapping algorithms shuffle around: it forks at symbolic
// branches (locally) and when a mapping algorithm resolves a
// communication conflict (remotely), and it carries the communication
// history used to define conflicts (paper §II-B).
//
// A fork copies the call stack and the scalars, and shares everything
// else copy-on-write until one side writes it:
//  * the register file, one block of kNumRegisters values (read with
//    regs(), written through mutableRegs());
//  * the memory object table and its payloads (vm::AddressSpace);
//  * the constraint set, communication history, decision log and
//    symbolic-input list, persistent chunked sequences
//    (support::PVector) whose sealed chunks and unsealed tail are both
//    shared;
//  * the pending event queue, shared whole-sale (support::CowVec);
//  * the cold fields a fork almost never changes afterwards — failure
//    message, active timers, symbolic counters, merge guards — in one
//    shared block (ColdFields, read with cold(), written through
//    mutableCold()).
// So a fork is O(1) in the size of every component. The fingerprints
// over the histories are maintained incrementally on append, so
// configHash never rewalks them either.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "solver/constraint_set.hpp"
#include "support/hash.hpp"
#include "support/pvector.hpp"
#include "vm/memory.hpp"
#include "vm/program.hpp"

namespace sde::vm {

using NodeId = std::uint32_t;
using StateId = std::uint64_t;

enum class StateStatus : std::uint8_t {
  kIdle,        // between events, schedulable
  kRunning,     // currently inside a handler (transient)
  kFailed,      // assertion failure (kept for test-case generation)
  kInfeasible,  // an Assume contradicted the path constraints
  kKilled,      // resource limit or VM error
};

[[nodiscard]] std::string_view stateStatusName(StateStatus status);

// Engine-level event kinds carried by pending events. Declared here (not
// in sde::os) so that ExecutionState can own its pending-event queue; the
// os layer builds on the same enum.
enum class EventKind : std::uint8_t {
  kBoot = 0,   // dispatches Entry::kInit
  kTimer = 1,  // a = timer id; dispatches Entry::kTimer
  kRecv = 2,   // a = source node, payload = packet cells;
               //  dispatches Entry::kRecv
};

struct PendingEvent {
  std::uint64_t time = 0;  // absolute virtual time
  EventKind kind = EventKind::kBoot;
  std::uint64_t a = 0;
  // Run-global packet id for kRecv events (used by conflict detection;
  // excluded from contentHash because ids number packets per run and
  // differ across mapping algorithms).
  std::uint64_t b = 0;
  std::vector<expr::Ref> payload;
  std::uint64_t seq = 0;  // per-state arming order; deterministic tie-break

  // Hash excluding `seq` (which encodes arming order, already implied by
  // time ordering) — used in the state configuration fingerprint.
  [[nodiscard]] std::uint64_t contentHash() const;
};

// The memory meter's price of a queued event: the event itself plus its
// payload cells.
struct PendingEventBytes {
  static std::uint64_t of(const PendingEvent& event) {
    return sizeof(PendingEvent) + event.payload.size() * sizeof(expr::Ref);
  }
};

// One entry of the communication history h(s) (paper §II-B). The paper
// notes the history need not be stored; we store it because the test
// suite uses it to verify conflict-freeness of every dstate.
struct CommRecord {
  bool sent = false;        // true: we transmitted; false: we received
  NodeId peer = 0;          // destination (sent) or source (received)
  std::uint64_t time = 0;   // virtual time of the transmission
  std::uint64_t payloadHash = 0;
  std::uint64_t packetId = 0;  // unique per transmitted packet in a run
};

// The communication history: append-only, chunk-shared across forks,
// with two incrementally-chained fingerprints — the packet-id-free
// content view (direction, peer, time, payload) feeding configHash, and
// the packet-identity chain feeding configHashStrict. Appending updates
// both in O(1); copying shares all sealed chunks.
class CommLog {
 public:
  using Records = support::PVector<CommRecord>;
  using const_iterator = Records::const_iterator;

  void push_back(const CommRecord& rec) {
    contentChain_ = support::hashCombine(contentChain_, rec.sent ? 1 : 0);
    contentChain_ = support::hashCombine(contentChain_, rec.peer);
    contentChain_ = support::hashCombine(contentChain_, rec.time);
    contentChain_ = support::hashCombine(contentChain_, rec.payloadHash);
    strictChain_ = support::hashCombine(strictChain_, rec.packetId);
    records_.push_back(rec);
  }

  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] bool empty() const { return records_.empty(); }
  [[nodiscard]] const CommRecord& operator[](std::size_t i) const {
    return records_[i];
  }
  [[nodiscard]] const CommRecord& back() const { return records_.back(); }
  [[nodiscard]] const_iterator begin() const { return records_.begin(); }
  [[nodiscard]] const_iterator end() const { return records_.end(); }

  [[nodiscard]] std::uint64_t contentChainHash() const { return contentChain_; }
  [[nodiscard]] std::uint64_t strictChainHash() const { return strictChain_; }

  [[nodiscard]] std::uint64_t copyCostElements() const {
    return records_.copyCostElements();
  }
  [[nodiscard]] std::uint64_t sharedChunksOnCopy() const {
    return records_.sharedChunksOnCopy();
  }
  [[nodiscard]] std::uint64_t privateBytes() const {
    return records_.privateBytes();
  }
  [[nodiscard]] std::uint64_t accountBytes(support::SeenSet& seen) const {
    return records_.accountBytes(seen);
  }

  // --- Snapshot support -------------------------------------------------------
  [[nodiscard]] const Records& records() const { return records_; }
  void restoreSnapshot(Records records);

 private:
  Records records_;
  std::uint64_t contentChain_ = 0;
  std::uint64_t strictChain_ = 0;
};

// The pending-event queue. Not append-only — the scheduler erases from
// the middle, timers re-arm via eraseIf, reboot clears — so it shares
// its storage whole-sale copy-on-write instead of chunk-wise. The
// configuration fingerprints are *additive multiset hashes* (sum of
// mixed per-item hashes mod 2^64): commutative so removal subtracts in
// O(payload), and duplicates accumulate instead of cancelling as an XOR
// multiset would.
class EventQueue {
 public:
  using Events = support::CowVec<PendingEvent, PendingEventBytes>;
  using const_iterator = Events::const_iterator;

  void push_back(PendingEvent event) {
    noteInsert(event);
    events_.push_back(std::move(event));
  }
  void pop_back() {
    noteErase(events_.back());
    events_.pop_back();
  }
  void clear() {
    events_.clear();
    contentMultiset_ = 0;
    strictRecvMultiset_ = 0;
  }
  void erase(const_iterator pos) {
    noteErase(*pos);
    events_.erase(pos);
  }
  // Removes events matching `pred` (must be pure; may run repeatedly).
  template <typename Pred>
  std::size_t eraseIf(Pred pred) {
    for (const PendingEvent& event : events_)
      if (pred(event)) noteErase(event);
    return events_.eraseIf(pred);
  }

  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] const PendingEvent& operator[](std::size_t i) const {
    return events_[i];
  }
  [[nodiscard]] const PendingEvent& back() const { return events_.back(); }
  [[nodiscard]] const_iterator begin() const { return events_.begin(); }
  [[nodiscard]] const_iterator end() const { return events_.end(); }

  // Order-independent fingerprint of the queued events' contentHash()es.
  [[nodiscard]] std::uint64_t contentHash() const { return contentMultiset_; }
  // Multiset of packet ids over queued kRecv events (strict view).
  [[nodiscard]] std::uint64_t strictRecvHash() const {
    return strictRecvMultiset_;
  }

  [[nodiscard]] std::uint64_t sharedChunksOnCopy() const {
    return events_.sharedChunksOnCopy();
  }
  [[nodiscard]] std::uint64_t accountBytes(support::SeenSet& seen) const {
    return events_.accountBytes(seen);
  }

  // --- Snapshot support -------------------------------------------------------
  [[nodiscard]] const Events& events() const { return events_; }
  void restoreSnapshot(Events events);

 private:
  void noteInsert(const PendingEvent& event) {
    contentMultiset_ += support::mix64(event.contentHash());
    if (event.kind == EventKind::kRecv)
      strictRecvMultiset_ += support::mix64(event.b);
  }
  void noteErase(const PendingEvent& event) {
    contentMultiset_ -= support::mix64(event.contentHash());
    if (event.kind == EventKind::kRecv)
      strictRecvMultiset_ -= support::mix64(event.b);
  }

  Events events_;
  std::uint64_t contentMultiset_ = 0;
  std::uint64_t strictRecvMultiset_ = 0;
};

// One engine-level failure decision taken on a path (see
// ExecutionState::decisions below for the replay semantics).
struct DecisionRecord {
  expr::Ref var = nullptr;  // the symbolic decision variable
  bool failed = false;      // branch taken: true = the failure branch
};

// Side table of one state merge this state survived (opt-in merging
// mode). The merge minted the fresh boolean guard variable `guard`
// ("mrg.N", true selects the survivor arm), replaced every differing
// register/memory cell with ite(guard, survivorVal, absorbedVal), and
// replaced the two arms' constraint suffixes with the single item
// `conjunct` == ite(guard, And(ifTrue), And(ifFalse)). The suffixes and
// the arms' decision-record tails are kept verbatim so the merge can be
// *undone exactly*: splitting on guard=v splices the matching suffix
// back in place of `conjunct` (and test-case expansion enumerates both
// assignments), reproducing the very states an unmerged run builds.
struct MergeGuard {
  expr::Ref guard = nullptr;     // width-1 variable; true => survivor arm
  expr::Ref conjunct = nullptr;  // the merged constraint item; nullptr
                                 //  when both suffixes were empty
  std::vector<expr::Ref> ifTrue;    // survivor-arm constraint suffix
  std::vector<expr::Ref> ifFalse;   // absorbed-arm constraint suffix
  std::vector<DecisionRecord> decTrue;   // survivor-arm decision tail
  std::vector<DecisionRecord> decFalse;  // absorbed-arm decision tail
  // Index into the merged decisions list where decTrue begins (== the
  // two arms' common decision prefix length at merge time); decFalse
  // follows immediately. Post-merge appends land after both, so the
  // ranges stay valid for a later split.
  std::size_t decSplit = 0;
  // The arms' own merge entries beyond their common prefix: a survivor
  // that had merged before contributes its extra entries to subTrue,
  // the absorbed arm's to subFalse. A split re-appends the matching
  // list, restoring exactly the arm's pre-merge table.
  std::vector<MergeGuard> subTrue;
  std::vector<MergeGuard> subFalse;
  // Memory objects present in exactly one arm (phantom objects, e.g.
  // the delivered-payload buffer the dropped arm never allocated). The
  // merged space holds ite(guard, cells, 0...) for them; a split on the
  // losing polarity removes them again.
  std::vector<std::uint64_t> objsTrueOnly;
  std::vector<std::uint64_t> objsFalseOnly;
};

// The fields of a state that a fork almost never changes afterwards.
// Forked states share one block until one of them writes it
// (ExecutionState::mutableCold clones a shared block first).
struct ColdFields {
  std::string failureMessage;
  // Active timers: timer id -> seq of the arming (re-arming supersedes).
  std::map<std::uint32_t, std::uint64_t> activeTimers;
  // Per-label counters making symbolic input names deterministic and
  // node-local: "n<node>.<label>.<k>".
  std::map<std::string, std::uint32_t> symbolicCounters;
  // Side tables of the merges this state survived, in merge order
  // (outermost first). Serialized in checkpoint v5; empty when merging
  // is off.
  std::vector<MergeGuard> mergeGuards;
};

// The register file: one value per register, null for a register no
// instruction has written (the interpreter reads it as zero).
using Registers = std::array<expr::Ref, kNumRegisters>;

// What the memory meter bills for the state object itself, whatever its
// layout: the object's size before forks shared their object tables,
// sequence tails, cold fields and register files. A fixed price keeps the paper-model
// RAM independent of the struct's layout and the standard library
// (DESIGN §14); the object may not outgrow it.
inline constexpr std::uint64_t kStateObjectBytes = 800;

class ExecutionState {
 public:
  ExecutionState(StateId id, NodeId node, const Program& program)
      : id_(id), node_(node), program_(&program) {}

  // Forks this state: the clone copies the call stack and scalars, and
  // shares the register file, the object table, the histories' chunks
  // and tails, the event queue and the cold fields copy-on-write — O(1)
  // in every size. The caller (engine) assigns the new id.
  [[nodiscard]] std::unique_ptr<ExecutionState> fork(StateId newId) const;

  // --- Identity ------------------------------------------------------------
  [[nodiscard]] StateId id() const { return id_; }
  [[nodiscard]] NodeId node() const { return node_; }
  [[nodiscard]] const Program& program() const { return *program_; }

  // --- Execution context ----------------------------------------------------
  // The register file, shared with the states forked from this one.
  [[nodiscard]] const Registers& regs() const {
    return regs_ == nullptr ? emptyRegs() : *regs_;
  }
  // The register file, ours alone: cloned first if another state shares
  // it. Call it only to write; a fork of this state shares the file
  // again, so a writer keeps no reference across one.
  Registers& mutableRegs();
  std::size_t pc = 0;
  std::vector<std::size_t> callStack;
  AddressSpace space;
  solver::ConstraintSet constraints;
  StateStatus status = StateStatus::kIdle;
  std::uint64_t clock = 0;  // local virtual time (last dispatched event)

  // --- Event queue -----------------------------------------------------------
  EventQueue pendingEvents;
  std::uint64_t nextEventSeq = 0;

  // --- Cold fields -------------------------------------------------------------
  // Failure message, active timers, symbolic counters and merge guards
  // (see ColdFields), shared with the states forked from this one.
  [[nodiscard]] const ColdFields& cold() const {
    return cold_ == nullptr ? emptyCold() : *cold_;
  }
  // The cold fields, ours alone: cloned first if another state shares
  // them. Call it only to write.
  ColdFields& mutableCold();

  // One engine-level failure decision taken on this path, in decision
  // order — the deterministic-replay log. Re-running the engine with all
  // of these decisions forced (Engine decision filter) reproduces this
  // state's distributed scenario without exploring the rest of the tree;
  // the parallel runner uses the log to assign each explored dscenario
  // to exactly one partition job.
  using DecisionRecord = sde::vm::DecisionRecord;

  // --- SDE bookkeeping --------------------------------------------------------
  CommLog commLog;
  support::PVector<DecisionRecord> decisions;
  // Distinct symbolic inputs created on this path, in creation order
  // (the test case of this state assigns each of them).
  support::PVector<expr::Ref> symbolics;

  // Number of VM instructions this state has executed (#(s) in the
  // paper's complexity analysis).
  std::uint64_t executedInstructions = 0;

  // --- State merging (opt-in) -------------------------------------------------
  // Intra-handler parking (merge mode): a symbolic branch whose join
  // point is known pushes one shared token on both siblings; a state
  // reaching joinPc at the recorded call depth parks there until the
  // sibling arrives (ite-merge) or can no longer arrive (release).
  // `live` counts the states still holding or parked on the token.
  // Transient: only meaningful while kRunning inside one runEvent call,
  // never serialized (checkpoints fire between events, when all stacks
  // are empty).
  struct MergeToken {
    std::size_t joinPc = 0;
    std::size_t depth = 0;  // callStack depth at the fork
    int live = 0;
    std::vector<ExecutionState*> parked;
  };
  std::vector<std::shared_ptr<MergeToken>> mergeTokens;  // innermost last

  // Set when this state was absorbed into a sibling mid-event; the
  // engine reaps flagged states at the end of the event. Transient.
  bool mergedAway = false;

  // --- Fork cost / memory accounting -----------------------------------------
  // Elements fork() defers copying across the chunked histories: their
  // tails, which the clone shares until either side appends (then that
  // side clones its tail). A pure structural function of this state,
  // deterministic across runs and worker counts.
  [[nodiscard]] std::uint64_t forkCopyCost() const;
  // Storage blocks fork() shares instead of copying (sealed chunks +
  // the CoW event queue payload).
  [[nodiscard]] std::uint64_t forkSharedChunks() const;
  // Bytes billed to this state alone: the object itself (the fixed
  // kStateObjectBytes), call stack, failure message, timers, symbolic
  // counters, merge guards, and the sequence tails and spine entries —
  // shared or not, a state pays for its own. The engine re-prices a
  // state when an event touches it.
  [[nodiscard]] std::uint64_t privateBytes() const;
  // The audit walk: privateBytes() plus every shared block — memory
  // payloads, sealed history chunks, the event-queue payload — that
  // `seen` meets first. Summed over all states it equals the engine's
  // memory ledger.
  [[nodiscard]] std::uint64_t accountBytes(support::SeenSet& seen) const;

  // --- Fingerprints -------------------------------------------------------------
  // Configuration hash over node id, program counter, registers, memory,
  // path constraints, pending events, clock and the packet-id-free view
  // of the communication history. Stable across runs and across mapping
  // algorithms — the cross-algorithm equivalence oracle. Because it
  // ignores packet identity, equal-content packets from rival senders
  // make states compare equal: this measures the *semantic* duplicates
  // the paper's §III-D content-analysis optimisation could remove.
  // The histories (constraints, pending events, communication log) enter
  // through their incrementally maintained fingerprints, O(1) in their
  // sizes; the memory does not: AddressSpace::contentHash walks every
  // cell of every object, so a call costs O(memory cells).
  [[nodiscard]] std::uint64_t configHash() const;

  // Like configHash but distinguishing packets by identity, matching the
  // paper's formal model where "all packets ... are assumed to be unique
  // and distinguishable" (§II-B). This is the duplicate notion of the
  // §III-D non-duplication theorem: SDS never produces two states with
  // equal strict configuration. Only comparable within one run.
  [[nodiscard]] std::uint64_t configHashStrict() const {
    return configHashStrict(configHash());
  }
  // The same value from this state's configHash(), already computed (the
  // strict hash extends it with the packet-identity chains in O(1)).
  [[nodiscard]] std::uint64_t configHashStrict(std::uint64_t content) const;

  [[nodiscard]] bool isTerminal() const {
    return status == StateStatus::kFailed ||
           status == StateStatus::kInfeasible ||
           status == StateStatus::kKilled;
  }

 private:
  static const ColdFields& emptyCold();
  static const Registers& emptyRegs();

  StateId id_;
  NodeId node_;
  const Program* program_;
  std::shared_ptr<Registers> regs_;   // null = every register null
  std::shared_ptr<ColdFields> cold_;  // null = all cold fields empty
};

static_assert(sizeof(ExecutionState) <= kStateObjectBytes,
              "the memory meter bills a state kStateObjectBytes");

}  // namespace sde::vm

// Scoped phase profiler: where does the wall-clock go — interpretation,
// mapping, solving, checkpointing, scheduling, state merging, metric
// sampling, or the post-run report?
//
// Accounting is *self-time*: entering a nested phase pauses the
// enclosing one, so the per-phase totals partition the instrumented
// wall-time instead of double-counting it (solver time spent inside an
// interpreter step is charged to kSolver, not to both). The profiler is
// opt-in and pointer-guarded exactly like the trace sink: a null
// profiler costs one compare per scope, no clock read.
//
// The profiler is NOT thread-safe by design — each Engine is
// single-threaded and owns at most one; a partitioned run uses one
// profiler per job and merges the snapshots.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "support/assert.hpp"
#include "support/stats.hpp"

namespace sde::obs {

enum class Phase : std::uint8_t {
  kInterp = 0,      // event dispatch / bytecode interpretation
  kMapping,         // StateMapper::onTransmit / onLocalBranch
  kSolver,          // solver facade entry points
  kCheckpoint,      // Engine::checkpoint / restore
  kScheduler,       // scheduler pop + re-registration
  kSampling,        // memory-cap meter + sampler hook (in fleet workers
                    //  also the protocol pump)
  kMerge,           // state merging: join-point merges, sweep and reap
  kReport,          // post-run duplicate scan (trace::summarize)
  kNumPhases,
};
inline constexpr std::size_t kNumPhases =
    static_cast<std::size_t>(Phase::kNumPhases);

[[nodiscard]] std::string_view phaseName(Phase phase);

// Deterministic-shape snapshot of a profiler (or of a trace file's
// profile section): per-phase self-time and enter counts.
struct PhaseProfile {
  struct Entry {
    std::uint64_t nanos = 0;
    std::uint64_t calls = 0;
  };
  std::array<Entry, kNumPhases> phases{};

  // Per-opcode execution histogram from the interpreter: "op.<name>"
  // entries carry execution counts (and self-time when the run was made
  // under SDE_OPCODE_TIME); "pair.<a>+<b>" entries carry adjacent-pair
  // counts — the data the superinstruction selection is audited
  // against. They ride the trace file's name-keyed profile section
  // unchanged; readers that predate them drop unknown names.
  struct OpEntry {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t nanos = 0;
  };
  std::vector<OpEntry> opcodes;

  // Phase self-time only: opcode nanos are inclusive (nested solver and
  // mapping work included) and would double-count.
  [[nodiscard]] std::uint64_t totalNanos() const;
  [[nodiscard]] bool empty() const;
  // Adds per-phase totals to a registry as "profile.<phase>.micros" /
  // "profile.<phase>.calls", and the opcode entries as
  // "profile.<op>.count" / ".micros" — the bench report surface and the
  // bridge from per-engine wall-clock attribution to the fleet's live
  // metrics plane. Micros, not nanos: these counters are summed by
  // StatsRegistry::mergeFrom across a fleet and stay readable. Never
  // added to an engine's own registries, which feed fingerprints.
  void toStats(support::StatsRegistry& stats) const;
  // Rendered table rows: phase, self time, calls, share of total.
  [[nodiscard]] std::string report() const;

  PhaseProfile& mergeFrom(const PhaseProfile& other);
};

class PhaseProfiler {
 public:
  void enter(Phase phase) {
    const auto now = Clock::now();
    if (!stack_.empty()) accumulate(stack_.back(), now);
    stack_.push_back(phase);
    ++profile_.phases[index(phase)].calls;
    sliceStart_ = now;
  }
  void exit() {
    SDE_ASSERT(!stack_.empty(), "phase exit without matching enter");
    accumulate(stack_.back(), Clock::now());
    stack_.pop_back();
    sliceStart_ = Clock::now();
  }

  [[nodiscard]] const PhaseProfile& profile() const {
    SDE_ASSERT(stack_.empty(), "profile read inside an open phase scope");
    return profile_;
  }
  // Attaches the interpreter's opcode histogram to the snapshot
  // (replacing any previous attachment — the interpreter's counters are
  // cumulative, so the engine re-attaches after every run).
  void setOpcodes(std::vector<PhaseProfile::OpEntry> opcodes) {
    profile_.opcodes = std::move(opcodes);
  }
  void clear() {
    SDE_ASSERT(stack_.empty(), "clear inside an open phase scope");
    profile_ = PhaseProfile{};
  }

 private:
  using Clock = std::chrono::steady_clock;
  static std::size_t index(Phase phase) {
    return static_cast<std::size_t>(phase);
  }
  void accumulate(Phase phase, Clock::time_point now) {
    profile_.phases[index(phase)].nanos += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - sliceStart_)
            .count());
  }

  PhaseProfile profile_;
  std::vector<Phase> stack_;
  Clock::time_point sliceStart_{};
};

// RAII scope; null profiler => a single pointer compare, nothing else.
class ScopedPhase {
 public:
  ScopedPhase(PhaseProfiler* profiler, Phase phase) : profiler_(profiler) {
    if (profiler_ != nullptr) profiler_->enter(phase);
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;
  ~ScopedPhase() {
    if (profiler_ != nullptr) profiler_->exit();
  }

 private:
  PhaseProfiler* profiler_;
};

}  // namespace sde::obs

// Parallel dscenario exploration (paper §VI).
//
// The paper observes that distributed symbolic execution parallelises
// naturally: dscenarios are independent once the failure decisions that
// separate them are fixed. We exploit exactly that: a PartitionPlan
// names B failure-decision variables and spawns 2^B *partition jobs*,
// one per assignment. Each job runs a complete, shared-nothing Engine
// (own expression context, solver, query cache, scheduler) with the
// plan's variables forced through the engine's decision filter, so the
// jobs explore disjoint slices of the legacy search tree and never
// share mutable engine state — workers need no locks around engine
// internals. Worker threads (support::runPlaced) claim job ids from one
// counter, lowest first, and run each job through runPartitionJob, the
// job runner fleet workers use too (sde/fleet.hpp). The one
// deliberately shared structure is the query store the runner attaches
// to every job's solver: an anonymous shared mapping
// (solver/shm_cache.hpp), made the same way the fleet makes its own
// (snapshot::openSharedStore). Jobs consult it live and publish
// canonical results, so a query one job solved is never enumerated
// again in the run. Its contract (context-independent keys, canonical
// values only — see solver/shared_cache.hpp) keeps every determinism
// guarantee below intact with the store on or off.
//
// Determinism: the plan depends only on (variables, seed), jobs are
// merged in job-id order at a barrier, and each engine is sequential —
// so the merged result is byte-identical for any worker count and any
// thread interleaving. Paths that never decide a partition variable are
// re-explored by every job that agrees on the variables they *did*
// decide; the ownership rule (each dscenario is owned by the job whose
// extra forced-true variables all appear in the members' decision logs)
// assigns every legacy dscenario to exactly one job, so owned counts
// and fingerprint unions match the single-engine run.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sde/engine.hpp"
#include "support/stats.hpp"

namespace sde::solver {
class ShmQueryCache;
}  // namespace sde::solver

namespace sde {

// One slice of the search tree: run the engine with every listed
// variable forced to the paired value.
struct PartitionJob {
  std::uint32_t id = 0;      // bit i = forced value of plan.variables[i]
  std::uint64_t seed = 0;    // per-job stream, derived from the plan seed
  std::vector<std::pair<std::string, bool>> forced;
};

struct PartitionPlan {
  std::vector<std::string> variables;  // failure-decision variable names
  std::vector<PartitionJob> jobs;      // 2^variables.size(), in id order
};

// Builds the full-factorial plan over `variables` (at most 16 — jobs
// grow as 2^B). Deterministic in (variables, seed).
[[nodiscard]] PartitionPlan planPartitions(
    std::span<const std::string> variables, std::uint64_t seed = 0);

// What both runners read: the thread runner's ParallelConfig and the
// fleet's FleetConfig (sde/fleet.hpp) derive from it, and the job
// runner, the extraction pass and the merge below take it.
struct RunConfig {
  std::uint64_t horizon = 0;  // virtual-time horizon passed to run()
  bool collectScenarioFingerprints = true;
  bool collectStateFingerprints = true;
  // Generate canonical test cases for every owned dscenario (one string
  // per dscenario — keep off for large runs; the solver works once per
  // member state where a group decomposes by node, see collectJobResult).
  bool collectTestcases = false;
  // Live cross-job query sharing: one shm store (solver/shm_cache.hpp)
  // attached to every job's solver for the duration of the run. Off
  // runs every job with fully isolated caches. Exploration results are
  // identical either way; only solver work changes, and the store's
  // traffic is counted in each solver's stats
  // (solver.layer.shared_cache.{queries,hits}). Durable runs write the
  // store to the shared_cache.bin sidecar when the run returns and seed
  // it from there on a resume.
  bool shmQueryCache = true;
  // --- Durable runs (snapshot subsystem) -------------------------------------
  // Non-empty: the run is crash-tolerant. The directory receives a run
  // manifest, one periodic checkpoint per unfinished job and one .done
  // file per completed job (see snapshot/manifest.hpp for the layout).
  // A job whose .done file exists and decodes is loaded instead of run,
  // and a job whose checkpoint exists continues from it; a fresh start
  // deletes every per-job file first. The fleet requires a directory
  // (it is the fleet's job queue); a thread run without one touches no
  // file.
  std::string checkpointDir;
  // Minimum processed events between two checkpoints of one job (the
  // cadence rides the engine's sampling hook; 0 checkpoints only when a
  // resource cap aborts a job or a suspend stops it).
  std::uint64_t checkpointEveryEvents = 256;
  // Resume from `checkpointDir`: its manifest must describe this run
  // (variables, jobs, horizon, spec) — a mismatch throws
  // snapshot::SnapshotError rather than silently mixing two runs. A
  // missing manifest degrades to a fresh start.
  bool resume = false;
  // Opaque scenario descriptor recorded in the manifest so external
  // tools (sde_checkpoint resume, sde_fleet resume) can rebuild the
  // engine factory.
  std::string scenarioSpec;
  // --- Tracing (obs/) --------------------------------------------------------
  // Non-empty: every job streams a structured event trace to
  // <traceDir>/trace_job<id>.trc (stream id = job id), and after the
  // merge barrier the runner stitches all job traces into
  // <traceDir>/merged.trc. The merge is keyed on virtual time and
  // per-stream sequence numbers only (the stitchSamples contract), so
  // the merged file is byte-identical for any worker or process count.
  // With a live shared store, kSolverQuery layer attribution is
  // timing-dependent: byte-compare merged traces only with the store
  // off (digests are safe either way).
  std::string traceDir;
};

struct ParallelConfig : RunConfig {
  unsigned workers = 1;  // worker threads (jobs stay sequential)
};

// Everything observable about one finished partition job. All fields
// except wallSeconds are deterministic functions of the job definition.
struct JobResult {
  std::uint32_t jobId = 0;
  RunOutcome outcome = RunOutcome::kCompleted;
  std::uint64_t states = 0;
  std::uint64_t events = 0;
  std::uint64_t groups = 0;
  std::uint64_t memoryBytes = 0;
  std::uint64_t scenariosRepresented = 0;  // countScenarios() of the job
  std::uint64_t scenariosOwned = 0;        // after the ownership rule
  double wallSeconds = 0;
  std::vector<std::uint64_t> scenarioFingerprints;  // owned, sorted distinct
  std::vector<std::uint64_t> stateFingerprints;     // configHash, sorted
                                                    // distinct
  std::vector<std::string> testcases;  // canonical (id-free), sorted
                                       // distinct
  support::StatsRegistry stats;        // engine + interpreter + solver
};

struct ParallelResult {
  std::vector<JobResult> jobs;  // job-id order
  RunOutcome outcome = RunOutcome::kCompleted;
  std::uint64_t totalStates = 0;
  std::uint64_t totalEvents = 0;
  std::uint64_t totalScenariosOwned = 0;  // == legacy countScenarios()
  std::vector<std::uint64_t> scenarioFingerprints;  // union, sorted distinct
  std::vector<std::uint64_t> stateFingerprints;     // union, sorted distinct
  std::vector<std::string> testcases;               // union, sorted distinct
  support::StatsRegistry stats;
  double wallSeconds = 0;  // whole fleet, wall clock

  // Digest over every deterministic field — the workers-invariance
  // oracle: runs of the same plan must produce equal digests for any
  // worker count, with the solver pipeline or the shared query cache
  // on or off. "solver."-prefixed counters are excluded: *what* was
  // explored is timing-invariant, but *which pipeline layer* answered
  // each query legitimately depends on what the shared cache already
  // held (and layer latencies are wall-clock).
  [[nodiscard]] std::uint64_t fingerprintDigest() const;
};

// Builds the engine for one job: a fresh Engine over the same network
// plan and configuration every time. Called from worker threads
// concurrently — must not touch shared mutable data. The job runner
// applies the job's decision filter and the shared store afterwards, so
// the factory only constructs and configures scenario-level detail
// (failure model, boot globals, samplers, per-engine caps).
using EngineFactory =
    std::function<std::unique_ptr<Engine>(const PartitionJob&)>;

[[nodiscard]] ParallelResult runPartitioned(const EngineFactory& factory,
                                            const PartitionPlan& plan,
                                            const ParallelConfig& config);

// Canonical, run-independent rendering of a dscenario's test cases: the
// member states' inputs under one joint model, keyed by node — state
// ids (which depend on exploration order) are deliberately absent, so
// the strings compare equal across partitioned and legacy runs.
[[nodiscard]] std::string canonicalScenarioTestcase(
    solver::SolverClient& solver, std::span<ExecutionState* const> scenario);

// Merge-aware test-case extraction: a dscenario whose members carry
// merge guards stands for one unmerged dscenario per feasible guard
// assignment. Enumerates every assignment, reconstructs the exact
// unmerged constraint system (vm::MergeExpansion) and renders each
// variant with canonicalScenarioTestcase's format, so the union over a
// merged run equals the unmerged run's testcase set verbatim. With no
// guards this is exactly {canonicalScenarioTestcase(...)}.
[[nodiscard]] std::vector<std::string> expandedScenarioTestcases(
    expr::Context& ctx, solver::SolverClient& solver,
    std::span<ExecutionState* const> scenario);

// --- Building blocks shared with the fleet runner (sde/fleet.hpp) ----------
// The thread runner above and the multi-process fleet run every job
// through the same job runner and produce their digests through the
// same extraction and merge code, which is what makes "fleet digest ==
// partitioned digest" a structural property rather than a
// re-implementation kept in sync by tests alone.

// The deterministic per-job extraction pass: run outcome, sizes, and —
// after the ownership rule — the job's share of the dscenario universe.
// Test cases of a group that decomposes by node (no variable constrained
// under two nodes, no input constrained under another node, no merge
// guards) are the concatenation of per-member test cases, each solved
// once per job; every other group goes through
// expandedScenarioTestcases per dscenario. Both give the bytes of
// solving each dscenario's union (DESIGN.md §11).
[[nodiscard]] JobResult collectJobResult(Engine& engine,
                                         const PartitionJob& job,
                                         const RunConfig& config,
                                         RunOutcome outcome);

// What a runner adds to runPartitionJob; empty hooks are skipped.
struct JobHooks {
  // Applied to every engine the job runner builds, before any restore —
  // including the rebuild after a torn checkpoint.
  std::function<void(Engine&)> onEngine;
  // Runs right after each checkpoint of the job was written.
  std::function<void()> onCheckpoint;
};

struct JobRun {
  // Loaded from the job's .done file or extracted after the run. A run
  // that returned kSuspended is deliberately unfinished, and one whose
  // extraction ran out of memory ends as kAbortedMemory: only their id,
  // outcome, sizes and counters are filled.
  JobResult result;
  bool executed = false;  // an engine ran (false: loaded from .done)
};

// Runs one partition job, the same way in both runners: build the
// engine with `factory`, force the job's decisions, attach `shared`
// (may be null), open the job's trace before any restore (so a resumed
// job continues the suspended run's sequence numbering), run to
// config.horizon, extract the result and close the trace. In a durable
// run (config.checkpointDir set) a job whose .done file exists and
// decodes is loaded instead of run, an existing checkpoint is restored
// (a torn one rebuilds the engine), and a completed run writes the
// .done file and removes the checkpoint. If extracting the result runs
// out of memory (std::bad_alloc: the job owns more dscenarios than the
// process can hold the fingerprints or test cases of), the job ends as
// RunOutcome::kAbortedMemory with only its id, sizes and counters, and
// writes no .done file — both runners fold it like a cap-aborted job.
[[nodiscard]] JobRun runPartitionJob(const EngineFactory& factory,
                                     const PartitionJob& job,
                                     const RunConfig& config,
                                     solver::ShmQueryCache* shared,
                                     const JobHooks& hooks = {});

// Per-job trace file location inside a trace directory
// ("trace_job<id>.trc", stream id = job id).
[[nodiscard]] std::string jobTracePath(const std::string& traceDir,
                                       std::uint32_t jobId);

// The merge in two steps. foldJobResult adds one job to the totals, the
// fingerprint and test-case unions and the stats (summed, high-water
// marks by max: StatsRegistry::mergeFrom). Every part of it commutes,
// so jobs may be folded in any order, each exactly once — the fleet
// coordinator folds a job as soon as its worker reports it. It leaves
// result.jobs alone: the caller keeps the job there for the digest.
void foldJobResult(ParallelResult& result, const JobResult& job);

// The order-dependent rest, once every job is folded: the run outcome
// becomes that of the first job in result.jobs (job-id order) that did
// not complete, and — when config.traceDir is set — the existing
// per-job trace files are stitched into <traceDir>/merged.trc in job-id
// order.
void sealParallelResult(ParallelResult& result, const PartitionPlan& plan,
                        const RunConfig& config);

// The deterministic merge barrier: folds result.jobs (already filled,
// job-id order) with foldJobResult, then sealParallelResult. Does not
// touch result.wallSeconds.
void finalizeParallelResult(ParallelResult& result, const PartitionPlan& plan,
                            const RunConfig& config);

}  // namespace sde

// Multi-process fleet execution (ROADMAP item "scale out to worker
// processes").
//
// The thread runner (sde/parallel.hpp) spreads partition jobs over a
// thread pool inside one process. The fleet runner spreads the same
// jobs over N forked worker *processes* — the test-depth/prefix
// partitioning view: the 2^B partition jobs are a prefix enumeration of
// the failure-decision space, and a *shard* is a contiguous job-id
// range a worker leases. A worker runs each job through runPartitionJob,
// the job runner a pool thread of the thread runner uses too. Because
// each job is a complete shared-nothing engine run, a worker process
// needs nothing from anyone else to make progress; everything
// cross-process is coordination:
//
//   * Durable job queue. The PR 2 checkpoint substrate IS the queue:
//     the run directory's manifest fixes the job table, `job_<id>.ckpt`
//     is a suspended job, `job_<id>.done` (atomic temp+rename) is the
//     completion marker. A SIGKILLed worker's shard is simply re-leased
//     to a fresh process; re-running an already-completed job is
//     impossible (.done short-circuits before an engine is built) and
//     re-running a half-done one resumes from its checkpoint. Nothing
//     in the protocol below is load-bearing for correctness — a crash
//     at ANY point loses at most in-flight work, never results.
//
//   * Pipe protocol. Each worker has a command pipe (coordinator →
//     worker) and a status pipe (worker → coordinator), carrying
//     length-prefixed fixed-size frames smaller than PIPE_BUF (writes
//     are atomic, no interleaving). Workers report progress and
//     frontier sizes; the coordinator poll()s all status pipes.
//
//   * Work stealing. When a worker goes idle and the re-lease pool is
//     empty, the coordinator picks the fattest victim (most strictly-
//     pending jobs in its shard, by the coordinator's mirror) and sends
//     kSteal. The *victim* splits — it alone knows its true progress —
//     handing over the upper half of [next+1, hi), shrinking its own
//     hi first and replying second. A victim killed between the two
//     steps is handled by the death path: the coordinator drains the
//     status pipe to EOF (pipes preserve written data past writer
//     death, so a written reply is never lost), then re-leases
//     [nextKnown, hi) of its mirror — the reply, if received, already
//     shrank the mirror, so stolen ranges are never double-leased.
//
//   * Death handling. POLLHUP/EOF on a status pipe → drain, waitpid,
//     re-lease the mirror range to the pool, fork a replacement (up to
//     16 per run). Workers set PR_SET_PDEATHSIG so a dead coordinator
//     reaps its fleet instead of leaking it; a fleet that sends no frame
//     for 120 s is declared wedged.
//
//   * Shared query store (solver/shm_cache.hpp), the same one the
//     thread runner uses, made through the same path
//     (snapshot::openSharedStore): the coordinator makes the store, an
//     anonymous shared mapping, before it forks, seeds it from the
//     durable shared_cache.bin sidecar on a resume, and every worker's
//     solver shares queries through the inherited mapping live. The
//     mapping has no name, so a SIGKILLed coordinator leaves nothing in
//     /dev/shm. A store that cannot be made runs the fleet without
//     sharing, never with different exploration results — the store
//     contract guarantees digest equality with the store on or off.
//
// Merge: when a worker reports a job completed, the coordinator reads
// the job's .done file and folds it with the thread runner's
// foldJobResult, which commutes, once the frames of that poll round are
// handled, so only the last job's fold is left when the last worker
// exits. Then the jobs without a loadable .done
// file add their reported numbers, and sealParallelResult sets the
// outcome and merges the traces in job-id order — the two halves of
// the thread runner's finalizeParallelResult, so "fleet digest ==
// partitioned digest == single-engine digest" is a structural
// property. Per-worker trace files merge into the same deterministic
// merged.trc.
//
// Graceful suspend: a FleetConfig::stopRequested poll (or SIGTERM with
// installSigtermSuspend) broadcasts kSuspendFleet; each worker asks its
// running engine to suspend (Engine::requestSuspend), the abort path
// writes the job checkpoint, the worker reports kSuspended and exits
// cleanly. The coordinator returns FleetResult::suspended without
// merging; the durable queue holds everything needed to resume. This is
// what makes preemption free for a scheduler embedding the fleet: a
// suspended run costs one checkpoint write, never lost exploration.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "sde/parallel.hpp"

namespace sde::obs {
class ShmMetricsPlane;
}  // namespace sde::obs

namespace sde {

class FleetError : public std::runtime_error {
 public:
  explicit FleetError(const std::string& what) : std::runtime_error(what) {}
};

// Test-only fault-injection hooks. They run INSIDE the worker process
// (the closures are captured at fork time); a chaos test typically
// raises SIGKILL on itself when an on-disk sentinel says it is this
// worker's turn to die. Because a respawned worker restarts from the
// same fork image, kill-once conditions must live on the file system,
// not in captured memory.
struct FleetChaos {
  // Before the worker runs `jobId` (after leasing, before any engine).
  std::function<void(unsigned slot, std::uint32_t jobId)> beforeJob;
  // Inside the checkpoint sink, right after the engine checkpoint was
  // atomically written ("mid-checkpoint-write" from the job's view: the
  // job is suspended on disk but far from done).
  std::function<void(unsigned slot, std::uint32_t jobId)> onCheckpoint;
};

// The fleet's settings on top of the run settings both runners share
// (RunConfig, sde/parallel.hpp). checkpointDir is REQUIRED here — the
// durable job queue lives there, in the thread runner's durable layout,
// so sde_checkpoint understands fleet runs. A resume also seeds the
// shared store from the shared_cache.bin sidecar (written when a run
// returns).
struct FleetConfig : RunConfig {
  unsigned processes = 1;  // worker processes to fork
  // --- Graceful suspend (the embed-able coordinator API) ---------------------
  // Polled by the coordinator between protocol rounds (~5x/s). Returning
  // true triggers a fleet-wide graceful suspend: every worker checkpoints
  // its in-flight job (engine abort path -> job_<id>.ckpt) and exits
  // cleanly, runFleet returns with FleetResult::suspended set, and a
  // later run with RunConfig::resume finishes the run losslessly —
  // same digest as an uninterrupted run. This is how an embedding
  // service preempts a fleet without losing work.
  std::function<bool()> stopRequested;
  // Install a SIGTERM handler for the duration of runFleet that triggers
  // the same graceful suspend (restored on return). The idiom for
  // daemon-managed fleet processes: SIGTERM means "checkpoint and yield",
  // SIGKILL still degrades to the crash-recovery path.
  bool installSigtermSuspend = false;
  // --- Live metrics plane (obs/metrics.hpp + obs/metrics_shm.hpp) -----------
  // Every fleet has one: each worker seqlock-publishes, into its slot of
  // the plane at the status cadence and after every job, the stats of
  // the jobs it finished plus the running engine's registries (engine,
  // interpreter and solver counters with the per-layer solver latency
  // histograms) and its jobs' phase profiles — the numbers the post-run
  // merge folds, so live totals equal post-run totals. The coordinator
  // publishes its fleet.* counters into slot 0 and writes the merged
  // snapshot to the durable metrics.sde sidecar at the end. Purely
  // observational: a plane that cannot be made is logged and the run
  // goes on without it, with the same digests.
  //
  // The plane to publish into, owned by the caller, who made it before
  // calling runFleet (the workers inherit its mapping through fork) and
  // reads it while the fleet runs: sde_serve's daemon passes the plane
  // of the job it forked this runner for. It needs at least
  // processes + 1 slots (FleetError otherwise). Null: the fleet makes a
  // private plane of its own.
  obs::ShmMetricsPlane* metricsPlane = nullptr;
  // Status-frame cadence, in processed events per worker.
  std::uint64_t statusEveryEvents = 256;
  // Initial shard leases as contiguous [lo, hi) job-id ranges, one per
  // worker slot (tests use this to force skew). Empty = even split.
  // Ranges must be disjoint and cover all jobs.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> initialLeases;
  FleetChaos chaos;
};

struct FleetResult {
  // Merged exactly like the thread runner's result, each job folded as
  // it was reported (see Merge above); fingerprintDigest() is the
  // cross-mode equivalence oracle. A suspended run leaves it empty but
  // for its outcome.
  ParallelResult result;
  // A stopRequested/SIGTERM suspend interrupted the run: in-flight jobs
  // are checkpointed in the durable queue, `result` carries outcome
  // kSuspended and nothing else — what the coordinator folded before
  // the suspend is dropped (digests only exist for finished runs).
  // Resume with FleetConfig::resume to finish.
  bool suspended = false;
  // .done files in the run directory at return, counted there: a job
  // that ended at a cap or ran out of memory has none, and a suspended
  // run counts the jobs it completed.
  std::uint32_t jobsDone = 0;
  std::uint32_t jobsSuspendedMidRun = 0;  // workers that checkpointed a
                                          // job in response to suspend
  unsigned processes = 0;
  std::uint64_t steals = 0;        // non-empty steal handoffs completed
  std::uint64_t workerDeaths = 0;  // unexpected worker exits
  std::uint64_t respawns = 0;      // replacement workers forked
  // Times each job ran an engine AND reported completion (jobs loaded
  // from .done files count 0; a worker killed mid-job reports nothing,
  // so its aborted attempt is invisible here). In a crash-free run
  // every executed job counts exactly 1 — the no-double-execution
  // oracle of the stealing tests.
  std::vector<std::uint32_t> executedCounts;
  // Merged metrics snapshot: the post-run merged StatsRegistry rendered
  // verbatim into the metrics value space —
  // so every counter the stats carry is bit-exact even when a worker
  // died and took its live totals with it — plus live-plane-only series
  // (latency histograms, fleet.* counters, profile bridges) adopted for
  // the names the stats do not cover. Also written durably to
  // <checkpointDir>/metrics.sde for completed runs.
  obs::MetricsSnapshot metrics;
  // The shared store's size at return (0 when shmQueryCache is off or
  // no store could be made). Its traffic is in result.stats:
  // solver.layer.shared_cache.hits, and misses as .queries minus .hits.
  std::uint64_t shmEntries = 0;
};

// Runs `plan` over config.processes forked workers. The factory is
// called inside worker processes (and once in the coordinator for
// validation-free setup paths); it must therefore not depend on state
// the coordinator mutates after runFleet starts. Throws FleetError on
// coordination failures (fork/pipe errors, restart budget exhausted,
// watchdog) and snapshot::SnapshotError on a foreign checkpoint
// directory.
[[nodiscard]] FleetResult runFleet(const EngineFactory& factory,
                                   const PartitionPlan& plan,
                                   const FleetConfig& config);

}  // namespace sde

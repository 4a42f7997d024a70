// The job runner: a forked child that executes one scenario job as a
// multi-process fleet and publishes its artifacts.
//
// Process shape: daemon -> runner (this file) -> fleet coordinator ->
// fleet workers. The runner IS the fleet coordinator process (it calls
// trace::runCollectFleet directly); the extra fork from the daemon
// exists so (a) a SIGTERM preempts exactly one job, (b) a crashing job
// cannot take the daemon down, and (c) PR_SET_PDEATHSIG turns daemon
// death into a graceful fleet-wide suspend instead of an orphan fleet.
// The daemon makes the job's live metrics plane before it forks the
// runner; the runner hands it to the fleet, whose workers inherit it in
// turn, so the daemon reads the plane the workers write.
//
// Exit codes are the runner's whole status protocol:
//   0  done — artifacts published atomically to result/
//   3  suspended — fleet checkpoints in queue/, job resumable
//   4  failed — error.txt written with the reason
//   5  refused — another runner holds the job lock (orphan race)
#pragma once

#include <sys/types.h>

#include <filesystem>

#include "serve/job.hpp"

namespace sde::obs {
class ShmMetricsPlane;
}  // namespace sde::obs

namespace sde::serve {

inline constexpr int kRunnerDone = 0;
inline constexpr int kRunnerSuspended = 3;
inline constexpr int kRunnerFailed = 4;
inline constexpr int kRunnerLocked = 5;

// Executes the job synchronously in THIS process (call it in a freshly
// forked child) and returns the exit code to _exit with. Never throws.
// The fleet publishes into `plane` (at least spec.processes + 1 slots);
// null makes it publish into a private plane of its own.
[[nodiscard]] int runJobInProcess(const std::filesystem::path& jobDir,
                                  const JobSpec& spec,
                                  obs::ShmMetricsPlane* plane);

// Forks a runner for `jobDir`: the child takes the job flock, arms
// PDEATHSIG(SIGTERM), runs runJobInProcess with `plane` and _exits with
// its code. Returns the child pid; throws ServeError if fork fails.
[[nodiscard]] pid_t spawnRunner(const std::filesystem::path& jobDir,
                                const JobSpec& spec,
                                obs::ShmMetricsPlane* plane);

// Fleet partition jobs this spec explodes into (2^vars), 0 for an
// undecodable spec. The daemon uses it for progress fractions.
[[nodiscard]] std::uint32_t fleetJobsOf(const JobSpec& spec);

// Worker processes the job's fleet forks: min(spec.processes,
// fleetJobsOf(spec)), or spec.processes for a spec that no longer
// decodes. The daemon charges, schedules and reports a job by it.
[[nodiscard]] std::uint32_t fleetWorkersOf(const JobSpec& spec);

}  // namespace sde::serve

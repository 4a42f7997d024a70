#include "serve/runner.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>
#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <csignal>
#include <exception>
#include <fstream>

#include "obs/chrome_export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_io.hpp"
#include "serve/results.hpp"
#include "snapshot/manifest.hpp"
#include "trace/scenario.hpp"

namespace sde::serve {

namespace fs = std::filesystem;

namespace {

void writeErrorFile(const fs::path& jobDir, const std::string& message) {
  try {
    snapshot::atomicWriteFile(jobErrorPath(jobDir),
                              [&](std::ostream& os) { os << message << "\n"; });
  } catch (...) {
    // Out of options; the daemon will see the non-zero exit either way.
  }
}

void publishArtifacts(const fs::path& jobDir, const JobSpec& spec,
                      const FleetResult& fleet) {
  publishResult(jobDir, [&](const fs::path& stage) {
    {
      std::ofstream os(stage / "digest.txt");
      os << fleet.result.fingerprintDigest() << "\n";
    }
    {
      std::ofstream os(stage / "summary.txt");
      os << "outcome " << runOutcomeName(fleet.result.outcome) << "\n"
         << "tenant " << spec.tenant << "\n"
         << "states " << fleet.result.totalStates << "\n"
         << "events " << fleet.result.totalEvents << "\n"
         << "scenarios " << fleet.result.totalScenariosOwned << "\n"
         << "parts " << fleet.result.jobs.size() << "\n"
         << "processes " << fleet.processes << "\n"
         << "wall_seconds " << fleet.result.wallSeconds << "\n";
    }
    if (spec.collectTestcases) {
      std::ofstream os(stage / "testcases.txt");
      for (const std::string& testcase : fleet.result.testcases)
        os << testcase << "\n";
    }
    {
      // The merged post-run counters, human-readable and binary. The
      // binary snapshot is the SAME bytes the fleet wrote to
      // queue/metrics.sde (stats lifted verbatim + live-plane extras),
      // which is what makes a daemon-side metrics fetch of a done job
      // bit-exact against the post-run StatsRegistry.
      std::ofstream os(stage / "stats.txt");
      os << fleet.result.stats.report();
    }
    {
      std::ofstream os(stage / "metrics.sde", std::ios::binary);
      os << obs::encodeMetricsSnapshot(fleet.metrics);
    }
    // The merged trace (deterministic across process counts) plus its
    // chrome://tracing rendering ride along when tracing produced one.
    const fs::path merged = jobQueueDir(jobDir) / "merged.trc";
    if (fs::exists(merged)) {
      std::error_code ec;
      fs::copy_file(merged, stage / "merged.trc",
                    fs::copy_options::overwrite_existing, ec);
      if (!ec) {
        try {
          const obs::TraceFile trace =
              obs::readTraceFile((stage / "merged.trc").string());
          obs::exportChromeTraceFile((stage / "trace.json").string(), trace);
        } catch (const obs::TraceError&) {
          // A torn merged trace is a diagnostics loss, not a job failure.
        }
      }
    }
  });
}

}  // namespace

std::uint32_t fleetJobsOf(const JobSpec& spec) {
  const auto decoded = trace::decodeCollectScenarioSpec(spec.scenarioSpec);
  if (!decoded) return 0;
  return 1u << decoded->numPartitionVariables;
}

std::uint32_t fleetWorkersOf(const JobSpec& spec) {
  const std::uint32_t jobs = fleetJobsOf(spec);
  return jobs == 0 ? spec.processes : std::min(spec.processes, jobs);
}

int runJobInProcess(const fs::path& jobDir, const JobSpec& spec,
                    obs::ShmMetricsPlane* plane) {
  try {
    const auto decoded = trace::decodeCollectScenarioSpec(spec.scenarioSpec);
    if (!decoded) {
      writeErrorFile(jobDir, "scenario spec no longer decodes (foreign file?)");
      return kRunnerFailed;
    }

    const fs::path queue = jobQueueDir(jobDir);
    fs::create_directories(queue);

    FleetConfig fleet;
    fleet.processes = spec.processes;
    fleet.checkpointDir = queue.string();
    fleet.traceDir = queue.string();
    // Resume whatever a previous attempt left behind (suspend, crash,
    // daemon SIGKILL) — the durable queue makes re-running free.
    fleet.resume = fs::exists(snapshot::manifestPath(queue));
    fleet.installSigtermSuspend = true;
    fleet.collectTestcases = spec.collectTestcases;
    fleet.metricsPlane = plane;

    const FleetResult result = trace::runCollectFleet(
        decoded->config, fleet, decoded->numPartitionVariables);
    if (result.suspended) return kRunnerSuspended;
    publishArtifacts(jobDir, spec, result);
    return kRunnerDone;
  } catch (const std::exception& e) {
    writeErrorFile(jobDir, e.what());
    return kRunnerFailed;
  } catch (...) {
    writeErrorFile(jobDir, "unknown error");
    return kRunnerFailed;
  }
}

pid_t spawnRunner(const fs::path& jobDir, const JobSpec& spec,
                  obs::ShmMetricsPlane* plane) {
  const pid_t pid = ::fork();
  if (pid < 0) throw ServeError("cannot fork job runner");
  if (pid > 0) return pid;

  // --- child ---
#if defined(__linux__)
  // Daemon death -> SIGTERM -> graceful fleet suspend, not an orphan
  // fleet burning slots nobody tracks.
  ::prctl(PR_SET_PDEATHSIG, SIGTERM);
  if (::getppid() == 1) ::raise(SIGTERM);  // daemon died during fork
#endif

  // One runner per job, ever: the flock outlives any in-process state
  // and dies with the process, so even a SIGKILLed daemon cannot leave
  // a lock behind that blocks the restarted one.
  const fs::path lockPath = jobDir / "lock";
  const int lockFd =
      ::open(lockPath.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  if (lockFd < 0) ::_exit(kRunnerFailed);
  if (::flock(lockFd, LOCK_EX | LOCK_NB) != 0) ::_exit(kRunnerLocked);

  ::_exit(runJobInProcess(jobDir, spec, plane));
}

}  // namespace sde::serve

// The exploration service daemon: one poll loop owning the Unix socket,
// the job registry, the WFQ scheduler and the runner processes.
//
// Crash-safety inventory (what each failure costs):
//   * daemon SIGKILL — runners notice via PDEATHSIG(SIGTERM), suspend
//     their fleets (one checkpoint write each) and exit; the restarted
//     daemon rebuilds the registry from the job directories and
//     reschedules. No accepted job is lost: spec.sde is written
//     atomically BEFORE SubmitReply goes out.
//   * runner SIGKILL — the fleet's own crash story applies (durable
//     queue, .done short-circuit); the daemon sees the death and
//     reschedules, the re-run resumes from checkpoints.
//   * client vanishes — its fd errors out of the poll set; watches die
//     with it, jobs do not (jobs belong to the registry, not to the
//     connection that submitted them).
//
// Scheduling is delegated to the pure Scheduler (scheduler.hpp); the
// daemon's tick translates its decisions into fork/SIGTERM, reaps
// children with waitpid(WNOHANG), derives job states from disk, reads
// running jobs' progress from their fleets' live metrics planes
// (obs/metrics_shm.hpp) — a done job's from its published metrics.sde —
// and applies retention after each completion. The daemon owns each
// running job's plane: it makes the plane before it forks the job's
// runner, so the fleet's workers inherit the mapping, and drops it when
// it reaps the runner. Nothing is left in /dev/shm, however the runner
// or the daemon ends.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/metrics_shm.hpp"
#include "serve/job.hpp"
#include "serve/protocol.hpp"
#include "serve/scheduler.hpp"
#include "serve/wire.hpp"

namespace sde::serve {

struct ServeConfig {
  std::string root;        // service root (jobs/, socket default home)
  std::string socketPath;  // empty: <root>/serve.sock
  unsigned slots = 4;      // fleet worker slots shared across all jobs
  std::size_t retainJobs = 0;  // terminal jobs kept on disk; 0 = all
  std::map<std::string, TenantPolicy> tenants;
  unsigned pollMs = 50;  // tick cadence (scheduler + progress)
};

class Daemon {
 public:
  explicit Daemon(ServeConfig config);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Runs until a ShutdownRequest frame or SIGTERM/SIGINT. On the way
  // out every runner is SIGTERMed (graceful fleet suspend) and reaped,
  // so "stop the daemon" never costs exploration either.
  void run();

  [[nodiscard]] const std::string& socketPath() const { return socketPath_; }

 private:
  struct Client {
    int fd = -1;
    FrameBuffer frames;
    bool watching = false;
    std::uint64_t watchJobId = 0;
  };
  struct RunningJob {
    pid_t pid = -1;
    std::chrono::steady_clock::time_point lastCharge;
    bool preempting = false;
    // The job's live metrics plane, which its runner's fleet publishes
    // into (null: it could not be made, and the job has no live feed).
    std::unique_ptr<obs::ShmMetricsPlane> plane;
  };
  // A job's progress in the engine's own counts: engine.events, and
  // engine.initial_states + engine.forks_total — the totals stats.txt
  // reports.
  struct Progress {
    std::uint64_t events = 0;
    std::uint64_t states = 0;
  };

  void tick();
  void reapRunners();
  void schedule();
  void startJob(std::uint64_t jobId);
  void preemptJob(std::uint64_t jobId);
  void refreshProgress();
  void pushProgress();
  void acceptClients();
  void serviceClient(Client& client);
  void handleMessage(Client& client, const Message& message);
  void handleMetricsRequest(Client& client, const MetricsRequest& request);
  // The aggregate of a running job's live metrics plane; nullopt while
  // the plane is not up (no slot published yet, or no plane).
  [[nodiscard]] static std::optional<obs::MetricsSnapshot> livePlaneOf(
      const RunningJob& runner);
  [[nodiscard]] static Progress progressOf(const obs::MetricsSnapshot& snap);
  void noteTenant(const std::string& tenant);
  void refreshSlotGauges();
  [[nodiscard]] JobStatus statusOf(const JobRecord& record);
  void sendTo(Client& client, const Message& message);
  void shutdownRunners();

  ServeConfig config_;
  std::string socketPath_;
  int listenFd_ = -1;
  bool stopping_ = false;
  Scheduler scheduler_;
  std::map<std::uint64_t, JobRecord> jobs_;
  std::uint64_t nextId_ = 1;
  std::map<std::uint64_t, RunningJob> running_;
  std::vector<std::unique_ptr<Client>> clients_;
  // Last plane reading per job that ran under this daemon. A job whose
  // plane is not up (runner just forked, or the plane could not be
  // made) and a failed, cancelled or suspended job keep theirs; a done
  // job reports its metrics.sde instead.
  std::map<std::uint64_t, Progress> progress_;
  // Service accounting: per-tenant queue-wait histograms, run
  // slot-milliseconds, preemptions and slot-occupancy gauges. Written
  // and rendered by the poll loop only. A MetricsRequest with jobId 0
  // merges its snapshot with the live planes of every running fleet.
  support::StatsRegistry metrics_;
  std::set<std::string> metricTenants_;  // tenants with gauges to refresh
  // When each runnable job last (re)entered the queue — feeds the
  // tenant queue_wait_ms histogram on start.
  std::map<std::uint64_t, std::chrono::steady_clock::time_point>
      queuedSince_;
};

}  // namespace sde::serve

#include "sde/fleet.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <optional>

#include "obs/metrics_shm.hpp"
#include "snapshot/manifest.hpp"
#include "snapshot/shared_cache_io.hpp"
#include "solver/shm_cache.hpp"
#include "support/logging.hpp"

namespace sde {

namespace {

namespace fs = std::filesystem;
using support::statId;

// Replacement workers forked across the whole run before the
// coordinator gives up with FleetError.
constexpr std::uint64_t kMaxWorkerRestarts = 16;
// No frame from any worker for this long: the fleet is declared wedged,
// its workers are killed and FleetError is thrown.
constexpr int kWatchdogSeconds = 120;

// ---------------------------------------------------------------------------
// Frame protocol. Every message is one fixed-size length-prefixed frame
// well under PIPE_BUF, so pipe writes are atomic and frames never
// interleave even if a future change made two threads share a pipe.

enum class FrameType : std::uint8_t {
  kAssign = 1,      // coord -> worker: lease [a, b)
  kSteal = 2,       // coord -> worker: split your pending shard; seq = a
  kShutdown = 3,    // coord -> worker: exit cleanly
  kIdle = 4,        // worker -> coord: shard exhausted, want work
  kStatus = 5,      // worker -> coord: next=a, hi=b
  kJobDone = 6,     // worker -> coord: job=a, executed|outcome<<8=b,
                    //                  states=c, events=d
  kStealReply = 7,  // worker -> coord: seq=a, victimNext=b,
                    //                  stolen=[c, d)
  kSuspendFleet = 8,  // coord -> worker: checkpoint in-flight job, exit
  kSuspended = 9,     // worker -> coord: job=a checkpointed (states=c,
                      //                  events=d); worker exits next
};

struct Frame {
  FrameType type{};
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint64_t c = 0;
  std::uint64_t d = 0;
};

constexpr std::uint32_t kFramePayload = 1 + 4 + 4 + 8 + 8;
constexpr std::size_t kFrameWire = 4 + kFramePayload;

// Blocking write of one frame. Returns false if the peer is gone
// (EPIPE with SIGPIPE ignored) — the caller decides whether that is
// fatal (worker: yes) or expected (coordinator writing to a corpse).
bool writeFrame(int fd, const Frame& frame) {
  char wire[kFrameWire];
  std::memcpy(wire, &kFramePayload, 4);
  wire[4] = static_cast<char>(frame.type);
  std::memcpy(wire + 5, &frame.a, 4);
  std::memcpy(wire + 9, &frame.b, 4);
  std::memcpy(wire + 13, &frame.c, 8);
  std::memcpy(wire + 21, &frame.d, 8);
  std::size_t off = 0;
  while (off < kFrameWire) {
    const ssize_t n = ::write(fd, wire + off, kFrameWire - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// Incremental frame parser over a nonblocking fd.
class FrameReader {
 public:
  enum class Fill : std::uint8_t { kData, kWouldBlock, kEof };

  Fill fill(int fd) {
    char tmp[4096];
    const ssize_t n = ::read(fd, tmp, sizeof tmp);
    if (n > 0) {
      buf_.insert(buf_.end(), tmp, tmp + n);
      return Fill::kData;
    }
    if (n == 0) return Fill::kEof;
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
      return Fill::kWouldBlock;
    return Fill::kEof;  // read errors count as peer death
  }

  std::optional<Frame> next() {
    const std::size_t avail = buf_.size() - pos_;
    if (avail < 4) return std::nullopt;
    std::uint32_t len = 0;
    std::memcpy(&len, buf_.data() + pos_, 4);
    if (len != kFramePayload)
      throw FleetError("fleet pipe protocol violation (bad frame length " +
                       std::to_string(len) + ")");
    if (avail < 4 + len) return std::nullopt;
    const char* p = buf_.data() + pos_ + 4;
    Frame frame;
    frame.type = static_cast<FrameType>(p[0]);
    std::memcpy(&frame.a, p + 1, 4);
    std::memcpy(&frame.b, p + 5, 4);
    std::memcpy(&frame.c, p + 9, 8);
    std::memcpy(&frame.d, p + 17, 8);
    pos_ += 4 + len;
    if (pos_ > 4096) {
      buf_.erase(buf_.begin(), buf_.begin() + static_cast<long>(pos_));
      pos_ = 0;
    }
    return frame;
  }

 private:
  std::vector<char> buf_;
  std::size_t pos_ = 0;
};

void setNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

// ---------------------------------------------------------------------------
// Worker process. Runs jobs of its leased [next, hi) range in id order,
// polling the command pipe between jobs and at every engine sampling
// point so steals are answered mid-job. Exits only via _exit — the
// child must never unwind into the coordinator's stack.

struct WorkerContext {
  unsigned slot = 0;
  int cmdFd = -1;     // read end, nonblocking
  int statusFd = -1;  // write end
  const EngineFactory* factory = nullptr;
  const PartitionPlan* plan = nullptr;
  const FleetConfig* config = nullptr;
  solver::ShmQueryCache* shared = nullptr;  // inherited shm mapping
  // Live metrics: the inherited shm plane mapping (null if it could not
  // be created). Slot i publishes into plane slot i+1; slot 0 belongs to
  // the coordinator.
  // `finished` holds the stats of the completed jobs this worker ran or
  // found done, plus the phase profiles of the jobs it ran.
  obs::ShmMetricsPlane* metricsPlane = nullptr;
  support::StatsRegistry finished;

  FrameReader reader;
  std::uint32_t next = 0;
  std::uint32_t hi = 0;
  bool active = false;
  bool shutdown = false;
  bool suspend = false;             // graceful fleet suspend requested
  Engine* runningEngine = nullptr;  // engine of the in-flight job, if any
};

[[noreturn]] void workerExit(int code) { ::_exit(code); }

// Best-effort snapshot publication into this worker's plane slot: the
// finished jobs' totals plus the running engine's registries — the same
// numbers the post-run merge folds, so live totals equal post-run
// totals. An oversize snapshot (or a plane that was never created)
// publishes nothing — the live view is lossy by contract, the durable
// merge is not.
void workerPublishMetrics(const WorkerContext& w,
                          const Engine* running = nullptr) {
  if (w.metricsPlane == nullptr) return;
  support::StatsRegistry live = w.finished;
  if (running != nullptr) running->mergeStatsInto(live);
  w.metricsPlane->publish(w.slot + 1, obs::snapshotFromStats(live));
}

void workerSend(WorkerContext& w, const Frame& frame) {
  // A dead coordinator makes this worker useless; its jobs are safe in
  // the durable queue.
  if (!writeFrame(w.statusFd, frame)) workerExit(1);
}

// The victim half of the steal protocol: hand over the upper half of
// the strictly-pending jobs (the running/imminent job `next` always
// stays), shrinking our own range BEFORE the reply is written — dying
// between the two steps leaves the range unshrunk from the
// coordinator's view and simply re-leased wholesale by the death path.
void workerHandleSteal(WorkerContext& w, std::uint32_t seq) {
  Frame reply;
  reply.type = FrameType::kStealReply;
  reply.a = seq;
  reply.b = w.next;
  const std::uint32_t firstPending = w.next + 1;
  if (w.active && firstPending < w.hi) {
    const std::uint32_t pending = w.hi - firstPending;
    const std::uint32_t stolenLo = firstPending + pending / 2;
    reply.c = stolenLo;
    reply.d = w.hi;
    w.hi = stolenLo;
  } else {
    reply.c = 0;
    reply.d = 0;
  }
  workerSend(w, reply);
}

void workerProcessCommand(WorkerContext& w, const Frame& frame) {
  switch (frame.type) {
    case FrameType::kAssign:
      if (frame.a < frame.b) {
        w.next = frame.a;
        w.hi = frame.b;
        w.active = true;
        Frame status;
        status.type = FrameType::kStatus;
        status.a = w.next;
        status.b = w.hi;
        workerSend(w, status);
      } else {
        Frame idle;
        idle.type = FrameType::kIdle;
        workerSend(w, idle);
      }
      break;
    case FrameType::kSteal:
      workerHandleSteal(w, frame.a);
      break;
    case FrameType::kShutdown:
      w.shutdown = true;
      break;
    case FrameType::kSuspendFleet:
      w.suspend = true;
      // Mid-job: ask the engine to abort at its next event; its abort
      // path writes the checkpoint, workerRunOneJob sees kSuspended.
      if (w.runningEngine != nullptr) w.runningEngine->requestSuspend();
      break;
    default:
      break;  // coordinator-only frame types: ignore
  }
}

// Drains every command currently in the pipe without blocking.
void workerDrainCommands(WorkerContext& w) {
  for (;;) {
    while (auto frame = w.reader.next()) workerProcessCommand(w, *frame);
    const FrameReader::Fill fill = w.reader.fill(w.cmdFd);
    if (fill == FrameReader::Fill::kEof) workerExit(1);  // coordinator died
    if (fill == FrameReader::Fill::kWouldBlock) {
      while (auto frame = w.reader.next()) workerProcessCommand(w, *frame);
      return;
    }
  }
}

// Runs the job at w.next through the job runner both runners share,
// adding what only a fleet worker does: the chaos hooks, the live
// metrics, the protocol pump and the suspend handle. Returns true if
// the run was interrupted by a fleet suspend (checkpoint written,
// kSuspended reported — the caller must exit instead of advancing).
bool workerRunOneJob(WorkerContext& w) {
  const PartitionJob& job = w.plan->jobs[w.next];
  const FleetConfig& config = *w.config;
  if (config.chaos.beforeJob) config.chaos.beforeJob(w.slot, job.id);

  // Per-job wall-clock attribution, added to the finished totals after
  // the run. Digest-safe: profiler output never feeds the engine's
  // registries.
  obs::PhaseProfiler metricsProfiler;
  std::uint64_t lastStatusEvents = 0;
  JobHooks hooks;
  hooks.onEngine = [&](Engine& engine) {
    if (w.metricsPlane != nullptr) engine.setProfiler(&metricsProfiler);
    // The sampler hook doubles as the mid-job protocol pump: answer
    // steals and refresh the coordinator's mirror of our frontier.
    engine.setSampler([&](const Engine& e) {
      workerDrainCommands(w);
      if (e.eventsProcessed() - lastStatusEvents >=
          std::max<std::uint64_t>(1, config.statusEveryEvents)) {
        lastStatusEvents = e.eventsProcessed();
        Frame status;
        status.type = FrameType::kStatus;
        status.a = w.next;
        status.b = w.hi;
        workerSend(w, status);
        workerPublishMetrics(w, &e);
      }
    });
    // Visible to the command pump so a kSuspendFleet arriving mid-run
    // aborts this engine; a suspend that raced job startup is applied
    // here instead of being lost.
    w.runningEngine = &engine;
    if (w.suspend) engine.requestSuspend();
  };
  if (config.chaos.onCheckpoint)
    hooks.onCheckpoint = [&] { config.chaos.onCheckpoint(w.slot, job.id); };

  const JobRun run = runPartitionJob(*w.factory, job, config, w.shared, hooks);
  w.runningEngine = nullptr;
  const JobResult& result = run.result;
  // Only completed jobs reach the post-run merge, through their .done
  // files; a cap-aborted job resumes with its counts restored. A
  // suspended job's counts stay in the live view: this worker exits
  // next.
  if (result.outcome == RunOutcome::kCompleted ||
      result.outcome == RunOutcome::kSuspended)
    w.finished.mergeFrom(result.stats);
  if (run.executed) metricsProfiler.profile().toStats(w.finished);
  workerPublishMetrics(w);

  Frame frame;
  frame.a = job.id;
  frame.c = result.states;
  frame.d = result.events;
  if (result.outcome == RunOutcome::kSuspended) {
    frame.type = FrameType::kSuspended;
    workerSend(w, frame);
    return true;
  }
  frame.type = FrameType::kJobDone;
  frame.b = (run.executed ? 1u : 0u) |
            (static_cast<std::uint32_t>(result.outcome) << 8);
  workerSend(w, frame);
  ++w.next;
  return false;
}

[[noreturn]] void workerMain(WorkerContext& w) {
  for (;;) {
    if (w.shutdown || w.suspend) workerExit(0);
    if (w.active) {
      workerDrainCommands(w);  // a steal may have shrunk hi
      if (w.shutdown || w.suspend) workerExit(0);
      if (w.next < w.hi) {
        if (workerRunOneJob(w)) workerExit(0);
        continue;
      }
      w.active = false;
      Frame idle;
      idle.type = FrameType::kIdle;
      workerSend(w, idle);
    }
    // Idle: block until the coordinator says something.
    struct pollfd pfd {};
    pfd.fd = w.cmdFd;
    pfd.events = POLLIN;
    const int rc = ::poll(&pfd, 1, -1);
    if (rc < 0 && errno != EINTR) workerExit(1);
    workerDrainCommands(w);
  }
}

// ---------------------------------------------------------------------------
// Coordinator.

// SIGTERM-triggered graceful suspend (FleetConfig::installSigtermSuspend).
// The handler only sets the flag; the coordinator polls it between
// protocol rounds. File-scope because signal handlers cannot capture.
volatile std::sig_atomic_t g_fleetSigterm = 0;

void fleetSigtermHandler(int) { g_fleetSigterm = 1; }

class ScopedSigtermSuspend {
 public:
  explicit ScopedSigtermSuspend(bool install) : installed_(install) {
    if (!installed_) return;
    g_fleetSigterm = 0;
    struct sigaction action {};
    action.sa_handler = fleetSigtermHandler;
    ::sigaction(SIGTERM, &action, &saved_);
  }
  ~ScopedSigtermSuspend() {
    if (installed_) ::sigaction(SIGTERM, &saved_, nullptr);
  }

 private:
  bool installed_;
  struct sigaction saved_ {};
};

struct SlotState {
  pid_t pid = -1;
  int cmdW = -1;
  int statusR = -1;
  FrameReader reader;
  bool alive = false;
  bool idle = false;
  // Mirror of the worker's lease. nextKnown lags the truth by at most
  // one in-flight frame; re-leases use it, so a killed worker's
  // *completed* jobs may be re-leased — harmless, the .done check makes
  // re-runs impossible.
  std::uint32_t nextKnown = 0;
  std::uint32_t hi = 0;
  // Pending steal where this slot is the victim (0 = none).
  std::uint32_t stealSeq = 0;
  int thiefSlot = -1;
};

struct JobReport {
  bool seen = false;
  RunOutcome outcome = RunOutcome::kCompleted;
  std::uint64_t states = 0;
  std::uint64_t events = 0;
};

class Coordinator {
 public:
  Coordinator(const EngineFactory& factory, const PartitionPlan& plan,
              const FleetConfig& config, solver::ShmQueryCache* shm,
              obs::ShmMetricsPlane* metricsPlane)
      : factory_(factory),
        plan_(plan),
        config_(config),
        shm_(shm),
        metricsPlane_(metricsPlane) {
    // The fleet.* series are live from the first snapshot on.
    for (const support::StatsRegistry::Id id :
         {statId<"fleet.steals">(), statId<"fleet.respawns">(),
          statId<"fleet.worker_deaths">(), statId<"fleet.suspends">()})
      coordinatorStats_.add(id, 0);
  }

  ~Coordinator() { killAll(); }

  FleetResult run() {
    const auto start = std::chrono::steady_clock::now();
    const std::uint32_t numJobs =
        static_cast<std::uint32_t>(plan_.jobs.size());
    reports_.resize(numJobs);
    merged_.jobs.resize(numJobs);
    folded_.assign(numJobs, false);
    result_.executedCounts.assign(numJobs, 0);
    result_.processes = config_.processes;

    pool_ = initialLeases();
    slots_.resize(config_.processes);
    for (unsigned slot = 0; slot < config_.processes; ++slot) {
      spawn(slot);
      if (!pool_.empty()) {
        const auto range = pool_.back();
        pool_.pop_back();
        assign(slot, range.first, range.second);
      } else {
        assign(slot, 0, 0);  // empty lease: worker reports idle
      }
    }

    lastActivity_ = std::chrono::steady_clock::now();
    for (;;) {
      if (suspending_) {
        if (allDead()) break;
      } else if (completed_ == numJobs) {
        if (!shuttingDown_)
          beginShutdown();
        else if (allDead())
          break;
      } else if (suspendRequested()) {
        beginSuspend();
      }
      // Folded after this round's commands went out, so the workers
      // exit while the last job folds; a suspended run is not merged.
      if (!suspending_) foldReportedJobs();
      pollOnce();
      publishCoordinatorMetrics();
    }
    reapAll();
    publishCoordinatorMetrics();
    // The live view: every published worker slot plus our own. Exact
    // totals are grafted on top from the durable merge in runFleet.
    result_.metrics = metricsPlane_ != nullptr
                          ? metricsPlane_->aggregate()
                          : obs::snapshotFromStats(coordinatorStats_);

    if (suspending_ && completed_ != numJobs) {
      // Deliberately unfinished: what was folded so far is dropped —
      // digests only exist for finished runs.
      result_.suspended = true;
      result_.result.outcome = RunOutcome::kSuspended;
    } else {
      merge();
    }
    for (const PartitionJob& job : plan_.jobs)
      if (fs::exists(snapshot::jobDonePath(config_.checkpointDir, job.id)))
        ++result_.jobsDone;
    result_.result.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return std::move(result_);
  }

 private:
  // Initial shard leases, as a stack the spawn loop pops from.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> initialLeases() {
    const std::uint32_t numJobs =
        static_cast<std::uint32_t>(plan_.jobs.size());
    std::vector<std::pair<std::uint32_t, std::uint32_t>> leases;
    if (!config_.initialLeases.empty()) {
      leases = config_.initialLeases;
      auto sorted = leases;
      std::sort(sorted.begin(), sorted.end());
      std::uint32_t cursor = 0;
      for (const auto& [lo, hi] : sorted) {
        if (lo != cursor || hi < lo)
          throw FleetError("initialLeases must be disjoint and cover all jobs");
        cursor = hi;
      }
      if (cursor != numJobs || leases.size() > config_.processes)
        throw FleetError("initialLeases must cover all jobs with at most one "
                         "lease per worker");
    } else {
      const std::uint32_t per =
          (numJobs + config_.processes - 1) / config_.processes;
      for (std::uint32_t lo = 0; lo < numJobs; lo += per)
        leases.emplace_back(lo, std::min(numJobs, lo + per));
    }
    // The spawn loop pops from the back; reverse so slot 0 gets the
    // first lease (tests rely on the slot <-> lease correspondence).
    std::reverse(leases.begin(), leases.end());
    return leases;
  }

  void spawn(unsigned slot) {
    int cmdPipe[2];
    int statusPipe[2];
    if (::pipe(cmdPipe) != 0)
      throw FleetError("pipe() failed: " + std::string(std::strerror(errno)));
    if (::pipe(statusPipe) != 0) {
      ::close(cmdPipe[0]);
      ::close(cmdPipe[1]);
      throw FleetError("pipe() failed: " + std::string(std::strerror(errno)));
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(cmdPipe[0]);
      ::close(cmdPipe[1]);
      ::close(statusPipe[0]);
      ::close(statusPipe[1]);
      throw FleetError("fork() failed: " + std::string(std::strerror(errno)));
    }
    if (pid == 0) {
      // Child. Close the parent-side ends of our pipes and EVERY fd of
      // the other workers we inherited — a leaked status read end is
      // harmless, but hygiene is cheap and uniform.
      ::close(cmdPipe[1]);
      ::close(statusPipe[0]);
      for (const SlotState& other : slots_) {
        if (other.cmdW >= 0) ::close(other.cmdW);
        if (other.statusR >= 0) ::close(other.statusR);
      }
#ifdef __linux__
      // A dead coordinator must reap its fleet, not leak it.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
      WorkerContext w;
      w.slot = slot;
      w.cmdFd = cmdPipe[0];
      w.statusFd = statusPipe[1];
      setNonBlocking(w.cmdFd);
      w.factory = &factory_;
      w.plan = &plan_;
      w.config = &config_;
      w.shared = shm_;
      w.metricsPlane = metricsPlane_;
      try {
        workerMain(w);
      } catch (...) {
        workerExit(2);
      }
    }
    // Parent.
    ::close(cmdPipe[0]);
    ::close(statusPipe[1]);
    setNonBlocking(statusPipe[0]);
    SlotState& s = slots_[slot];
    s = SlotState{};
    s.pid = pid;
    s.cmdW = cmdPipe[1];
    s.statusR = statusPipe[0];
    s.alive = true;
  }

  void assign(unsigned slot, std::uint32_t lo, std::uint32_t hi) {
    SlotState& s = slots_[slot];
    s.nextKnown = lo;
    s.hi = hi;
    s.idle = false;
    Frame frame;
    frame.type = FrameType::kAssign;
    frame.a = lo;
    frame.b = hi;
    writeFrame(s.cmdW, frame);  // a dead worker surfaces via its pipe EOF
  }

  [[nodiscard]] bool allDead() const {
    return std::none_of(slots_.begin(), slots_.end(),
                        [](const SlotState& s) { return s.alive; });
  }

  void beginShutdown() {
    shuttingDown_ = true;
    Frame frame;
    frame.type = FrameType::kShutdown;
    for (SlotState& s : slots_)
      if (s.alive) writeFrame(s.cmdW, frame);
  }

  [[nodiscard]] bool suspendRequested() const {
    if (config_.installSigtermSuspend && g_fleetSigterm != 0) return true;
    return config_.stopRequested && config_.stopRequested();
  }

  void publishCoordinatorMetrics() {
    if (metricsPlane_ != nullptr)
      metricsPlane_->publish(0, obs::snapshotFromStats(coordinatorStats_));
  }

  void beginSuspend() {
    suspending_ = true;
    coordinatorStats_.add(statId<"fleet.suspends">());
    Frame frame;
    frame.type = FrameType::kSuspendFleet;
    for (SlotState& s : slots_)
      if (s.alive) writeFrame(s.cmdW, frame);
  }

  void pollOnce() {
    std::vector<struct pollfd> fds;
    std::vector<unsigned> slotOf;
    for (unsigned slot = 0; slot < slots_.size(); ++slot) {
      if (!slots_[slot].alive) continue;
      fds.push_back({slots_[slot].statusR, POLLIN, 0});
      slotOf.push_back(slot);
    }
    if (fds.empty()) {
      if (completed_ != plan_.jobs.size() && !suspending_)
        throw FleetError(
            "all fleet workers died with jobs remaining (restart budget "
            "exhausted)");
      return;
    }
    const int rc = ::poll(fds.data(), fds.size(), 200);
    if (rc < 0 && errno != EINTR)
      throw FleetError("poll() failed: " + std::string(std::strerror(errno)));
    bool activity = false;
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      activity |= service(slotOf[i]);
    }
    if (activity) {
      lastActivity_ = std::chrono::steady_clock::now();
    } else if (std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - lastActivity_)
                   .count() > kWatchdogSeconds) {
      throw FleetError("fleet watchdog: no worker progress for " +
                       std::to_string(kWatchdogSeconds) + "s");
    }
  }

  // Reads everything the slot's status pipe holds; on EOF runs the
  // death path. Returns whether any frame arrived.
  bool service(unsigned slot) {
    SlotState& s = slots_[slot];
    bool any = false;
    for (;;) {
      while (auto frame = s.reader.next()) {
        any = true;
        handleFrame(slot, *frame);
      }
      const FrameReader::Fill fill = s.reader.fill(s.statusR);
      if (fill == FrameReader::Fill::kWouldBlock) break;
      if (fill == FrameReader::Fill::kEof) {
        // Pipes preserve written data past writer death: drain what is
        // buffered (a steal reply written before dying is never lost),
        // THEN account the death against the updated mirror.
        while (auto frame = s.reader.next()) {
          any = true;
          handleFrame(slot, *frame);
        }
        handleDeath(slot);
        return true;
      }
    }
    return any;
  }

  void handleFrame(unsigned slot, const Frame& frame) {
    SlotState& s = slots_[slot];
    switch (frame.type) {
      case FrameType::kIdle:
        s.idle = true;
        s.nextKnown = s.hi;  // lease exhausted
        feed(slot);
        break;
      case FrameType::kStatus:
        s.nextKnown = frame.a;
        s.hi = frame.b;
        break;
      case FrameType::kJobDone: {
        const std::uint32_t jobId = frame.a;
        if (jobId >= reports_.size()) break;
        const bool executed = (frame.b & 0xffu) != 0;
        const auto outcome = static_cast<RunOutcome>(frame.b >> 8);
        if (executed) ++result_.executedCounts[jobId];
        JobReport& report = reports_[jobId];
        if (!report.seen) {
          report.seen = true;
          ++completed_;
        }
        report.outcome = outcome;
        report.states = frame.c;
        report.events = frame.d;
        if (outcome == RunOutcome::kCompleted) reported_.push_back(jobId);
        s.nextKnown = std::max(s.nextKnown, jobId + 1);
        break;
      }
      case FrameType::kSuspended:
        // The worker checkpointed its in-flight job and will exit; its
        // mirror range re-enters the pool via the (clean) death path on
        // resume, but during a suspend nothing is re-leased.
        ++result_.jobsSuspendedMidRun;
        break;
      case FrameType::kStealReply: {
        if (frame.a != s.stealSeq) break;  // stale reply (victim respawned)
        s.stealSeq = 0;
        const int thief = s.thiefSlot;
        s.thiefSlot = -1;
        s.nextKnown = std::max(s.nextKnown, frame.b);
        const auto stolenLo = static_cast<std::uint32_t>(frame.c);
        const auto stolenHi = static_cast<std::uint32_t>(frame.d);
        if (stolenLo < stolenHi) {
          s.hi = stolenLo;
          ++result_.steals;
          coordinatorStats_.add(statId<"fleet.steals">());
          if (thief >= 0 && slots_[thief].alive && slots_[thief].idle) {
            assign(static_cast<unsigned>(thief), stolenLo, stolenHi);
          } else {
            pool_.emplace_back(stolenLo, stolenHi);
            feedIdle();
          }
        } else if (thief >= 0 && slots_[thief].alive && slots_[thief].idle) {
          // Empty reply: the mirror just synced (the victim was thinner
          // than we thought), so retrying the feed cannot loop forever.
          feed(static_cast<unsigned>(thief));
        }
        break;
      }
      default:
        break;  // worker-only frame types: ignore
    }
  }

  // Gives an idle slot work: the re-lease pool first, then a steal from
  // the fattest victim.
  void feed(unsigned slot) {
    SlotState& s = slots_[slot];
    if (!s.alive || !s.idle) return;
    if (!pool_.empty()) {
      const auto range = pool_.back();
      pool_.pop_back();
      assign(slot, range.first, range.second);
      return;
    }
    int victim = -1;
    std::uint32_t fattest = 1;  // require >= 2: the current job + 1 pending
    for (unsigned v = 0; v < slots_.size(); ++v) {
      const SlotState& cand = slots_[v];
      if (v == slot || !cand.alive || cand.idle || cand.stealSeq != 0)
        continue;
      const std::uint32_t pending =
          cand.hi > cand.nextKnown ? cand.hi - cand.nextKnown : 0;
      if (pending > fattest) {
        fattest = pending;
        victim = static_cast<int>(v);
      }
    }
    if (victim < 0) return;  // nothing worth stealing; stay idle
    SlotState& v = slots_[victim];
    v.stealSeq = ++stealSeqCounter_;
    v.thiefSlot = static_cast<int>(slot);
    Frame frame;
    frame.type = FrameType::kSteal;
    frame.a = v.stealSeq;
    writeFrame(v.cmdW, frame);
  }

  void feedIdle() {
    for (unsigned slot = 0; slot < slots_.size() && !pool_.empty(); ++slot)
      feed(slot);
  }

  void handleDeath(unsigned slot) {
    SlotState& s = slots_[slot];
    ::close(s.cmdW);
    ::close(s.statusR);
    s.cmdW = s.statusR = -1;
    int status = 0;
    ::waitpid(s.pid, &status, 0);
    const bool clean = (shuttingDown_ || suspending_) && WIFEXITED(status) &&
                       WEXITSTATUS(status) == 0;
    s.alive = false;
    s.idle = false;
    if (clean) return;

    ++result_.workerDeaths;
    coordinatorStats_.add(statId<"fleet.worker_deaths">());
    // A pending steal where this slot was the victim is void: no reply
    // will come, and the unshrunk mirror range below re-leases
    // everything the victim still held (a reply written before death
    // was drained before we got here and already shrank the mirror).
    if (s.stealSeq != 0) {
      const int thief = s.thiefSlot;
      s.stealSeq = 0;
      s.thiefSlot = -1;
      if (thief >= 0 && slots_[thief].alive && slots_[thief].idle)
        pendingFeeds_.push_back(static_cast<unsigned>(thief));
    }
    // If this slot was a thief awaiting a steal, the eventual reply
    // routes the range to the pool (handled in kStealReply).
    for (SlotState& other : slots_)
      if (other.thiefSlot == static_cast<int>(slot)) other.thiefSlot = -1;

    // Disjoint-lease invariant: nobody else holds [nextKnown, hi), so
    // re-leasing it cannot double-execute a job another live worker
    // owns. Jobs the dead worker already finished are skipped by their
    // .done files.
    if (s.nextKnown < s.hi) pool_.emplace_back(s.nextKnown, s.hi);
    s.nextKnown = s.hi = 0;

    // Respawn while the budget lasts; past it, surviving workers pick
    // up the re-leased pool, and only a fully dead fleet with jobs
    // remaining is fatal (pollOnce throws then).
    if (completed_ != plan_.jobs.size() && !suspending_ && respawnPossible()) {
      ++result_.respawns;
      coordinatorStats_.add(statId<"fleet.respawns">());
      spawn(slot);
      if (!pool_.empty()) {
        const auto range = pool_.back();
        pool_.pop_back();
        assign(slot, range.first, range.second);
      } else {
        assign(slot, 0, 0);
      }
    }
    for (const unsigned thief : pendingFeeds_) feed(thief);
    pendingFeeds_.clear();
    feedIdle();
  }

  [[nodiscard]] bool respawnPossible() const {
    return result_.respawns < kMaxWorkerRestarts;
  }

  void reapAll() {
    for (SlotState& s : slots_) {
      if (s.pid < 0) continue;
      if (s.alive) {
        if (s.cmdW >= 0) ::close(s.cmdW);
        if (s.statusR >= 0) ::close(s.statusR);
        ::waitpid(s.pid, nullptr, 0);
        s.alive = false;
      }
      s.pid = -1;
    }
  }

  void killAll() {
    for (SlotState& s : slots_) {
      if (s.pid < 0) continue;
      if (s.alive) {
        ::kill(s.pid, SIGKILL);
        if (s.cmdW >= 0) ::close(s.cmdW);
        if (s.statusR >= 0) ::close(s.statusR);
        ::waitpid(s.pid, nullptr, 0);
      }
      s.pid = -1;
      s.alive = false;
    }
  }

  // Loads job `jobId`'s .done file into its slot of the merge and folds
  // it; false (nothing folded) when the file is missing or does not
  // decode.
  bool foldDoneFile(std::uint32_t jobId) {
    try {
      merged_.jobs[jobId] = snapshot::readJobResultFile(
          snapshot::jobDonePath(config_.checkpointDir, jobId));
    } catch (const snapshot::SnapshotError&) {
      return false;
    }
    foldJobResult(merged_, merged_.jobs[jobId]);
    folded_[jobId] = true;
    return true;
  }

  // Folds the jobs workers reported completed since the last call, each
  // once: a re-leased job that was done reports again (loaded from its
  // .done file). The fold commutes, so completion order does not matter.
  void foldReportedJobs() {
    for (const std::uint32_t jobId : reported_)
      if (!folded_[jobId]) foldDoneFile(jobId);
    reported_.clear();
  }

  // Completes the merge: every job not folded yet (reported last, or
  // without a .done file that decodes) is folded from its .done file as
  // the thread runner's would be, or from its reported numbers, then
  // the outcome and traces are set in job-id order. The same
  // foldJobResult and sealParallelResult as finalizeParallelResult, so
  // the result equals the thread runner's.
  void merge() {
    for (std::uint32_t jobId = 0; jobId < plan_.jobs.size(); ++jobId) {
      if (folded_[jobId] || foldDoneFile(jobId)) continue;
      // Cap-aborted jobs have no .done file; carry the reported partial
      // numbers so the run outcome folds correctly. (The equivalence
      // oracles only apply to cap-free runs, as with the thread runner.)
      const JobReport& report = reports_[jobId];
      if (!report.seen)
        throw FleetError("job " + std::to_string(jobId) +
                         " finished neither durably nor reportedly");
      JobResult& job = merged_.jobs[jobId];
      job.jobId = jobId;
      job.outcome = report.outcome;
      job.states = report.states;
      job.events = report.events;
      foldJobResult(merged_, job);
    }
    sealParallelResult(merged_, plan_, config_);
    result_.result = std::move(merged_);
  }

  const EngineFactory& factory_;
  const PartitionPlan& plan_;
  const FleetConfig& config_;
  solver::ShmQueryCache* shm_;
  obs::ShmMetricsPlane* metricsPlane_;
  // The coordinator's own counters (fleet.*), published into slot 0.
  support::StatsRegistry coordinatorStats_;

  std::vector<SlotState> slots_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pool_;
  std::vector<JobReport> reports_;
  // The merge so far, by job id: jobs fold in as workers report them
  // (foldReportedJobs), the rest and the outcome at the end (merge).
  ParallelResult merged_;
  std::vector<bool> folded_;
  std::vector<std::uint32_t> reported_;  // completed, not yet folded
  std::vector<unsigned> pendingFeeds_;
  std::uint32_t completed_ = 0;
  std::uint32_t stealSeqCounter_ = 0;
  bool shuttingDown_ = false;
  bool suspending_ = false;
  std::chrono::steady_clock::time_point lastActivity_{};
  FleetResult result_;
};

// RAII: ignore SIGPIPE for the duration of runFleet (a worker dying
// while the coordinator writes a command must surface as EPIPE, not
// kill the coordinator), restoring the previous disposition after.
class ScopedSigpipeIgnore {
 public:
  ScopedSigpipeIgnore() {
    struct sigaction ignore {};
    ignore.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &ignore, &saved_);
  }
  ~ScopedSigpipeIgnore() { ::sigaction(SIGPIPE, &saved_, nullptr); }

 private:
  struct sigaction saved_ {};
};

}  // namespace

FleetResult runFleet(const EngineFactory& factory, const PartitionPlan& plan,
                     const FleetConfig& config) {
  SDE_ASSERT(factory != nullptr, "runFleet needs an engine factory");
  SDE_ASSERT(!plan.jobs.empty(), "empty partition plan");
  if (config.processes == 0)
    throw FleetError("fleet needs at least one worker process");
  if (config.checkpointDir.empty())
    throw FleetError(
        "fleet runs require a checkpoint directory (the durable job queue)");
  if (config.metricsPlane != nullptr &&
      config.metricsPlane->slots() < config.processes + 1)
    throw FleetError("the metrics plane has " +
                     std::to_string(config.metricsPlane->slots()) +
                     " slots; a " + std::to_string(config.processes) +
                     "-process fleet needs " +
                     std::to_string(config.processes + 1));

  ScopedSigpipeIgnore sigpipe;
  ScopedSigtermSuspend sigterm(config.installSigtermSuspend);

  // Durable queue setup — identical semantics to the thread runner's
  // durable mode, so sde_checkpoint and resume tooling work unchanged.
  const fs::path dir = config.checkpointDir;
  fs::create_directories(dir);
  if (!config.traceDir.empty()) fs::create_directories(config.traceDir);
  const snapshot::RunManifest manifest{config.scenarioSpec, config.horizon,
                                       plan};
  const bool resuming =
      snapshot::prepareRunDir(dir, manifest, config.resume);

  // Shared query store: made BEFORE forking, so every worker (and
  // every respawn) inherits the mapping.
  std::unique_ptr<solver::ShmQueryCache> shared;
  if (config.shmQueryCache)
    shared = snapshot::openSharedStore(
        resuming ? snapshot::sharedCachePath(dir.string()) : "");

  // Live metrics plane: the caller's, or one made here before forking
  // (workers inherit the mapping either way), one slot per worker plus
  // slot 0 for the coordinator. A plane that cannot be made degrades to
  // no live plane — the durable merge still produces exact post-run
  // metrics.
  std::unique_ptr<obs::ShmMetricsPlane> ownPlane;
  obs::ShmMetricsPlane* metricsPlane = config.metricsPlane;
  if (metricsPlane == nullptr) {
    obs::ShmMetricsConfig metricsConfig;
    metricsConfig.slots = config.processes + 1;
    try {
      ownPlane = std::make_unique<obs::ShmMetricsPlane>(metricsConfig);
      metricsPlane = ownPlane.get();
    } catch (const support::SharedMappingError& e) {
      support::logError("fleet", e.what());
    }
  }

  FleetResult result =
      Coordinator(factory, plan, config, shared.get(), metricsPlane).run();
  if (shared != nullptr) {
    result.shmEntries = shared->entries();
    snapshot::persistSharedStore(*shared, dir.string());
  }
  // Exact totals win: the merged post-run stats are rendered verbatim,
  // then live-only series (latency histograms, profile bridges, fleet.*
  // counters) are adopted for the names stats do not carry. The live
  // totals equal the exact ones unless a worker died with its slot's
  // last publication. A suspended run has no merged stats — the live
  // view stands alone.
  obs::MetricsSnapshot merged;
  if (!result.suspended) merged = obs::snapshotFromStats(result.result.stats);
  merged.adoptMissing(result.metrics);
  result.metrics = std::move(merged);
  if (!result.suspended) {
    try {
      const std::string bytes = obs::encodeMetricsSnapshot(result.metrics);
      snapshot::atomicWriteFile(
          snapshot::metricsSnapshotPath(dir), [&](std::ostream& os) {
            os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
          });
    } catch (const snapshot::SnapshotError& e) {
      support::logError("snapshot", e.what());
    }
  }
  return result;
}

}  // namespace sde

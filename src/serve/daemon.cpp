#include "serve/daemon.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <fstream>
#include <sstream>

#include "serve/results.hpp"
#include "serve/runner.hpp"
#include "snapshot/error.hpp"
#include "snapshot/manifest.hpp"
#include "support/logging.hpp"

namespace sde::serve {

namespace fs = std::filesystem;
using support::MetricKind;
using support::StatsRegistry;

namespace {

// The id of the per-tenant series "serve.tenant.<tenant>.<series>".
StatsRegistry::Id tenantSeries(const std::string& tenant,
                               std::string_view series,
                               MetricKind kind = MetricKind::kCounter) {
  return StatsRegistry::id(
      "serve.tenant." + tenant + "." + std::string(series), kind);
}

volatile std::sig_atomic_t g_serveStop = 0;
void serveStopHandler(int) { g_serveStop = 1; }

std::uint64_t parseDigestArtifact(const fs::path& dir) {
  std::ifstream is(jobResultDir(dir) / "digest.txt");
  std::uint64_t digest = 0;
  is >> digest;
  return is ? digest : 0;
}

}  // namespace

Daemon::Daemon(ServeConfig config)
    : config_(std::move(config)),
      socketPath_(config_.socketPath.empty()
                      ? (fs::path(config_.root) / "serve.sock").string()
                      : config_.socketPath),
      scheduler_(config_.slots) {
  fs::create_directories(jobsDir(config_.root));
  for (const auto& [tenant, policy] : config_.tenants)
    scheduler_.setTenantPolicy(tenant, policy);
  // Crash-safe boot: the registry is whatever the directory tree says.
  jobs_ = loadJobs(config_.root);
  nextId_ = nextJobId(jobs_);
  metrics_.set(StatsRegistry::id("serve.slots_total", MetricKind::kGauge),
               config_.slots);
  const auto bootTime = std::chrono::steady_clock::now();
  for (const auto& [id, record] : jobs_) {
    noteTenant(record.spec.tenant);
    // Jobs recovered as runnable re-enter the queue at boot; their
    // pre-crash wait is unknowable and not worth inventing.
    if (record.state == JobState::kQueued ||
        record.state == JobState::kSuspended)
      queuedSince_[id] = bootTime;
  }
  listenFd_ = listenUnixSocket(socketPath_);
  // The accept loop drains until EAGAIN; a blocking listen fd would
  // wedge the whole daemon on the second accept of a round.
  ::fcntl(listenFd_, F_SETFL,
          ::fcntl(listenFd_, F_GETFL, 0) | O_NONBLOCK);
}

Daemon::~Daemon() {
  if (listenFd_ >= 0) ::close(listenFd_);
  for (const auto& client : clients_)
    if (client->fd >= 0) ::close(client->fd);
  ::unlink(socketPath_.c_str());
}

void Daemon::run() {
  std::signal(SIGPIPE, SIG_IGN);
  std::signal(SIGTERM, serveStopHandler);
  std::signal(SIGINT, serveStopHandler);
  g_serveStop = 0;

  while (!stopping_ && g_serveStop == 0) {
    tick();

    std::vector<pollfd> fds;
    fds.push_back({listenFd_, POLLIN, 0});
    for (const auto& client : clients_)
      fds.push_back({client->fd, POLLIN, 0});
    const int ready =
        ::poll(fds.data(), fds.size(), static_cast<int>(config_.pollMs));
    if (ready < 0) {
      if (errno == EINTR) continue;  // signal: loop re-checks the flag
      throw ServeError(std::string("daemon poll failed: ") +
                       std::strerror(errno));
    }
    if (fds[0].revents & POLLIN) acceptClients();
    // Collect serviceable clients first: handlers may erase clients.
    std::vector<Client*> readable;
    for (std::size_t i = 1; i < fds.size(); ++i)
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR))
        readable.push_back(clients_[i - 1].get());
    for (Client* client : readable) serviceClient(*client);
    std::erase_if(clients_, [](const std::unique_ptr<Client>& c) {
      return c->fd < 0;
    });
  }
  shutdownRunners();
}

void Daemon::tick() {
  reapRunners();
  refreshProgress();
  if (!stopping_) schedule();
  pushProgress();
}

void Daemon::reapRunners() {
  while (true) {
    int status = 0;
    const pid_t pid = ::waitpid(-1, &status, WNOHANG);
    if (pid <= 0) break;
    const auto it =
        std::find_if(running_.begin(), running_.end(),
                     [&](const auto& kv) { return kv.second.pid == pid; });
    if (it == running_.end()) continue;  // not a runner (stray child)
    const std::uint64_t jobId = it->first;
    running_.erase(it);

    const fs::path dir = jobDir(config_.root, jobId);
    JobRecord& record = jobs_.at(jobId);
    // Disk is the truth — the runner's exit code only explains it. A
    // runner killed by SIGKILL leaves whatever the fleet's own crash
    // recovery can resume; deriveJobState classifies it.
    record.state = deriveJobState(dir);
    // A preempted or crashed runner puts the job back in the queue; its
    // next wait starts now.
    if (record.state == JobState::kQueued ||
        record.state == JobState::kSuspended)
      queuedSince_[jobId] = std::chrono::steady_clock::now();
    if (WIFEXITED(status) && WEXITSTATUS(status) == kRunnerFailed &&
        record.state == JobState::kFailed) {
      std::ifstream is(jobErrorPath(dir));
      std::ostringstream text;
      text << is.rdbuf();
      record.error = std::move(text).str();
    }
    if (record.state == JobState::kDone && config_.retainJobs > 0) {
      for (const std::uint64_t pruned :
           pruneResults(config_.root, config_.retainJobs)) {
        jobs_.erase(pruned);
        progress_.erase(pruned);
      }
    }
  }
}

void Daemon::schedule() {
  // Account elapsed slot-seconds since the last tick.
  const auto now = std::chrono::steady_clock::now();
  for (auto& [jobId, runner] : running_) {
    const double seconds =
        std::chrono::duration<double>(now - runner.lastCharge).count();
    runner.lastCharge = now;
    const JobRecord& record = jobs_.at(jobId);
    const double slotSeconds = seconds * fleetWorkersOf(record.spec);
    scheduler_.charge(record.spec.tenant, slotSeconds);
    metrics_.add(tenantSeries(record.spec.tenant, "run_slot_ms"),
                 static_cast<std::uint64_t>(slotSeconds * 1000.0));
  }

  std::vector<SchedJob> waiting;
  std::vector<SchedJob> runningJobs;
  for (const auto& [jobId, record] : jobs_) {
    const bool running = running_.count(jobId) > 0;
    if (!running && record.state != JobState::kQueued &&
        record.state != JobState::kSuspended)
      continue;
    const SchedJob entry{jobId, record.spec.tenant, record.spec.priority,
                         fleetWorkersOf(record.spec)};
    (running ? runningJobs : waiting).push_back(entry);
  }
  const ScheduleDecision decision = scheduler_.decide(waiting, runningJobs);
  for (const std::uint64_t jobId : decision.preempt) preemptJob(jobId);
  for (const std::uint64_t jobId : decision.start) startJob(jobId);
  refreshSlotGauges();
}

void Daemon::noteTenant(const std::string& tenant) {
  metricTenants_.insert(tenant);
}

void Daemon::refreshSlotGauges() {
  std::map<std::string, std::uint64_t> inUse;
  std::uint64_t total = 0;
  for (const auto& [jobId, runner] : running_) {
    const JobRecord& record = jobs_.at(jobId);
    const std::uint32_t workers = fleetWorkersOf(record.spec);
    inUse[record.spec.tenant] += workers;
    total += workers;
  }
  metrics_.set(StatsRegistry::id("serve.slots_in_use", MetricKind::kGauge),
               total);
  metrics_.set(StatsRegistry::id("serve.jobs_running", MetricKind::kGauge),
               running_.size());
  // Every tenant ever seen gets its gauge written each round, so a
  // tenant whose last job finished reads 0, not its stale peak.
  for (const std::string& tenant : metricTenants_)
    metrics_.set(tenantSeries(tenant, "slots_in_use", MetricKind::kGauge),
                 inUse.count(tenant) > 0 ? inUse.at(tenant) : 0);
}

void Daemon::startJob(std::uint64_t jobId) {
  JobRecord& record = jobs_.at(jobId);
  RunningJob runner;
  // The job's plane, made before the fork so that the runner's fleet
  // workers inherit it: one slot per worker plus the coordinator's.
  obs::ShmMetricsConfig planeConfig;
  planeConfig.slots = fleetWorkersOf(record.spec) + 1;
  try {
    runner.plane = std::make_unique<obs::ShmMetricsPlane>(planeConfig);
  } catch (const support::SharedMappingError& e) {
    support::logError("serve", std::string(e.what()) + "; job " +
                                   std::to_string(jobId) +
                                   " runs without a live feed");
  }
  runner.pid = spawnRunner(jobDir(config_.root, jobId), record.spec,
                           runner.plane.get());
  runner.lastCharge = std::chrono::steady_clock::now();
  running_.emplace(jobId, std::move(runner));
  record.state = JobState::kRunning;
  const auto queued = queuedSince_.find(jobId);
  if (queued != queuedSince_.end()) {
    const double waitedMs =
        std::chrono::duration<double, std::milli>(runner.lastCharge -
                                                  queued->second)
            .count();
    metrics_.observe(tenantSeries(record.spec.tenant, "queue_wait_ms",
                                  MetricKind::kHistogram),
                     static_cast<std::uint64_t>(waitedMs));
    queuedSince_.erase(queued);
  }
}

void Daemon::preemptJob(std::uint64_t jobId) {
  const auto it = running_.find(jobId);
  if (it == running_.end() || it->second.preempting) return;
  it->second.preempting = true;
  metrics_.add(tenantSeries(jobs_.at(jobId).spec.tenant, "preemptions"));
  ::kill(it->second.pid, SIGTERM);
}

void Daemon::refreshProgress() {
  // A job whose plane is not up keeps its last reading.
  for (const auto& [jobId, runner] : running_)
    if (const auto snap = livePlaneOf(runner))
      progress_[jobId] = progressOf(*snap);
}

Daemon::Progress Daemon::progressOf(const obs::MetricsSnapshot& snap) {
  return {snap.value("engine.events"),
          snap.value("engine.initial_states") +
              snap.value("engine.forks_total")};
}

std::optional<obs::MetricsSnapshot> Daemon::livePlaneOf(
    const RunningJob& runner) {
  if (runner.plane == nullptr) return std::nullopt;
  obs::MetricsSnapshot snap = runner.plane->aggregate();
  if (snap.empty()) return std::nullopt;
  return snap;
}

JobStatus Daemon::statusOf(const JobRecord& record) {
  JobStatus status;
  status.jobId = record.id;
  status.tenant = record.spec.tenant;
  status.priority = record.spec.priority;
  status.processes = fleetWorkersOf(record.spec);
  status.state =
      running_.count(record.id) > 0 ? JobState::kRunning : record.state;
  status.partsTotal = fleetJobsOf(record.spec);
  status.error = record.error;
  const fs::path dir = jobDir(config_.root, record.id);
  for (std::uint32_t part = 0; part < status.partsTotal; ++part)
    if (fs::exists(snapshot::jobDonePath(jobQueueDir(dir), part)))
      ++status.partsDone;
  Progress progress;
  if (const auto last = progress_.find(record.id); last != progress_.end())
    progress = last->second;
  if (status.state == JobState::kDone) {
    status.digest = parseDigestArtifact(dir);
    // The published post-run stats, so the final frame equals stats.txt,
    // also after a daemon restart.
    if (const auto bytes = readArtifact(dir, "metrics.sde")) {
      try {
        progress = progressOf(obs::decodeMetricsSnapshot(*bytes));
      } catch (const snapshot::SnapshotError&) {
        // Torn artifact: the job keeps its last live reading.
      }
    }
  }
  status.eventsSeen = progress.events;
  status.statesSeen = progress.states;
  return status;
}

void Daemon::pushProgress() {
  for (const auto& client : clients_) {
    if (!client->watching || client->fd < 0) continue;
    const auto it = jobs_.find(client->watchJobId);
    if (it == jobs_.end()) {
      client->watching = false;
      continue;
    }
    ProgressFrame frame;
    frame.status = statusOf(it->second);
    frame.final = terminalJobState(frame.status.state);
    sendTo(*client, frame);
    if (frame.final) client->watching = false;
  }
}

void Daemon::acceptClients() {
  while (true) {
    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) break;  // EAGAIN or transient: next poll round retries
    auto client = std::make_unique<Client>();
    client->fd = fd;
    clients_.push_back(std::move(client));
  }
}

void Daemon::serviceClient(Client& client) {
  char buffer[4096];
  const ssize_t got = ::read(client.fd, buffer, sizeof(buffer));
  if (got <= 0) {
    ::close(client.fd);
    client.fd = -1;
    return;
  }
  client.frames.feed(buffer, static_cast<std::size_t>(got));
  try {
    while (auto payload = client.frames.next()) {
      const Message message = decodeMessage(*payload);
      handleMessage(client, message);
      if (client.fd < 0) return;
    }
  } catch (const ServeError& e) {
    // Malformed wire bytes or message: tell the client what was wrong,
    // then drop the connection (framing state is unrecoverable).
    sendTo(client, ErrorReply{e.what()});
    if (client.fd >= 0) {
      ::close(client.fd);
      client.fd = -1;
    }
  }
}

void Daemon::handleMessage(Client& client, const Message& message) {
  if (const auto* submit = std::get_if<SubmitRequest>(&message)) {
    JobSpec spec;
    spec.tenant = submit->tenant;
    spec.priority = submit->priority;
    spec.processes = submit->processes;
    spec.scenarioSpec = submit->scenarioSpec;
    spec.collectTestcases = submit->collectTestcases;
    if (const auto rejection = validateJobSpec(spec)) {
      sendTo(client, ErrorReply{"submit rejected: " + *rejection});
      return;
    }
    const std::uint64_t jobId = nextId_++;
    const fs::path dir = jobDir(config_.root, jobId);
    fs::create_directories(dir);
    // Atomic spec write BEFORE the ack: once the client hears this id,
    // no crash can forget the job.
    writeJobSpec(dir, spec);
    JobRecord record;
    record.id = jobId;
    record.spec = std::move(spec);
    record.state = JobState::kQueued;
    noteTenant(record.spec.tenant);
    metrics_.add(tenantSeries(record.spec.tenant, "jobs_submitted"));
    queuedSince_[jobId] = std::chrono::steady_clock::now();
    jobs_.emplace(jobId, std::move(record));
    sendTo(client, SubmitReply{jobId});
    return;
  }
  if (const auto* status = std::get_if<StatusRequest>(&message)) {
    StatusReply reply;
    if (status->jobId == 0) {
      for (const auto& [id, record] : jobs_)
        reply.jobs.push_back(statusOf(record));
    } else {
      const auto it = jobs_.find(status->jobId);
      if (it == jobs_.end()) {
        sendTo(client, ErrorReply{"unknown job " +
                                  std::to_string(status->jobId)});
        return;
      }
      reply.jobs.push_back(statusOf(it->second));
    }
    sendTo(client, reply);
    return;
  }
  if (const auto* watch = std::get_if<WatchRequest>(&message)) {
    const auto it = jobs_.find(watch->jobId);
    if (it == jobs_.end()) {
      sendTo(client, ErrorReply{"unknown job " + std::to_string(watch->jobId)});
      return;
    }
    client.watching = true;
    client.watchJobId = watch->jobId;
    // First frame immediately; the tick loop streams the rest.
    ProgressFrame frame;
    frame.status = statusOf(it->second);
    frame.final = terminalJobState(frame.status.state);
    sendTo(client, frame);
    if (frame.final) client.watching = false;
    return;
  }
  if (const auto* cancel = std::get_if<CancelRequest>(&message)) {
    const auto it = jobs_.find(cancel->jobId);
    if (it == jobs_.end()) {
      sendTo(client,
             ErrorReply{"unknown job " + std::to_string(cancel->jobId)});
      return;
    }
    JobRecord& record = it->second;
    const fs::path dir = jobDir(config_.root, record.id);
    if (!terminalJobState(record.state)) {
      snapshot::atomicWriteFile(jobCancelledMarker(dir),
                                [](std::ostream& os) { os << "cancelled\n"; });
      record.state = JobState::kCancelled;
      preemptJob(record.id);  // no-op unless running
    }
    sendTo(client, CancelReply{record.state});
    return;
  }
  if (const auto* list = std::get_if<ListArtifactsRequest>(&message)) {
    if (jobs_.count(list->jobId) == 0) {
      sendTo(client, ErrorReply{"unknown job " + std::to_string(list->jobId)});
      return;
    }
    ArtifactList reply;
    reply.names = listArtifacts(jobDir(config_.root, list->jobId));
    sendTo(client, reply);
    return;
  }
  if (const auto* fetch = std::get_if<FetchRequest>(&message)) {
    if (jobs_.count(fetch->jobId) == 0) {
      sendTo(client, ErrorReply{"unknown job " + std::to_string(fetch->jobId)});
      return;
    }
    const auto bytes =
        readArtifact(jobDir(config_.root, fetch->jobId), fetch->name);
    if (!bytes) {
      sendTo(client, ErrorReply{"no artifact \"" + fetch->name + "\" for job " +
                                std::to_string(fetch->jobId)});
      return;
    }
    sendTo(client, ArtifactReply{fetch->name, *bytes});
    return;
  }
  if (const auto* metrics = std::get_if<MetricsRequest>(&message)) {
    handleMetricsRequest(client, *metrics);
    return;
  }
  if (std::get_if<ShutdownRequest>(&message) != nullptr) {
    sendTo(client, ShutdownReply{});
    stopping_ = true;
    return;
  }
  sendTo(client, ErrorReply{"unexpected message type for a request"});
}

void Daemon::handleMetricsRequest(Client& client,
                                  const MetricsRequest& request) {
  if (request.jobId != 0) {
    const auto it = jobs_.find(request.jobId);
    if (it == jobs_.end()) {
      sendTo(client,
             ErrorReply{"unknown job " + std::to_string(request.jobId)});
      return;
    }
    const fs::path dir = jobDir(config_.root, request.jobId);
    // A published metrics artifact wins over everything: those are the
    // bytes the fleet derived from its post-run merged StatsRegistry,
    // shipped verbatim so the live-vs-postrun equality is byte-level.
    if (const auto bytes = readArtifact(dir, "metrics.sde")) {
      try {
        const obs::MetricsSnapshot snap = obs::decodeMetricsSnapshot(*bytes);
        sendTo(client, MetricsReply{obs::renderPrometheus(snap), *bytes});
      } catch (const snapshot::SnapshotError& e) {
        sendTo(client,
               ErrorReply{std::string("torn metrics artifact: ") + e.what()});
      }
      return;
    }
    if (const auto running = running_.find(request.jobId);
        running != running_.end()) {
      if (const auto snap = livePlaneOf(running->second)) {
        sendTo(client, MetricsReply{obs::renderPrometheus(*snap),
                                    obs::encodeMetricsSnapshot(*snap)});
      } else {
        // Runner forked but its fleet has published nothing yet.
        sendTo(client, ErrorReply{"metrics plane for job " +
                                  std::to_string(request.jobId) +
                                  " not readable yet"});
      }
      return;
    }
    sendTo(client,
           ErrorReply{"no metrics for job " + std::to_string(request.jobId) +
                      " (state " +
                      std::string(jobStateName(it->second.state)) + ")"});
    return;
  }
  // Service-wide: the daemon's own accounting plus whatever every
  // running fleet is publishing right now.
  obs::MetricsSnapshot snap = obs::snapshotFromStats(metrics_);
  // A job whose plane is not up does not contribute to this poll.
  for (const auto& [jobId, runner] : running_)
    if (const auto live = livePlaneOf(runner)) snap.merge(*live);
  sendTo(client, MetricsReply{obs::renderPrometheus(snap),
                              obs::encodeMetricsSnapshot(snap)});
}

void Daemon::sendTo(Client& client, const Message& message) {
  if (client.fd < 0) return;
  try {
    sendFrame(client.fd, encodeMessage(message));
  } catch (const ServeError&) {
    ::close(client.fd);
    client.fd = -1;
  }
}

void Daemon::shutdownRunners() {
  for (const auto& [jobId, runner] : running_) ::kill(runner.pid, SIGTERM);
  for (const auto& [jobId, runner] : running_) {
    int status = 0;
    ::waitpid(runner.pid, &status, 0);
    JobRecord& record = jobs_.at(jobId);
    record.state = deriveJobState(jobDir(config_.root, jobId));
  }
  running_.clear();
}

}  // namespace sde::serve

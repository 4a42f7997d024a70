// End-to-end battery for the exploration service: a real forked daemon,
// real runner/fleet processes underneath, driven through the blocking
// Client. The invariants under test are the service's headline claims:
//   * a job's artifacts carry the digest of a direct fleet run,
//   * a done job's progress equals its post-run stats,
//   * validation failures travel the wire as readable ErrorReplies,
//   * SIGKILLing the daemon mid-job loses no accepted work,
//   * strict priority preempts (suspends) lower-priority jobs,
//   * cancel is terminal and immediate for queued jobs.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/job.hpp"
#include "trace/scenario.hpp"

namespace sde::serve {
namespace {

namespace fs = std::filesystem;

bool sanitizersActive() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

// One root per process, so a --gtest_repeat loop next to ctest never
// shares a socket or a run directory with the suite's own run of a test.
// The process removes its roots when it exits; the daemons, runners and
// workers it forks leave through _exit and remove nothing.
fs::path freshRoot(const std::string& name) {
  struct Roots {
    std::vector<fs::path> made;
    ~Roots() {
      for (const fs::path& root : made) {
        std::error_code ec;
        fs::remove_all(root, ec);
      }
    }
  };
  static Roots roots;
  const fs::path root =
      fs::path(::testing::TempDir()) /
      ("serve_" + name + "_" + std::to_string(static_cast<long>(::getpid())));
  fs::remove_all(root);
  fs::create_directories(root);
  roots.made.push_back(root);
  return root;
}

trace::CollectScenarioConfig smallScenario() {
  trace::CollectScenarioConfig config;
  config.gridWidth = 4;
  config.gridHeight = 4;
  config.simulationTime = 3000;
  return config;
}

// Big enough (~2s wall) that preemption and mid-job kills have a window.
trace::CollectScenarioConfig longScenario() {
  trace::CollectScenarioConfig config;
  config.gridWidth = 5;
  config.gridHeight = 5;
  config.simulationTime = 12000;
  return config;
}

SubmitRequest request(const trace::CollectScenarioConfig& scenario,
                      const std::string& tenant, std::uint32_t priority = 0,
                      std::uint32_t processes = 2) {
  SubmitRequest req;
  req.tenant = tenant;
  req.priority = priority;
  req.processes = processes;
  req.scenarioSpec = trace::encodeCollectScenarioSpec(scenario, 2);
  return req;
}

// The oracle: run the identical scenario as a direct fleet and take its
// digest. Flags mirror the service runner's (shared store on, test
// cases as the job asked for them).
std::uint64_t directDigest(const trace::CollectScenarioConfig& scenario,
                           const std::string& name, bool testcases = false) {
  const fs::path dir = freshRoot("direct_" + name);
  FleetConfig fleet;
  fleet.processes = 2;
  fleet.checkpointDir = dir.string();
  fleet.collectTestcases = testcases;
  return trace::runCollectFleet(scenario, fleet, 2)
      .result.fingerprintDigest();
}

// Forks a child that IS the daemon (constructs it and runs the poll
// loop); returns once the socket accepts connections.
pid_t spawnDaemon(const ServeConfig& config) {
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    try {
      Daemon daemon(config);
      daemon.run();
      ::_exit(0);
    } catch (...) {
      ::_exit(9);
    }
  }
  return pid;
}

ServeConfig testConfig(const fs::path& root, unsigned slots) {
  ServeConfig config;
  config.root = root.string();
  config.slots = slots;
  config.pollMs = 10;  // tests want snappy scheduling decisions
  return config;
}

void reapDaemon(pid_t pid) {
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
}

void shutdownAndReap(const std::string& socket, pid_t pid) {
  try {
    Client client(socket);
    client.shutdownDaemon();
  } catch (const ServeError&) {
    ::kill(pid, SIGTERM);  // already gone or not accepting; force it
  }
  reapDaemon(pid);
}

JobStatus statusOf(Client& client, std::uint64_t jobId) {
  const auto jobs = client.status(jobId);
  EXPECT_EQ(jobs.size(), 1u);
  return jobs.empty() ? JobStatus{} : jobs[0];
}

// Polls `predicate` against the job's status until it holds or the
// timeout trips. Returns the last observed status either way.
JobStatus waitForJob(Client& client, std::uint64_t jobId,
                     const std::function<bool(const JobStatus&)>& predicate,
                     double timeoutSeconds = 60.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeoutSeconds);
  JobStatus last;
  while (std::chrono::steady_clock::now() < deadline) {
    last = statusOf(client, jobId);
    if (predicate(last)) return last;
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
  }
  return last;
}

// The preconditions the mid-job tests wait for: the job's fleet is up,
// and (exploring) it has processed events.
bool isRunning(const JobStatus& s) { return s.state == JobState::kRunning; }
bool isExploring(const JobStatus& s) {
  return isRunning(s) && s.eventsSeen > 0;
}

// The job's published stats.txt as name -> value.
std::map<std::string, std::uint64_t> fetchStats(Client& client,
                                                std::uint64_t jobId) {
  std::map<std::string, std::uint64_t> stats;
  std::istringstream text(client.fetch(jobId, "stats.txt"));
  for (std::string line; std::getline(text, line);) {
    const std::size_t eq = line.find(" = ");
    if (eq != std::string::npos)
      stats[line.substr(0, eq)] = std::stoull(line.substr(eq + 3));
  }
  return stats;
}

// A done job's last progress frame reports the post-run totals: the
// engine's processed events and states created.
void expectProgressEqualsPostRunStats(Client& client, const JobStatus& final_) {
  const auto stats = fetchStats(client, final_.jobId);
  ASSERT_GT(stats.count("engine.events"), 0u);
  EXPECT_EQ(final_.eventsSeen, stats.at("engine.events"));
  EXPECT_EQ(final_.statesSeen, stats.at("engine.initial_states") +
                                   stats.at("engine.forks_total"));
}

TEST(ServeE2eTest, JobCompletesWithTheDigestOfADirectFleetRun) {
  if (sanitizersActive()) GTEST_SKIP() << "forks real fleets";
  const fs::path root = freshRoot("digest");
  const pid_t daemon = spawnDaemon(testConfig(root, 4));
  const std::string socket = (root / "serve.sock").string();
  ASSERT_TRUE(waitForDaemon(socket, 20.0));

  Client client(socket);
  const std::uint64_t jobId = client.submit(request(smallScenario(), "alice"));
  EXPECT_EQ(jobId, 1u);

  std::uint32_t progressFrames = 0;
  const JobStatus final_ = client.watch(
      jobId, [&](const JobStatus&) { ++progressFrames; });
  EXPECT_EQ(final_.state, JobState::kDone);
  EXPECT_EQ(final_.partsDone, 4u);
  EXPECT_EQ(final_.partsTotal, 4u);
  EXPECT_GE(progressFrames, 1u);  // watch streamed at least one frame

  EXPECT_EQ(final_.digest, directDigest(smallScenario(), "digest"));

  // The published artifacts agree with the status digest.
  const auto names = client.listArtifacts(jobId);
  EXPECT_NE(std::find(names.begin(), names.end(), "digest.txt"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "summary.txt"),
            names.end());
  const std::string digestText = client.fetch(jobId, "digest.txt");
  EXPECT_EQ(std::stoull(digestText), final_.digest);
  expectProgressEqualsPostRunStats(client, final_);
  // (Live eventsSeen counters on a running job are asserted in the
  // sigkill test, whose job runs long enough for the plane to be read
  // mid-flight; this one can finish inside a single daemon tick.)

  shutdownAndReap(socket, daemon);
}

TEST(ServeE2eTest, ValidationFailuresTravelTheWireAsErrorReplies) {
  if (sanitizersActive()) GTEST_SKIP() << "forks real fleets";
  const fs::path root = freshRoot("reject");
  const pid_t daemon = spawnDaemon(testConfig(root, 2));
  const std::string socket = (root / "serve.sock").string();
  ASSERT_TRUE(waitForDaemon(socket, 20.0));
  Client client(socket);

  const auto rejectionOf = [&](SubmitRequest req) -> std::string {
    try {
      (void)client.submit(req);
      return "";
    } catch (const ServeError& e) {
      return e.what();
    }
  };

  // Zero-budget job.
  auto zero = smallScenario();
  zero.simulationTime = 0;
  EXPECT_NE(rejectionOf(request(zero, "alice")).find("zero-budget"),
            std::string::npos);

  // Truncated spec.
  SubmitRequest truncated = request(smallScenario(), "alice");
  truncated.scenarioSpec =
      truncated.scenarioSpec.substr(0, truncated.scenarioSpec.rfind('='));
  EXPECT_NE(rejectionOf(truncated).find("truncated spec"), std::string::npos);

  // Unknown mapper.
  SubmitRequest mangled = request(smallScenario(), "alice");
  const std::size_t at = mangled.scenarioSpec.find("mapper=");
  ASSERT_NE(at, std::string::npos);
  mangled.scenarioSpec.replace(
      at, mangled.scenarioSpec.find(' ', at) - at, "mapper=XYZ");
  EXPECT_NE(rejectionOf(mangled).find("unknown mapper name \"XYZ\""),
            std::string::npos);

  // Rejections must not mint job ids: the next good submit is job 1.
  EXPECT_EQ(client.submit(request(smallScenario(), "alice")), 1u);

  shutdownAndReap(socket, daemon);
}

TEST(ServeE2eTest, DaemonSigkillLosesNoAcceptedJob) {
  if (sanitizersActive()) GTEST_SKIP() << "forks real fleets";
  const fs::path root = freshRoot("sigkill");
  const std::string socket = (root / "serve.sock").string();
  const std::uint64_t expected = directDigest(longScenario(), "sigkill");

  pid_t daemon = spawnDaemon(testConfig(root, 4));
  ASSERT_TRUE(waitForDaemon(socket, 20.0));
  std::uint64_t jobId = 0;
  {
    Client client(socket);
    jobId = client.submit(request(longScenario(), "alice"));
    // Let the fleet actually start exploring before the kill.
    EXPECT_TRUE(isExploring(waitForJob(client, jobId, isExploring)))
        << "no live progress from the running job";
  }

  ASSERT_EQ(::kill(daemon, SIGKILL), 0);
  reapDaemon(daemon);
  // The runner notices via PDEATHSIG and suspends; give it a moment.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  // A fresh daemon on the same root must rediscover and finish the job.
  daemon = spawnDaemon(testConfig(root, 4));
  ASSERT_TRUE(waitForDaemon(socket, 20.0));
  {
    Client client(socket);
    const auto rebuilt = statusOf(client, jobId);
    EXPECT_EQ(rebuilt.tenant, "alice");
    const JobStatus final_ = client.watch(jobId);
    EXPECT_EQ(final_.state, JobState::kDone);
    EXPECT_EQ(final_.digest, expected);
    expectProgressEqualsPostRunStats(client, final_);
  }
  shutdownAndReap(socket, daemon);
}

TEST(ServeE2eTest, HigherPriorityPreemptsAndFinishesFirst) {
  if (sanitizersActive()) GTEST_SKIP() << "forks real fleets";
  const fs::path root = freshRoot("preempt");
  const std::string socket = (root / "serve.sock").string();
  const pid_t daemon = spawnDaemon(testConfig(root, 2));
  ASSERT_TRUE(waitForDaemon(socket, 20.0));

  Client client(socket);
  // The low-priority job fills the whole 2-slot pool...
  const std::uint64_t low =
      client.submit(request(longScenario(), "batch", 0, 2));
  EXPECT_TRUE(isExploring(waitForJob(client, low, isExploring)))
      << "the low-priority job never ran";
  // ...so the high-priority job can only run by preempting it.
  const std::uint64_t high =
      client.submit(request(smallScenario(), "vip", 5, 2));

  const JobStatus highFinal = client.watch(high);
  EXPECT_EQ(highFinal.state, JobState::kDone);
  EXPECT_EQ(highFinal.digest, directDigest(smallScenario(), "preempt_high"));
  // While the high job finished, the low one was preempted (suspended /
  // waiting), not completed — strict priority really displaced it.
  const JobStatus lowDuring = statusOf(client, low);
  EXPECT_NE(lowDuring.state, JobState::kDone);

  // The preempted job resumes from its checkpoints and still matches
  // the uninterrupted digest.
  const JobStatus lowFinal = client.watch(low);
  EXPECT_EQ(lowFinal.state, JobState::kDone);
  EXPECT_EQ(lowFinal.digest, directDigest(longScenario(), "preempt_low"));

  shutdownAndReap(socket, daemon);
}

// A served job shares queries through the shared store, across a
// preemption too: the resumed attempt seeds the store from the sidecar
// its first attempt left behind.
TEST(ServeE2eTest, PreemptedJobWithTestcasesSharesQueriesAndKeepsItsDigest) {
  if (sanitizersActive()) GTEST_SKIP() << "forks real fleets";
  const fs::path root = freshRoot("preempt_store");
  const std::string socket = (root / "serve.sock").string();
  const pid_t daemon = spawnDaemon(testConfig(root, 2));
  ASSERT_TRUE(waitForDaemon(socket, 20.0));

  Client client(socket);
  SubmitRequest lowRequest = request(longScenario(), "batch", 0, 2);
  lowRequest.collectTestcases = true;
  const std::uint64_t low = client.submit(lowRequest);
  EXPECT_TRUE(isExploring(waitForJob(client, low, isExploring)))
      << "the low-priority job never ran";
  const std::uint64_t high =
      client.submit(request(smallScenario(), "vip", 5, 2));
  EXPECT_EQ(client.watch(high).state, JobState::kDone);
  EXPECT_NE(statusOf(client, low).state, JobState::kDone)
      << "the job finished before it could be preempted";

  const JobStatus lowFinal = client.watch(low);
  EXPECT_EQ(lowFinal.state, JobState::kDone);
  EXPECT_EQ(lowFinal.digest,
            directDigest(longScenario(), "preempt_store_low", true));
  auto stats = fetchStats(client, low);
  EXPECT_GT(stats["solver.layer.shared_cache.hits"], 0u);

  shutdownAndReap(socket, daemon);
}

TEST(ServeE2eTest, CancelledQueuedJobStaysCancelled) {
  if (sanitizersActive()) GTEST_SKIP() << "forks real fleets";
  const fs::path root = freshRoot("cancel");
  const std::string socket = (root / "serve.sock").string();
  const pid_t daemon = spawnDaemon(testConfig(root, 2));
  ASSERT_TRUE(waitForDaemon(socket, 20.0));

  Client client(socket);
  const std::uint64_t running =
      client.submit(request(longScenario(), "alice", 0, 2));
  EXPECT_TRUE(isRunning(waitForJob(client, running, isRunning)))
      << "the first job never started";
  // Equal priority + full pool: this one must be waiting its turn.
  const std::uint64_t queued =
      client.submit(request(smallScenario(), "alice", 0, 2));
  EXPECT_EQ(statusOf(client, queued).state, JobState::kQueued);

  EXPECT_EQ(client.cancel(queued), JobState::kCancelled);
  EXPECT_EQ(statusOf(client, queued).state, JobState::kCancelled);

  // The running job is unaffected and completes.
  const JobStatus final_ = client.watch(running);
  EXPECT_EQ(final_.state, JobState::kDone);
  // The cancelled job never ran: no result directory ever appeared.
  EXPECT_FALSE(fs::exists(jobResultDir(jobDir(root, queued))));
  EXPECT_EQ(statusOf(client, queued).state, JobState::kCancelled);

  shutdownAndReap(socket, daemon);
}

// A job holds the slots of the workers its fleet forks,
// min(processes, 2^vars), not the processes it asked for: a
// `--processes 4 --vars 0` job forks one worker, so on a 4-slot daemon a
// 1-process job runs beside it instead of queueing behind it.
TEST(ServeE2eTest, AJobHoldsOnlyTheSlotsOfTheWorkersItForks) {
  if (sanitizersActive()) GTEST_SKIP() << "forks real fleets";
  const fs::path root = freshRoot("worker_slots");
  const std::string socket = (root / "serve.sock").string();
  const pid_t daemon = spawnDaemon(testConfig(root, 4));
  ASSERT_TRUE(waitForDaemon(socket, 20.0));

  Client client(socket);
  SubmitRequest wide = request(longScenario(), "alice", 0, 4);
  wide.scenarioSpec = trace::encodeCollectScenarioSpec(longScenario(), 0);
  const std::uint64_t first = client.submit(wide);
  const JobStatus started = waitForJob(client, first, isRunning);
  EXPECT_TRUE(isRunning(started)) << "the first job never started";
  EXPECT_EQ(started.processes, 1u);

  const std::uint64_t second =
      client.submit(request(smallScenario(), "bob", 0, 1));
  EXPECT_TRUE(isRunning(waitForJob(client, second, isRunning)))
      << "the second job stayed queued behind a one-worker job";
  EXPECT_EQ(statusOf(client, first).state, JobState::kRunning)
      << "the first job ended before the second one started";

  EXPECT_EQ(client.watch(second).state, JobState::kDone);
  EXPECT_EQ(client.watch(first).state, JobState::kDone);
  shutdownAndReap(socket, daemon);
}

// The metrics plane's headline claim: counters fetched from the daemon
// for a completed job are byte-identical to the run's own post-run
// merged StatsRegistry — not approximately equal, the same bytes.
TEST(ServeE2eTest, MetricsFetchMatchesPostRunStatsExactly) {
  if (sanitizersActive()) GTEST_SKIP() << "forks real fleets";
  const fs::path root = freshRoot("metrics");
  const pid_t daemon = spawnDaemon(testConfig(root, 4));
  const std::string socket = (root / "serve.sock").string();
  ASSERT_TRUE(waitForDaemon(socket, 20.0));

  Client client(socket);
  const std::uint64_t jobId = client.submit(request(smallScenario(), "alice"));
  EXPECT_EQ(client.watch(jobId).state, JobState::kDone);

  // A done job's MetricsReply ships its durable metrics.sde verbatim.
  const MetricsReply reply = client.metrics(jobId);
  EXPECT_EQ(reply.snapshot, client.fetch(jobId, "metrics.sde"));

  const obs::MetricsSnapshot snap = obs::decodeMetricsSnapshot(reply.snapshot);
  ASSERT_FALSE(snap.points.empty());

  // Every "name = value" line of the post-run stats dump reappears in
  // the snapshot with the exact same value (snapshotFromStats lifts the
  // merged StatsRegistry verbatim; the live plane only ADDS series).
  std::size_t compared = 0;
  for (const auto& [name, value] : fetchStats(client, jobId)) {
    ASSERT_EQ(snap.points.count(name), 1u) << name << " missing from snapshot";
    EXPECT_EQ(snap.value(name), value) << name;
    ++compared;
  }
  EXPECT_GE(compared, 5u) << "stats.txt suspiciously empty";

  // The Prometheus rendition carries the engine families.
  EXPECT_NE(reply.prometheus.find("# TYPE"), std::string::npos);
  EXPECT_NE(reply.prometheus.find("sde_engine"), std::string::npos);

  // Service-wide metrics (jobId 0) fold in the daemon's own telemetry:
  // slot gauges and per-tenant accounting with tenant labels.
  const MetricsReply service = client.metrics();
  const obs::MetricsSnapshot whole =
      obs::decodeMetricsSnapshot(service.snapshot);
  EXPECT_EQ(whole.value("serve.slots_total"), 4u);
  EXPECT_EQ(whole.value("serve.tenant.alice.jobs_submitted"), 1u);
  EXPECT_NE(
      service.prometheus.find("sde_serve_jobs_submitted{tenant=\"alice\"} 1"),
      std::string::npos)
      << service.prometheus;

  // Unknown jobs answer with an ErrorReply, not an empty snapshot.
  EXPECT_THROW((void)client.metrics(999), ServeError);

  shutdownAndReap(socket, daemon);
}

}  // namespace
}  // namespace sde::serve

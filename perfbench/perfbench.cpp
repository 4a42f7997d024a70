// sde_perfbench — runs ONE job of the repository benchmark and prints
// its measurements and output check as one JSON line (run.py drives it,
// one process per job, and aggregates the jobs of a run).
//
//   sde_perfbench --workload grid10_sds|grid10_cow|fleet_testgen
//                 --horizon T --work-dir DIR [--trace]
//                 [--expect name=value]...
//   sde_perfbench --workload NAME --horizon T --work-dir DIR --setups K
//
// Untraced jobs time the calls a user makes, from outside: Engine::run
// and the post-run summary, or the whole fleet and then its jobs'
// exploration without the checkpoint sink. --setups K runs no job:
// it times K set-ups (the scenario, program and partition plan) and
// reports their median.
//
// Traced jobs (--trace) attach obs::PhaseProfiler through
// Engine::setProfiler, time a trace::MetricsRecorder sampler wrapped
// around the default one, and time the calls into each layer's public
// functions; they print the per-layer table before the JSON line. The
// fleet workload's traced job runs the fleet once more for the fleet.*
// numbers and then replays its jobs in this process with the building
// blocks a fleet worker calls, so every layer is visible.
//
// Output check: at the canonical horizon the observed values are
// compared with the reference values below; any --expect entry adds or
// overrides a reference. Invariants (completed outcome, SDS duplicate
// freedom, test cases == owned dscenarios, no worker death, replay
// digest == fleet digest) hold at every horizon.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/profiler.hpp"
#include "sde/explode.hpp"
#include "sde/fleet.hpp"
#include "sde/parallel.hpp"
#include "snapshot/manifest.hpp"
#include "trace/scenario.hpp"

namespace {

namespace fs = std::filesystem;
using namespace sde;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kCanonicalHorizon = 5000;
constexpr double kMiB = 1024.0 * 1024.0;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 0) return 0;
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::string hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

// --- Workloads -----------------------------------------------------------------

struct Workload {
  const char* name;
  std::uint32_t grid;  // grid side (grid x grid nodes)
  MapperKind mapper;
  bool fleet;
  std::size_t partitionVariables;  // fleet only
  unsigned processes;              // fleet only
};

constexpr Workload kWorkloads[] = {
    {"grid10_sds", 10, MapperKind::kSds, false, 0, 0},
    {"grid10_cow", 10, MapperKind::kCow, false, 0, 0},
    {"fleet_testgen", 6, MapperKind::kSds, true, 2, 2},
};

// The seed code's outputs at the canonical horizon. Digests are strings.
using Reference = std::map<std::string, std::string>;

Reference canonicalReference(const Workload& w) {
  if (std::strcmp(w.name, "grid10_sds") == 0)
    return {{"states", "43919"},
            {"events", "45339"},
            {"dscenarios", "280074272"},
            {"sim_peak_bytes", "45029156"},
            {"dup_strict", "0"}};
  if (std::strcmp(w.name, "grid10_cow") == 0)
    return {{"states", "730852"},
            {"events", "153140"},
            {"dscenarios", "280074272"},
            {"sim_peak_bytes", "644161752"}};
  return {{"fingerprint_digest", "9dd4ce6fccb6e564"},
          {"testcase_digest", "579aa563d37335c5"},
          {"testcases", "154144"}};
}

trace::CollectScenarioConfig scenarioConfig(const Workload& w,
                                            std::uint64_t horizon) {
  trace::CollectScenarioConfig config;
  config.gridWidth = w.grid;
  config.gridHeight = w.grid;
  config.simulationTime = horizon;
  config.mapper = w.mapper;
  return config;
}

// --- Job output ----------------------------------------------------------------

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t horizon = kCanonicalHorizon;
  bool traced = false;
  unsigned setups = 0;  // > 0: time this many set-ups, run no job
  fs::path workDir;
  Reference expect;
};

class Job {
 public:
  explicit Job(const Options& options) {
    if (options.horizon == kCanonicalHorizon)
      reference_ = canonicalReference(*options.workload);
    for (const auto& [name, value] : options.expect) reference_[name] = value;
  }

  void metric(const std::string& name, double value) {
    metrics_.emplace_back(name, value);
  }
  void layer(const std::string& name, double value) {
    layers_.emplace_back(name, value);
  }
  // An output compared with its reference value, when there is one.
  void observe(const std::string& name, const std::string& value) {
    observed_.emplace_back(name, value);
    const auto it = reference_.find(name);
    if (it != reference_.end() && it->second != value)
      mismatches_.push_back(name + ": expected " + it->second + ", got " +
                            value);
  }
  void observe(const std::string& name, std::uint64_t value) {
    observe(name, std::to_string(value));
  }
  // An invariant that holds at every horizon.
  void require(bool holds, const std::string& what) {
    if (!holds) mismatches_.push_back("invariant violated: " + what);
  }

  void print() const {
    std::printf("{\"ok\": %s, \"mismatches\": [",
                mismatches_.empty() ? "true" : "false");
    for (std::size_t i = 0; i < mismatches_.size(); ++i)
      std::printf("%s\"%s\"", i == 0 ? "" : ", ", mismatches_[i].c_str());
    std::printf("], \"observed\": {");
    for (std::size_t i = 0; i < observed_.size(); ++i)
      std::printf("%s\"%s\": \"%s\"", i == 0 ? "" : ", ",
                  observed_[i].first.c_str(), observed_[i].second.c_str());
    std::printf("}, \"metrics\": ");
    printObject(metrics_);
    std::printf(", \"layers\": ");
    printObject(layers_);
    std::printf("}\n");
    std::fflush(stdout);
  }

 private:
  static void printObject(
      const std::vector<std::pair<std::string, double>>& entries) {
    std::printf("{");
    for (std::size_t i = 0; i < entries.size(); ++i)
      std::printf("%s\"%s\": %.17g", i == 0 ? "" : ", ",
                  entries[i].first.c_str(), entries[i].second);
    std::printf("}");
  }

  Reference reference_;
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::pair<std::string, double>> layers_;
  std::vector<std::pair<std::string, std::string>> observed_;
  std::vector<std::string> mismatches_;
};

// Real peak RSS of this process and of its waited-for children (the
// fleet workers), in MiB.
double peakRssMiB() {
  struct rusage self {};
  struct rusage children {};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) *
         1024.0 / kMiB;
}

// FNV-1a over the sorted-distinct test-case union, as sde_fleet prints it.
std::uint64_t testcaseDigest(const std::vector<std::string>& testcases) {
  std::uint64_t digest = 14695981039346656037ull;
  for (const std::string& testcase : testcases) {
    for (const char c : testcase) {
      digest ^= static_cast<unsigned char>(c);
      digest *= 1099511628211ull;
    }
    digest *= 1099511628211ull;  // record separator
  }
  return digest;
}

// --- Per-layer accounting --------------------------------------------------------

struct PhaseTimes {
  std::array<double, obs::kNumPhases> seconds{};
  std::array<std::uint64_t, obs::kNumPhases> calls{};
  std::uint64_t instructions = 0;

  void add(const obs::PhaseProfile& profile) {
    for (std::size_t i = 0; i < obs::kNumPhases; ++i) {
      seconds[i] += static_cast<double>(profile.phases[i].nanos) * 1e-9;
      calls[i] += profile.phases[i].calls;
    }
    for (const auto& op : profile.opcodes)
      if (op.name.rfind("op.", 0) == 0) instructions += op.count;
  }
  [[nodiscard]] double s(obs::Phase phase) const {
    return seconds[static_cast<std::size_t>(phase)];
  }
  [[nodiscard]] std::uint64_t n(obs::Phase phase) const {
    return calls[static_cast<std::size_t>(phase)];
  }
};

// Everything a traced job measures inside (and right after) Engine::run.
struct EngineLayers {
  double runS = 0;
  PhaseTimes inRun;           // profile at the end of Engine::run
  double solverTotalS = 0;    // kSolver, including post-run test generation
  double samplerS = 0;
  std::uint64_t samplerCalls = 0;
  double checkpointS = 0;     // checkpoint sink: Engine::checkpoint + write
  std::uint64_t checkpoints = 0;
  std::uint64_t checkpointBytes = 0;

  // Engine::run time that no phase, the sampler or the checkpoint sink
  // covers. kCheckpoint self-time lies inside the sink time.
  [[nodiscard]] double residualS() const {
    return runS - inRun.s(obs::Phase::kInterp) -
           inRun.s(obs::Phase::kMapping) - inRun.s(obs::Phase::kScheduler) -
           inRun.s(obs::Phase::kSolver) - checkpointS - samplerS;
  }
};

struct SolverCounts {
  std::uint64_t queries = 0;
  std::uint64_t enumerations = 0;
  std::uint64_t exactQueries = 0;
  std::uint64_t exactHits = 0;

  void add(const support::StatsRegistry& stats) {
    queries += stats.get("solver.queries");
    enumerations += stats.get("solver.enum_runs");
    exactQueries += stats.get("solver.layer.exact_cache.queries");
    exactHits += stats.get("solver.layer.exact_cache.hits");
  }
};

double ratio(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

void engineLayerMetrics(Job& job, const EngineLayers& e, std::uint64_t events,
                        std::uint64_t states, std::uint64_t groups) {
  using obs::Phase;
  job.layer("vm.self_s", e.inRun.s(Phase::kInterp));
  job.layer("vm.handlers", static_cast<double>(e.inRun.n(Phase::kInterp)));
  job.layer("vm.instructions", static_cast<double>(e.inRun.instructions));
  job.layer("mapper.self_s", e.inRun.s(Phase::kMapping));
  job.layer("mapper.calls", static_cast<double>(e.inRun.n(Phase::kMapping)));
  job.layer("mapper.groups", static_cast<double>(groups));
  job.layer("scheduler.self_s", e.inRun.s(Phase::kScheduler));
  job.layer("scheduler.calls",
            static_cast<double>(e.inRun.n(Phase::kScheduler)));
  job.layer("sampler.s", e.samplerS);
  job.layer("sampler.calls", static_cast<double>(e.samplerCalls));
  job.layer("engine.run_s", e.runS);
  job.layer("engine.events", static_cast<double>(events));
  job.layer("engine.states", static_cast<double>(states));
  job.layer("engine.residual_s", e.residualS());
  job.layer("solver.self_s", e.solverTotalS);
  job.layer("snapshot.checkpoint_s", e.checkpointS);
  job.layer("snapshot.checkpoints", static_cast<double>(e.checkpoints));
  job.layer("snapshot.checkpoint_bytes",
            static_cast<double>(e.checkpointBytes));
}

void solverLayerMetrics(Job& job, const SolverCounts& c,
                        double sharedHitRatio) {
  job.layer("solver.queries", static_cast<double>(c.queries));
  job.layer("solver.exact_cache.hit_ratio", ratio(c.exactHits, c.exactQueries));
  job.layer("solver.enumerations", static_cast<double>(c.enumerations));
  job.layer("solver.shared_hit_ratio", sharedHitRatio);
}

// The per-layer table: the first block's rows sum to engine.run_s.
void printTable(const char* title, const EngineLayers& e,
                const std::vector<std::pair<std::string, double>>& after) {
  using obs::Phase;
  const auto row = [&](const char* name, double seconds, std::uint64_t calls) {
    std::printf("  %-26s %10.4f %7.1f%% %12llu\n", name, seconds,
                e.runS > 0 ? 100.0 * seconds / e.runS : 0.0,
                static_cast<unsigned long long>(calls));
  };
  std::printf("%s\n  %-26s %10s %8s %12s\n", title, "layer", "seconds",
              "share", "calls");
  row("vm.self_s", e.inRun.s(Phase::kInterp), e.inRun.n(Phase::kInterp));
  row("mapper.self_s", e.inRun.s(Phase::kMapping), e.inRun.n(Phase::kMapping));
  row("scheduler.self_s", e.inRun.s(Phase::kScheduler),
      e.inRun.n(Phase::kScheduler));
  row("solver.self_s (in run)", e.inRun.s(Phase::kSolver),
      e.inRun.n(Phase::kSolver));
  row("snapshot.checkpoint_s", e.checkpointS, e.checkpoints);
  row("sampler.s", e.samplerS, e.samplerCalls);
  row("engine.residual_s", e.residualS(), 0);
  std::printf("  %-26s %10.4f\n", "= engine.run_s", e.runS);
  std::printf("after Engine::run\n");
  for (const auto& [name, seconds] : after)
    std::printf("  %-26s %10.4f\n", name.c_str(), seconds);
}

// --- Set-up ----------------------------------------------------------------------

// What a user pays before the first call into Engine::run or runFleet:
// the scenario (program, network plan, engine) and, for the fleet, the
// partition plan, as runCollectFleet builds them. Timed --setups times;
// the median counts.
void runSetup(const Options& options, Job& job) {
  const Workload& w = *options.workload;
  const auto config = scenarioConfig(w, options.horizon);
  std::vector<double> setups;
  for (unsigned i = 0; i < options.setups; ++i) {
    const auto start = Clock::now();
    trace::CollectScenario scenario(config);
    const PartitionPlan plan =
        w.fleet ? planPartitions(
                      scenario.partitionVariables(w.partitionVariables))
                : PartitionPlan{};
    setups.push_back(since(start));
  }
  job.metric("setup_s", median(setups));
}

// --- Grid workloads ----------------------------------------------------------------

void checkGrid(Job& job, const Workload& w, RunOutcome outcome,
               const trace::ScenarioResult& summary, std::uint64_t dscenarios) {
  job.require(outcome == RunOutcome::kCompleted, "completed outcome");
  job.observe("states", summary.states);
  job.observe("events", summary.events);
  job.observe("dscenarios", dscenarios);
  job.observe("sim_peak_bytes", summary.peakMemoryBytes);
  job.observe("dup_strict", summary.duplicatesStrict.duplicateStates);
  if (w.mapper == MapperKind::kSds)
    job.require(summary.duplicatesStrict.duplicateFree(),
                "SDS has no strict duplicates");
}

void runGrid(const Options& options, Job& job) {
  const Workload& w = *options.workload;
  const auto config = scenarioConfig(w, options.horizon);
  trace::CollectScenario scenario(config);
  Engine& engine = scenario.engine();

  obs::PhaseProfiler profiler;
  trace::MetricsRecorder recorder;
  EngineLayers layers;
  if (options.traced) {
    engine.setProfiler(&profiler);
    const Engine::Sampler inner = recorder.sampler();
    engine.setSampler([&layers, inner](const Engine& e) {
      const auto start = Clock::now();
      inner(e);
      layers.samplerS += since(start);
      ++layers.samplerCalls;
    });
  }

  const auto start = Clock::now();
  const RunOutcome outcome = engine.run(config.simulationTime);
  const double exploreS = since(start);
  const auto reportStart = Clock::now();
  const trace::ScenarioResult summary = trace::summarize(engine, outcome);
  const double reportS = since(reportStart);
  const double wallS = since(start);

  const std::uint64_t dscenarios = countScenarios(engine.mapper());
  job.metric("wall_s", wallS);
  job.metric("explore_s", exploreS);
  // One test case per dscenario: the grid workloads count the test cases
  // their exploration covers without rendering them.
  job.metric("testcases_per_s", static_cast<double>(dscenarios) / wallS);
  job.metric("peak_rss_mb", peakRssMiB());
  job.metric("sim_peak_mb", static_cast<double>(summary.peakMemoryBytes) / kMiB);
  checkGrid(job, w, outcome, summary, dscenarios);

  if (!options.traced) return;
  layers.runS = exploreS;
  layers.inRun.add(profiler.profile());
  layers.solverTotalS = layers.inRun.s(obs::Phase::kSolver);
  engineLayerMetrics(job, layers, summary.events, summary.states,
                     summary.groups);
  SolverCounts solver;
  solver.add(engine.solverStats());
  solverLayerMetrics(job, solver, 0.0);
  job.layer("report.s", reportS);
  job.layer("report.dup_strict",
            static_cast<double>(summary.duplicatesStrict.duplicateStates));
  job.layer("report.dup_content",
            static_cast<double>(summary.duplicatesContent.duplicateStates));
  for (const char* name :
       {"testgen.s", "testgen.cases", "testgen.scenarios_owned",
        "snapshot.done_write_s", "snapshot.done_bytes", "fleet.wall_s",
        "fleet.overhead_s", "fleet.steals", "fleet.worker_deaths"})
    job.layer(name, 0.0);

  const std::string title = std::string(w.name) + " at horizon " +
                            std::to_string(options.horizon) +
                            ": engine.run_s by layer";
  printTable(title.c_str(), layers, {{"report.s", reportS}});
}

// --- Fleet workload ------------------------------------------------------------------

struct FleetRun {
  FleetResult fleet;
  double wallS = 0;
  std::uint64_t testcaseDigest = 0;
};

FleetRun runFleetOnce(const Options& options, const fs::path& dir) {
  const Workload& w = *options.workload;
  FleetConfig fleetConfig;
  fleetConfig.processes = w.processes;
  fleetConfig.collectTestcases = true;
  fleetConfig.shmQueryCache = true;
  fleetConfig.checkpointDir = dir.string();
  FleetRun run;
  const auto start = Clock::now();
  run.fleet = trace::runCollectFleet(scenarioConfig(w, options.horizon),
                                     fleetConfig, w.partitionVariables);
  run.testcaseDigest = testcaseDigest(run.fleet.result.testcases);
  run.wallS = since(start);
  return run;
}

void checkFleet(Job& job, const FleetRun& run) {
  const ParallelResult& result = run.fleet.result;
  job.require(!run.fleet.suspended && result.outcome == RunOutcome::kCompleted,
              "completed outcome");
  job.require(run.fleet.workerDeaths == 0 && run.fleet.respawns == 0,
              "no worker death or respawn");
  job.require(result.testcases.size() == result.totalScenariosOwned,
              "test cases == owned dscenarios");
  job.observe("fingerprint_digest", hex(result.fingerprintDigest()));
  job.observe("testcase_digest", hex(run.testcaseDigest));
  job.observe("testcases", result.testcases.size());
  job.observe("owned_dscenarios", result.totalScenariosOwned);
}

// Replays the fleet's jobs one after another in this process with the
// building blocks a fleet worker calls, timing each layer.
void replayFleet(const Options& options, const fs::path& dir,
                 const FleetRun& fleetRun, Job& job) {
  const Workload& w = *options.workload;
  const auto config = scenarioConfig(w, options.horizon);
  const auto replayStart = Clock::now();
  trace::CollectScenario scenario(config);
  const PartitionPlan plan =
      planPartitions(scenario.partitionVariables(w.partitionVariables));
  const EngineFactory factory = scenario.engineFactory();
  ParallelConfig pc;
  pc.horizon = options.horizon;
  pc.collectTestcases = true;
  const std::uint64_t checkpointEvery = FleetConfig{}.checkpointEveryEvents;

  EngineLayers layers;
  SolverCounts solver;
  double testgenS = 0;
  double doneWriteS = 0;
  std::uint64_t doneBytes = 0;
  std::uint64_t events = 0;
  std::uint64_t states = 0;
  std::uint64_t groups = 0;
  ParallelResult result;
  result.jobs.resize(plan.jobs.size());
  fs::create_directories(dir);
  for (const PartitionJob& partition : plan.jobs) {
    std::unique_ptr<Engine> engine = factory(partition);
    engine->setDecisionFilter(std::unordered_map<std::string, bool>(
        partition.forced.begin(), partition.forced.end()));
    obs::PhaseProfiler profiler;
    engine->setProfiler(&profiler);
    const fs::path ckpt = snapshot::jobCheckpointPath(dir, partition.id);
    engine->setCheckpointSink(
        [&](const Engine& e) {
          const auto start = Clock::now();
          snapshot::atomicWriteFile(
              ckpt, [&](std::ostream& os) { e.checkpoint(os); });
          layers.checkpointS += since(start);
          ++layers.checkpoints;
          layers.checkpointBytes += fs::file_size(ckpt);
        },
        checkpointEvery);

    const auto runStart = Clock::now();
    const RunOutcome outcome = engine->run(pc.horizon);
    layers.runS += since(runStart);
    layers.inRun.add(profiler.profile());

    // The profiler stays attached, so test generation's solver calls
    // land in kSolver too.
    const auto testgenStart = Clock::now();
    JobResult jobResult = collectJobResult(*engine, partition, pc, outcome);
    testgenS += since(testgenStart);
    PhaseTimes whole;
    whole.add(profiler.profile());
    layers.solverTotalS += whole.s(obs::Phase::kSolver);

    const fs::path done = snapshot::jobDonePath(dir, partition.id);
    const auto writeStart = Clock::now();
    snapshot::writeJobResultFile(done, jobResult);
    doneWriteS += since(writeStart);
    doneBytes += fs::file_size(done);
    std::error_code ec;
    fs::remove(ckpt, ec);  // superseded by the .done file, as in a worker

    solver.add(engine->solverStats());
    events += jobResult.events;
    states += jobResult.states;
    groups += jobResult.groups;
    result.jobs[partition.id] = std::move(jobResult);
  }
  const auto mergeStart = Clock::now();
  finalizeParallelResult(result, plan, pc);
  const std::uint64_t replayTestcaseDigest = testcaseDigest(result.testcases);
  const double mergeS = since(mergeStart);
  const double replayBusyS = since(replayStart);

  job.require(result.fingerprintDigest() ==
                  fleetRun.fleet.result.fingerprintDigest(),
              "replay fingerprint digest == fleet digest");
  job.require(replayTestcaseDigest == fleetRun.testcaseDigest,
              "replay test-case digest == fleet digest");

  engineLayerMetrics(job, layers, events, states, groups);
  const support::StatsRegistry& fleetStats = fleetRun.fleet.result.stats;
  solverLayerMetrics(
      job, solver,
      ratio(fleetStats.get("solver.layer.shared_cache.hits"),
            fleetStats.get("solver.layer.shared_cache.queries")));
  job.layer("report.s", 0.0);
  job.layer("report.dup_strict", 0.0);
  job.layer("report.dup_content", 0.0);
  job.layer("testgen.s", testgenS);
  job.layer("testgen.cases", static_cast<double>(result.testcases.size()));
  job.layer("testgen.scenarios_owned",
            static_cast<double>(result.totalScenariosOwned));
  job.layer("snapshot.done_write_s", doneWriteS);
  job.layer("snapshot.done_bytes", static_cast<double>(doneBytes));
  job.layer("fleet.wall_s", fleetRun.wallS);
  job.layer("fleet.overhead_s",
            fleetRun.wallS - replayBusyS / w.processes);
  job.layer("fleet.steals", static_cast<double>(fleetRun.fleet.steals));
  job.layer("fleet.worker_deaths",
            static_cast<double>(fleetRun.fleet.workerDeaths));

  const std::string title = std::string(w.name) + " at horizon " +
                            std::to_string(options.horizon) + ", " +
                            std::to_string(plan.jobs.size()) +
                            " jobs replayed: engine.run_s by layer";
  printTable(title.c_str(), layers,
             {{"testgen.s", testgenS},
              {"snapshot.done_write_s", doneWriteS},
              {"merge (finalize + digest)", mergeS},
              {"replay busy", replayBusyS},
              {"fleet.wall_s", fleetRun.wallS}});
}

// Explores the fleet's jobs once more, one after another in this process,
// with the decision filter a worker sets but without its durable
// checkpoint sink, and returns the time inside Engine::run.
// In the fleet that time is mostly the checkpoint writes: each replaces
// the previous checkpoint file, which on ext4 waits for the disk, so it
// follows the disk's latency. wall_s and the snapshot.* layers keep that
// cost; explore_s is the exploration itself. It takes about 20 ms, so the
// jobs are explored kRepeats times and the median of the sums counts.
double exploreFleetJobs(const Options& options, const FleetRun& run,
                        Job& job) {
  constexpr unsigned kRepeats = 5;
  const Workload& w = *options.workload;
  trace::CollectScenario scenario(scenarioConfig(w, options.horizon));
  const PartitionPlan plan =
      planPartitions(scenario.partitionVariables(w.partitionVariables));
  const EngineFactory factory = scenario.engineFactory();
  const std::vector<JobResult>& fleetJobs = run.fleet.result.jobs;
  job.require(fleetJobs.size() == plan.jobs.size(),
              "fleet ran every planned job");
  std::vector<double> sums;
  for (unsigned repeat = 0; repeat < kRepeats; ++repeat) {
    double exploreS = 0;
    for (const PartitionJob& partition : plan.jobs) {
      std::unique_ptr<Engine> engine = factory(partition);
      engine->setDecisionFilter(std::unordered_map<std::string, bool>(
          partition.forced.begin(), partition.forced.end()));
      const auto start = Clock::now();
      const RunOutcome outcome = engine->run(options.horizon);
      exploreS += since(start);
      job.require(outcome == RunOutcome::kCompleted &&
                      partition.id < fleetJobs.size() &&
                      engine->numStates() == fleetJobs[partition.id].states &&
                      engine->eventsProcessed() ==
                          fleetJobs[partition.id].events,
                  "explored job == fleet job (outcome, states, events)");
    }
    sums.push_back(exploreS);
  }
  return median(sums);
}

void runFleetWorkload(const Options& options, Job& job) {
  const FleetRun run = runFleetOnce(options, options.workDir / "fleet");
  std::uint64_t simPeak = 0;
  for (const JobResult& jobResult : run.fleet.result.jobs)
    simPeak = std::max(simPeak, jobResult.memoryBytes);
  // Before the exploration below, which runs in this process.
  const double peakRss = peakRssMiB();
  job.metric("wall_s", run.wallS);
  // Time inside Engine::run, summed over the fleet's jobs explored again
  // without the checkpoint sink.
  job.metric("explore_s", exploreFleetJobs(options, run, job));
  job.metric("testcases_per_s",
             static_cast<double>(run.fleet.result.testcases.size()) / run.wallS);
  job.metric("peak_rss_mb", peakRss);
  // The largest job's simulated footprint at run end.
  job.metric("sim_peak_mb", static_cast<double>(simPeak) / kMiB);
  checkFleet(job, run);

  if (options.traced) replayFleet(options, options.workDir / "replay", run, job);
}

// --- Command line ---------------------------------------------------------------------

int usage() {
  std::fprintf(stderr,
               "usage: sde_perfbench --workload NAME --horizon T --work-dir "
               "DIR [--trace | --setups K] [--expect name=value]...\n");
  return 64;
}

std::optional<Options> parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--trace") {
      options.traced = true;
      continue;
    }
    if (value == nullptr) return std::nullopt;
    ++i;
    if (arg == "--workload") {
      for (const Workload& w : kWorkloads)
        if (std::strcmp(w.name, value) == 0) options.workload = &w;
      if (options.workload == nullptr) return std::nullopt;
    } else if (arg == "--horizon") {
      options.horizon = std::strtoull(value, nullptr, 10);
    } else if (arg == "--setups") {
      options.setups = static_cast<unsigned>(std::strtoul(value, nullptr, 10));
    } else if (arg == "--work-dir") {
      options.workDir = value;
    } else if (arg == "--expect") {
      const char* eq = std::strchr(value, '=');
      if (eq == nullptr) return std::nullopt;
      options.expect[std::string(value, eq)] = std::string(eq + 1);
    } else {
      return std::nullopt;
    }
  }
  if (options.workload == nullptr || options.horizon == 0 ||
      options.workDir.empty())
    return std::nullopt;
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> options = parse(argc, argv);
  if (!options) return usage();
  try {
    Job job(*options);
    if (options->setups > 0)
      runSetup(*options, job);
    else if (options->workload->fleet)
      runFleetWorkload(*options, job);
    else
      runGrid(*options, job);
    job.print();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sde_perfbench: %s\n", e.what());
    return 1;
  }
  // Skip tearing down the explored state graph: it is not part of any
  // measurement and costs seconds on the COW workload.
  std::_Exit(0);
}

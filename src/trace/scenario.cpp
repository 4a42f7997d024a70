#include "trace/scenario.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "snapshot/manifest.hpp"

namespace sde::trace {

namespace {

// The process's resident high-water mark (getrusage reports KiB). The
// kernel raises it lazily, so it can lag the resident bytes `now`; the
// mark is never below them.
std::uint64_t peakResidentBytes(std::uint64_t now) {
  rusage usage{};
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return now;
  return std::max(static_cast<std::uint64_t>(usage.ru_maxrss) * 1024, now);
}

}  // namespace

bool attachCheckpointing(Engine& engine, const std::filesystem::path& file,
                         bool resume, std::uint64_t everyEvents) {
  if (file.has_parent_path())
    std::filesystem::create_directories(file.parent_path());
  bool restored = false;
  if (resume && std::filesystem::exists(file)) {
    std::ifstream in(file, std::ios::binary);
    engine.restore(in);
    restored = true;
  }
  engine.setCheckpointSink(
      [file](const Engine& e) {
        snapshot::atomicWriteFile(
            file, [&](std::ostream& os) { e.checkpoint(os); });
      },
      everyEvents);
  return restored;
}

ScenarioResult summarize(Engine& engine, RunOutcome outcome) {
  ScenarioResult result;
  result.outcome = outcome;
  result.wallSeconds = engine.wallSeconds();
  result.states = engine.numStates();
  result.memoryBytes = engine.simulatedMemoryBytes();
  result.peakMemoryBytes = engine.stats().get("engine.peak_memory_bytes");
  result.groups = engine.mapper().numGroups();
  result.events = engine.eventsProcessed();
  result.packets = engine.stats().get("engine.packets");
  result.merges = engine.stats().get("engine.merges");
  result.loopSummaries = engine.stats().get("engine.loop_summaries");
  result.residentBytes = processResidentBytes();
  result.peakResidentBytes = peakResidentBytes(result.residentBytes);
  obs::ScopedPhase phase(engine.profiler(), obs::Phase::kReport);
  const DuplicateReports duplicates = findDuplicates(engine.states());
  result.duplicatesStrict = duplicates.strict;
  result.duplicatesContent = duplicates.content;
  return result;
}

CollectScenario::CollectScenario(CollectScenarioConfig config)
    : config_(std::move(config)), program_(rime::buildCollectApp(config_.app)) {
  net::Topology topology =
      net::Topology::grid(config_.gridWidth, config_.gridHeight);
  // Figure 9: sink in the top-left corner (node 0), source in the
  // bottom-right corner.
  const net::NodeId sink = 0;
  source_ = topology.numNodes() - 1;
  const net::RoutingTable routing = net::RoutingTable::towards(topology, sink);
  route_ = routing.path(source_);
  // §IV-A: "nodes on the data path towards the destination and their
  // neighbors should symbolically drop one packet".
  failureNodes_ = routing.pathAndNeighbors(topology, source_);
  bootGlobals_ =
      rime::collectBootGlobals(topology, routing, source_, config_.sendInterval);

  plan_ = std::make_unique<os::NetworkPlan>(topology);
  plan_->runEverywhere(program_);
  engine_ = makeEngine();
  engine_->setSampler(metrics_.sampler());
}

std::unique_ptr<Engine> CollectScenario::makeEngine() const {
  auto engine = std::make_unique<Engine>(*plan_, config_.mapper, config_.engine);
  for (const rime::BootAssignment& boot : bootGlobals_)
    engine->setBootGlobal(boot.node, boot.slot, boot.value);
  auto failures = std::make_unique<net::CompositeFailureModel>();
  if (config_.symbolicDrops)
    failures->add(std::make_unique<net::SymbolicDropModel>(
        failureNodes_, config_.maxDropsPerNode));
  if (config_.symbolicDuplicates)
    failures->add(std::make_unique<net::SymbolicDuplicateModel>(
        failureNodes_, config_.maxDropsPerNode));
  if (config_.symbolicReboots)
    failures->add(std::make_unique<net::SymbolicRebootModel>(
        failureNodes_, config_.maxDropsPerNode));
  engine->setFailureModel(std::move(failures));
  return engine;
}

std::vector<std::string> CollectScenario::partitionVariables(
    std::size_t maxVariables) const {
  std::vector<std::string> variables;
  if (!config_.symbolicDrops) return variables;
  // route_[0] is the source, which transmits but never receives data
  // packets — its drop decision would rarely be reached.
  for (std::size_t hop = 1;
       hop < route_.size() && variables.size() < maxVariables; ++hop) {
    variables.push_back("n" + std::to_string(route_[hop]) + "." +
                        net::SymbolicDropModel::kLabel + ".0");
  }
  return variables;
}

EngineFactory CollectScenario::engineFactory() const {
  return [this](const PartitionJob&) { return makeEngine(); };
}

ScenarioResult CollectScenario::run() {
  const RunOutcome outcome = engine_->run(config_.simulationTime);
  return summarize(*engine_, outcome);
}

FloodScenario::FloodScenario(FloodScenarioConfig config)
    : config_(std::move(config)), program_(rime::buildFloodApp()) {
  net::Topology topology =
      config_.fullMesh
          ? net::Topology::fullMesh(config_.nodes)
          : net::Topology::grid(
                static_cast<std::uint32_t>(std::lround(
                    std::sqrt(static_cast<double>(config_.nodes)))),
                static_cast<std::uint32_t>(std::lround(
                    std::sqrt(static_cast<double>(config_.nodes)))));
  const net::NodeId source = topology.numNodes() - 1;

  plan_ = std::make_unique<os::NetworkPlan>(topology);
  plan_->runEverywhere(program_);
  engine_ = std::make_unique<Engine>(*plan_, config_.mapper, config_.engine);

  for (const rime::BootAssignment& boot :
       rime::floodBootGlobals(topology, source, config_.sendInterval))
    engine_->setBootGlobal(boot.node, boot.slot, boot.value);

  if (config_.symbolicDrops) {
    std::vector<net::NodeId> everyone(topology.numNodes());
    for (net::NodeId n = 0; n < topology.numNodes(); ++n) everyone[n] = n;
    engine_->setFailureModel(std::make_unique<net::SymbolicDropModel>(
        everyone, config_.maxDropsPerNode));
  }
  engine_->setSampler(metrics_.sampler());
}

ScenarioResult FloodScenario::run() {
  const RunOutcome outcome = engine_->run(config_.simulationTime);
  return summarize(*engine_, outcome);
}

std::string encodeCollectScenarioSpec(const CollectScenarioConfig& config,
                                      std::size_t numPartitionVariables,
                                      bool collectTestcases) {
  std::ostringstream os;
  os << "collect/1"
     << " grid=" << config.gridWidth << "x" << config.gridHeight
     << " send=" << config.sendInterval << " sim=" << config.simulationTime
     << " mapper=" << mapperKindName(config.mapper)
     << " drops=" << (config.symbolicDrops ? 1 : 0)
     << " maxdrops=" << config.maxDropsPerNode
     << " dups=" << (config.symbolicDuplicates ? 1 : 0)
     << " reboots=" << (config.symbolicReboots ? 1 : 0)
     << " faildup=" << (config.app.failOnDuplicateSeqno ? 1 : 0)
     << " faillost=" << (config.app.failOnLostSeqno ? 1 : 0)
     << " latency=" << config.engine.linkLatency
     << " maxstates=" << config.engine.maxStates
     << " maxmem=" << config.engine.maxSimulatedMemoryBytes
     << " maxevents=" << config.engine.maxEvents
     << " sample=" << config.engine.sampleEveryEvents
     << " adaptive=" << (config.engine.adaptiveSampling ? 1 : 0)
     << " merge=" << (config.engine.mergeStates ? 1 : 0)
     << " loopsum=" << (config.engine.loopSummarize ? 1 : 0)
     << " vars=" << numPartitionVariables;
  if (collectTestcases) os << " testcases=1";
  return os.str();
}

std::optional<DecodedCollectSpec> decodeCollectScenarioSpec(
    const std::string& spec) {
  std::istringstream is(spec);
  std::string tag;
  is >> tag;
  if (tag != "collect/1") return std::nullopt;

  DecodedCollectSpec decoded;
  std::string token;
  while (is >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) return std::nullopt;
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    try {
      if (key == "grid") {
        const std::size_t x = value.find('x');
        if (x == std::string::npos) return std::nullopt;
        decoded.config.gridWidth =
            static_cast<std::uint32_t>(std::stoul(value.substr(0, x)));
        decoded.config.gridHeight =
            static_cast<std::uint32_t>(std::stoul(value.substr(x + 1)));
      } else if (key == "send") {
        decoded.config.sendInterval = std::stoull(value);
      } else if (key == "sim") {
        decoded.config.simulationTime = std::stoull(value);
      } else if (key == "mapper") {
        if (value == "COB")
          decoded.config.mapper = MapperKind::kCob;
        else if (value == "COW")
          decoded.config.mapper = MapperKind::kCow;
        else if (value == "SDS")
          decoded.config.mapper = MapperKind::kSds;
        else
          return std::nullopt;
      } else if (key == "drops") {
        decoded.config.symbolicDrops = value != "0";
      } else if (key == "maxdrops") {
        decoded.config.maxDropsPerNode =
            static_cast<std::uint32_t>(std::stoul(value));
      } else if (key == "dups") {
        decoded.config.symbolicDuplicates = value != "0";
      } else if (key == "reboots") {
        decoded.config.symbolicReboots = value != "0";
      } else if (key == "faildup") {
        decoded.config.app.failOnDuplicateSeqno = value != "0";
      } else if (key == "faillost") {
        decoded.config.app.failOnLostSeqno = value != "0";
      } else if (key == "latency") {
        decoded.config.engine.linkLatency = std::stoull(value);
      } else if (key == "maxstates") {
        decoded.config.engine.maxStates = std::stoull(value);
      } else if (key == "maxmem") {
        decoded.config.engine.maxSimulatedMemoryBytes = std::stoull(value);
      } else if (key == "maxevents") {
        decoded.config.engine.maxEvents = std::stoull(value);
      } else if (key == "sample") {
        decoded.config.engine.sampleEveryEvents = std::stoull(value);
      } else if (key == "adaptive") {
        decoded.config.engine.adaptiveSampling = value != "0";
      } else if (key == "merge") {
        decoded.config.engine.mergeStates = value != "0";
      } else if (key == "loopsum") {
        decoded.config.engine.loopSummarize = value != "0";
      } else if (key == "vars") {
        decoded.numPartitionVariables = std::stoull(value);
      } else if (key == "testcases") {
        decoded.collectTestcases = value != "0";
      } else {
        return std::nullopt;  // unknown key: not a spec this build wrote
      }
    } catch (const std::exception&) {
      return std::nullopt;  // malformed number
    }
  }
  return decoded;
}

PartitionedCollectResult runCollectPartitioned(
    const CollectScenarioConfig& config, ParallelConfig parallelConfig,
    std::size_t numPartitionVariables) {
  CollectScenario scenario(config);
  const PartitionPlan plan =
      planPartitions(scenario.partitionVariables(numPartitionVariables));
  if (parallelConfig.horizon == 0)
    parallelConfig.horizon = config.simulationTime;
  if (!parallelConfig.checkpointDir.empty() &&
      parallelConfig.scenarioSpec.empty())
    parallelConfig.scenarioSpec = encodeCollectScenarioSpec(
        config, numPartitionVariables, parallelConfig.collectTestcases);

  // One recorder per job, attached inside the factory: the vector is
  // pre-sized, so concurrent workers touch disjoint elements.
  std::vector<MetricsRecorder> recorders(plan.jobs.size());
  const EngineFactory base = scenario.engineFactory();
  const EngineFactory withMetrics =
      [&base, &recorders](const PartitionJob& job) {
        std::unique_ptr<Engine> engine = base(job);
        engine->setSampler(recorders[job.id].sampler());
        return engine;
      };

  PartitionedCollectResult result;
  result.result = runPartitioned(withMetrics, plan, parallelConfig);
  std::vector<std::vector<MetricSample>> series;
  series.reserve(recorders.size());
  for (const MetricsRecorder& recorder : recorders)
    series.push_back(recorder.samples());
  result.samples = stitchSamples(series);
  return result;
}

FleetResult runCollectFleet(const CollectScenarioConfig& config,
                            FleetConfig fleetConfig,
                            std::size_t numPartitionVariables) {
  CollectScenario scenario(config);
  const PartitionPlan plan =
      planPartitions(scenario.partitionVariables(numPartitionVariables));
  if (fleetConfig.horizon == 0) fleetConfig.horizon = config.simulationTime;
  if (fleetConfig.scenarioSpec.empty())
    fleetConfig.scenarioSpec = encodeCollectScenarioSpec(
        config, numPartitionVariables, fleetConfig.collectTestcases);
  return runFleet(scenario.engineFactory(), plan, fleetConfig);
}

}  // namespace sde::trace

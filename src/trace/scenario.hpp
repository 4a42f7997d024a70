// Ready-made evaluation scenarios — the harness layer benches, examples
// and integration tests share. CollectScenario is the paper's §IV setup:
// a w×h grid, a source in the bottom-right corner streaming data every
// second along a static route to the sink in the top-left corner, and
// symbolic packet drops on the data path and its radio neighbourhood.
#pragma once

#include <filesystem>
#include <memory>
#include <optional>
#include <string>

#include "rime/apps.hpp"
#include "sde/duplicates.hpp"
#include "sde/fleet.hpp"
#include "sde/parallel.hpp"
#include "trace/metrics.hpp"

namespace sde::trace {

struct ScenarioResult {
  RunOutcome outcome = RunOutcome::kCompleted;
  double wallSeconds = 0;
  std::uint64_t states = 0;
  std::uint64_t memoryBytes = 0;      // all-component footprint at run end
  std::uint64_t peakMemoryBytes = 0;  // engine.peak_memory_bytes high-water
  // Real memory next to the simulated meter: the process's resident
  // bytes at the end of the run, before the duplicate report
  // (/proc/self/statm), and its resident high-water mark (getrusage, and
  // never below the resident bytes: the kernel raises its mark lazily).
  // Both cover the whole process, so the mark of runs that share one is
  // cumulative. 0 where the platform does not tell.
  std::uint64_t residentBytes = 0;
  std::uint64_t peakResidentBytes = 0;
  std::uint64_t groups = 0;
  std::uint64_t events = 0;
  std::uint64_t packets = 0;
  std::uint64_t merges = 0;         // states absorbed at join points
  std::uint64_t loopSummaries = 0;  // timer iterations replayed summarily
  // Paper-model duplicates (packets distinguished by identity; §III-D:
  // zero for SDS) and content-model duplicates (the §III-D optimisation
  // headroom).
  DuplicateReport duplicatesStrict;
  DuplicateReport duplicatesContent;
};

// --- The paper's grid data-collection scenario (§IV-A) -----------------------
struct CollectScenarioConfig {
  std::uint32_t gridWidth = 5;
  std::uint32_t gridHeight = 5;
  // "send a data packet every second", "simulation time is 10 seconds":
  // we use 1000 virtual-time units per second.
  std::uint64_t sendInterval = 1000;
  std::uint64_t simulationTime = 10000;
  MapperKind mapper = MapperKind::kSds;
  bool symbolicDrops = true;        // the paper's failure configuration
  std::uint32_t maxDropsPerNode = 1;
  bool symbolicDuplicates = false;  // further failures (§IV-A)
  bool symbolicReboots = false;
  rime::CollectOptions app;
  EngineConfig engine;
};

class CollectScenario {
 public:
  explicit CollectScenario(CollectScenarioConfig config);

  // Runs to config.simulationTime (idempotent on repeat calls).
  ScenarioResult run();

  [[nodiscard]] Engine& engine() { return *engine_; }
  [[nodiscard]] const MetricsRecorder& metrics() const { return metrics_; }
  [[nodiscard]] net::NodeId source() const { return source_; }
  [[nodiscard]] net::NodeId sink() const { return 0; }

  // Partition-variable candidates for this scenario: the first drop
  // decision ("n<node>.netdrop.0") of each data-path node, hop order
  // from the source — decisions that fire early on almost every path,
  // which keeps the re-explored (undecided) overlap between partition
  // jobs small. At most `maxVariables`; empty without symbolic drops.
  [[nodiscard]] std::vector<std::string> partitionVariables(
      std::size_t maxVariables) const;

  // Thread-safe factory building an identically configured engine per
  // partition job (same plan, boot globals, failure models; no sampler
  // — the partitioned runners attach their own). `this` must outlive
  // every factory call.
  [[nodiscard]] EngineFactory engineFactory() const;

 private:
  [[nodiscard]] std::unique_ptr<Engine> makeEngine() const;

  CollectScenarioConfig config_;
  vm::Program program_;
  std::unique_ptr<os::NetworkPlan> plan_;
  std::unique_ptr<Engine> engine_;
  MetricsRecorder metrics_;
  net::NodeId source_ = 0;
  std::vector<net::NodeId> route_;  // source -> sink, inclusive
  std::vector<net::NodeId> failureNodes_;
  std::vector<rime::BootAssignment> bootGlobals_;
};

// --- Flooding (the adversarial case, §IV-C) ----------------------------------
struct FloodScenarioConfig {
  std::uint32_t nodes = 4;
  bool fullMesh = true;  // false: grid of nodes (must be a square count)
  std::uint64_t sendInterval = 1000;
  std::uint64_t simulationTime = 3000;
  MapperKind mapper = MapperKind::kSds;
  bool symbolicDrops = true;
  std::uint32_t maxDropsPerNode = 1;
  EngineConfig engine;
};

class FloodScenario {
 public:
  explicit FloodScenario(FloodScenarioConfig config);
  ScenarioResult run();

  [[nodiscard]] Engine& engine() { return *engine_; }
  [[nodiscard]] const MetricsRecorder& metrics() const { return metrics_; }

 private:
  FloodScenarioConfig config_;
  vm::Program program_;
  std::unique_ptr<os::NetworkPlan> plan_;
  std::unique_ptr<Engine> engine_;
  MetricsRecorder metrics_;
};

// Shared summary extraction.
[[nodiscard]] ScenarioResult summarize(Engine& engine, RunOutcome outcome);

// --- Single-engine durable runs ----------------------------------------------
// Attaches periodic checkpointing of `engine` to `file` (atomic
// temp-file + rename writes, cadence in processed events, plus the
// final checkpoint a resource-cap abort triggers) and, when `resume` is
// set and the file exists, restores the engine from it first — the
// engine must still be fresh (not yet run). Returns true if a
// checkpoint was restored; throws snapshot::SnapshotError on a corrupt
// or incompatible file. Backs the benches' --checkpoint-dir/--resume
// flags.
bool attachCheckpointing(Engine& engine, const std::filesystem::path& file,
                         bool resume, std::uint64_t everyEvents = 4096);

// --- Partitioned execution of the collect scenario ---------------------------
struct PartitionedCollectResult {
  ParallelResult result;
  // Per-job metric series stitched into one virtual-time-ordered
  // timeline (see stitchSamples).
  std::vector<MetricSample> samples;
};

// Runs the collect scenario partitioned over `numPartitionVariables`
// drop decisions (2^n jobs) on parallelConfig.workers threads. A zero
// parallelConfig.horizon defaults to config.simulationTime. When
// parallelConfig.checkpointDir is set and no scenarioSpec was provided,
// the encoded spec of (config, numPartitionVariables,
// parallelConfig.collectTestcases) is recorded in the run manifest,
// making the directory self-describing.
[[nodiscard]] PartitionedCollectResult runCollectPartitioned(
    const CollectScenarioConfig& config, ParallelConfig parallelConfig,
    std::size_t numPartitionVariables);

// Runs the collect scenario as a multi-process fleet (sde/fleet.hpp)
// over `numPartitionVariables` drop decisions. A zero
// fleetConfig.horizon defaults to config.simulationTime, and the
// encoded scenario spec (with fleetConfig.collectTestcases) is recorded
// in the run manifest so sde_fleet can resume the directory on its own.
// Unlike runCollectPartitioned, no metric series is collected — the
// fleet workers own the engine sampler for their heartbeat and suspend
// handling.
[[nodiscard]] FleetResult runCollectFleet(const CollectScenarioConfig& config,
                                          FleetConfig fleetConfig,
                                          std::size_t numPartitionVariables);

// --- Durable-run scenario codec ----------------------------------------------
// Renders a CollectScenarioConfig (plus the partition-variable count and
// whether the run generates test cases) as the opaque scenario spec
// recorded in a run manifest, and parses it back, so `sde_checkpoint
// resume` and `sde_fleet resume` can rebuild the identical run from the
// checkpoint directory alone. The codec covers every field that
// influences the explored state space or the jobs' results; encode/decode
// round-trips exactly. Test generation is recorded only when on, so the
// spec of a run without test cases reads as it always has. Because a
// resume compares specs, one that asks for the other test-case setting
// throws snapshot::SnapshotError instead of mixing .done files made with
// and without test cases.
[[nodiscard]] std::string encodeCollectScenarioSpec(
    const CollectScenarioConfig& config, std::size_t numPartitionVariables,
    bool collectTestcases = false);

struct DecodedCollectSpec {
  CollectScenarioConfig config;
  std::size_t numPartitionVariables = 0;
  bool collectTestcases = false;
};
// nullopt if `spec` is not an encoded collect scenario (foreign or
// hand-edited manifest).
[[nodiscard]] std::optional<DecodedCollectSpec> decodeCollectScenarioSpec(
    const std::string& spec);

}  // namespace sde::trace

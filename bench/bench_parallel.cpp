// E14 — parallel dscenario execution (§VI): wall-clock and work-split
// behaviour of the partitioned runner on the Figure 10 collect scenario.
//
// For each mapper the bench runs the legacy monolithic engine once,
// then the partitioned fleet at 1/2/4/8 workers over the same partition
// plan, asserting the merged result digest is identical across worker
// counts and reporting speedup vs the legacy run. Two effects compose:
//  - work splitting: each job explores a pruned slice of the tree, and
//    state populations (hence per-event mapper and fork costs) shrink
//    superlinearly with the slice — visible even on one core;
//  - thread scaling: on a multi-core host the jobs overlap in time. On
//    a single-core host (CI containers) wall-clock speedup at >1
//    workers collapses to the work-splitting term alone.
//
// Usage: bench_parallel [--nodes 25|49|100] [--time T] [--vars B]
//                       [--mapper sds|cow|all] [--fleet N]
//
// With --fleet N the bench additionally runs the multi-process fleet
// (sde/fleet.hpp) at N worker processes over the same plan — the
// threads-vs-processes comparison row. The fleet digest must equal the
// thread rows' (process isolation and the shm query cache are
// unobservable); its wall-clock includes fork/coordination overhead,
// which is the honest price of crash isolation.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench_args.hpp"
#include "sde/explode.hpp"
#include "sde/fleet.hpp"
#include "trace/scenario.hpp"
#include "trace/table.hpp"

namespace {

constexpr const char* kUsage =
    "bench_parallel [--nodes 25|49|100] [--time T] [--vars B] "
    "[--mapper sds|cow|all] [--fleet N]";

struct Options {
  std::uint32_t nodes = 49;
  std::uint64_t simulationTime = 5000;
  std::size_t vars = 2;
  std::string mapper = "all";
  unsigned fleet = 0;  // 0 = no fleet row
};

Options parseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&] {
      return sde::bench::flagNumber(argc, argv, i, kUsage);
    };
    const auto text = [&] {
      return sde::bench::flagValue(argc, argv, i, kUsage);
    };
    if (arg == "--nodes")
      options.nodes = static_cast<std::uint32_t>(next());
    else if (arg == "--time")
      options.simulationTime = next();
    else if (arg == "--vars")
      options.vars = static_cast<std::size_t>(next());
    else if (arg == "--mapper")
      options.mapper = text();
    else if (arg == "--fleet")
      options.fleet = static_cast<unsigned>(next());
    else
      sde::bench::usageError(kUsage, arg.c_str());
  }
  return options;
}

// Makespan of the per-job engine times on `workers` cores under an LPT
// schedule — the wall-clock a host with that many free cores would see.
// On a single-core CI host the measured wall-clock degenerates to the
// sum of job times, so this is the honest thread-scaling figure.
double criticalPathSeconds(std::vector<double> jobSeconds, unsigned workers) {
  std::sort(jobSeconds.begin(), jobSeconds.end(), std::greater<>());
  std::vector<double> load(std::max(1u, workers), 0.0);
  for (const double seconds : jobSeconds)
    *std::min_element(load.begin(), load.end()) += seconds;
  return *std::max_element(load.begin(), load.end());
}

std::uint32_t sideOf(std::uint32_t nodes) {
  switch (nodes) {
    case 25:
      return 5;
    case 49:
      return 7;
    case 100:
      return 10;
    default:
      std::fprintf(stderr, "unsupported node count %u (use 25/49/100)\n",
                   nodes);
      std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sde;
  const Options options = parseArgs(argc, argv);
  const std::uint32_t side = sideOf(options.nodes);

  std::vector<MapperKind> mappers;
  if (options.mapper == "sds")
    mappers = {MapperKind::kSds};
  else if (options.mapper == "cow")
    mappers = {MapperKind::kCow};
  else if (options.mapper == "all")
    mappers = {MapperKind::kSds, MapperKind::kCow};
  else {
    std::fprintf(stderr, "unknown mapper '%s' (use sds/cow/all)\n",
                 options.mapper.c_str());
    return 1;
  }

  std::printf("=== Parallel execution, %u-node scenario (grid %ux%u, %llu "
              "time units, %zu partition vars requested; host has %u "
              "hardware threads) ===\n",
              options.nodes, side, side,
              static_cast<unsigned long long>(options.simulationTime),
              options.vars, std::thread::hardware_concurrency());

  for (const MapperKind kind : mappers) {
    trace::CollectScenarioConfig config;
    config.gridWidth = side;
    config.gridHeight = side;
    config.simulationTime = options.simulationTime;
    config.mapper = kind;

    // Legacy baseline: one monolithic engine over the full tree.
    trace::CollectScenario legacy(config);
    const trace::ScenarioResult base = legacy.run();
    // The scenario may supply fewer variables than requested (the route
    // only has so many hops); report what the plan actually uses.
    const std::size_t actualVars = legacy.partitionVariables(options.vars).size();

    trace::TextTable table({"Config", "Outcome", "Wall", "Speedup",
                            "Critical path", "CP speedup", "States",
                            "Owned scenarios", "Digest"});
    table.addRow({"legacy", std::string(runOutcomeName(base.outcome)),
                  trace::formatDuration(base.wallSeconds), "1.00x",
                  trace::formatDuration(base.wallSeconds), "1.00x",
                  trace::formatCount(base.states),
                  trace::formatCount(countScenarios(legacy.engine().mapper())),
                  "-"});

    std::uint64_t digest = 0;
    bool digestsAgree = true;
    std::vector<double> sequentialJobSeconds;
    for (const unsigned workers : {1u, 2u, 4u, 8u}) {
      ParallelConfig parallel;
      parallel.workers = workers;
      // Fingerprint extraction enumerates every owned dscenario (~1M at
      // 7x7) which the legacy baseline never does; skip it so the table
      // compares engine work. Ownership counting stays exact (it is
      // pure arithmetic over the per-node choice lists) and the digest
      // still covers per-job state/event/group/owned counts and stats.
      parallel.collectStateFingerprints = false;
      parallel.collectScenarioFingerprints = false;
      const trace::PartitionedCollectResult run =
          trace::runCollectPartitioned(config, parallel, options.vars);
      const ParallelResult& result = run.result;
      if (workers == 1)
        digest = result.fingerprintDigest();
      else if (result.fingerprintDigest() != digest)
        digestsAgree = false;

      // Per-job times from the sequential run only: with more workers
      // than cores the jobs time-slice, inflating each job's measured
      // wall time even though the total work is unchanged.
      if (workers == 1)
        for (const JobResult& job : result.jobs)
          sequentialJobSeconds.push_back(job.wallSeconds);
      const double critical =
          criticalPathSeconds(sequentialJobSeconds, workers);

      char label[32];
      std::snprintf(label, sizeof label, "%u worker%s", workers,
                    workers == 1 ? "" : "s");
      char speedup[32];
      std::snprintf(speedup, sizeof speedup, "%.2fx",
                    base.wallSeconds / result.wallSeconds);
      char cpSpeedup[32];
      std::snprintf(cpSpeedup, sizeof cpSpeedup, "%.2fx",
                    base.wallSeconds / critical);
      char digestHex[32];
      std::snprintf(digestHex, sizeof digestHex, "%016llx",
                    static_cast<unsigned long long>(
                        result.fingerprintDigest()));
      table.addRow({label, std::string(runOutcomeName(result.outcome)),
                    trace::formatDuration(result.wallSeconds), speedup,
                    trace::formatDuration(critical), cpSpeedup,
                    trace::formatCount(result.totalStates),
                    trace::formatCount(result.totalScenariosOwned), digestHex});
    }

    // Threads-vs-processes: the same plan as a multi-process fleet.
    std::uint64_t sharedHits = 0;
    if (options.fleet > 0) {
      namespace fs = std::filesystem;
      const fs::path dir =
          fs::temp_directory_path() /
          ("sde_bench_fleet_" + std::to_string(static_cast<long>(::getpid())));
      fs::remove_all(dir);
      FleetConfig fleet;
      fleet.processes = options.fleet;
      fleet.collectStateFingerprints = false;
      fleet.collectScenarioFingerprints = false;
      fleet.checkpointDir = dir.string();
      const FleetResult run =
          trace::runCollectFleet(config, fleet, options.vars);
      sharedHits = run.result.stats.get("solver.layer.shared_cache.hits");
      if (run.result.fingerprintDigest() != digest) digestsAgree = false;

      char label[40];
      std::snprintf(label, sizeof label, "%u procs (fleet)", options.fleet);
      char speedup[32];
      std::snprintf(speedup, sizeof speedup, "%.2fx",
                    base.wallSeconds / run.result.wallSeconds);
      const double critical =
          criticalPathSeconds(sequentialJobSeconds, options.fleet);
      char cpSpeedup[32];
      std::snprintf(cpSpeedup, sizeof cpSpeedup, "%.2fx",
                    base.wallSeconds / critical);
      char digestHex[32];
      std::snprintf(digestHex, sizeof digestHex, "%016llx",
                    static_cast<unsigned long long>(
                        run.result.fingerprintDigest()));
      table.addRow({label, std::string(runOutcomeName(run.result.outcome)),
                    trace::formatDuration(run.result.wallSeconds), speedup,
                    trace::formatDuration(critical), cpSpeedup,
                    trace::formatCount(run.result.totalStates),
                    trace::formatCount(run.result.totalScenariosOwned),
                    digestHex});
      fs::remove_all(dir);
    }

    std::printf("--- %s (%zu partition vars -> %zu jobs) ---\n%s",
                std::string(mapperKindName(kind)).c_str(), actualVars,
                static_cast<std::size_t>(1) << actualVars,
                table.render().c_str());
    std::printf("merged digests %s across worker counts%s\n",
                digestsAgree ? "IDENTICAL" : "DIFFER (BUG)",
                options.fleet > 0 ? " and the process fleet" : "");
    if (options.fleet > 0)
      std::printf("fleet shm query cache: %llu cross-process hits\n",
                  static_cast<unsigned long long>(sharedHits));
    std::printf("\n");
    if (!digestsAgree) return 1;
  }

  std::printf(
      "Interpretation: 'Speedup' is measured wall-clock; on a single-core "
      "host it only shows the work-splitting term (pruned per-job trees, "
      "smaller state populations). 'CP speedup' is the critical path of "
      "the measured per-job engine times scheduled on that many cores — "
      "the wall-clock a host with free cores would see.\n");
  return 0;
}

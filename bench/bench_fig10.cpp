// E2–E7 — Figure 10 (a)–(f): state growth and memory growth over time
// for the 25-, 49- and 100-node grid scenarios, one series per mapping
// algorithm. Emits the raw series as CSV files (fig10_<nodes>_<alg>.csv,
// columns: wall seconds, virtual time, states, simulated memory bytes,
// the process's resident bytes, groups, ...) — the log-log curves of the
// paper plot directly from these — plus a per-scenario summary with
// completion markers ("COB aborted", "COW finished", "SDS finished" in
// the paper's annotations) and the resident bytes at each run's end
// beside its simulated memory (the process runs every row, so a row's
// RSS includes what earlier rows left allocated).
//
// Usage: bench_fig10 [--nodes 25|49|100] [--time T] [--wall-cap SECONDS]
//                    [--outdir DIR] [--paper]
//                    [--checkpoint-dir DIR] [--resume] [--trace-out DIR]
//                    [--fleet N] [--metrics] [--merge] [--loop-summarize]
//                    [--phase-profile]
//
// With --phase-profile every run attaches the phase profiler and prints
// the per-phase self-time table plus the interpreter's per-opcode
// histogram (execution counts always; self-times and adjacent-pair
// counts when SDE_OPCODE_TIME=1) without requiring a trace directory.
//
// With --merge (and optionally --loop-summarize) every run explores with
// state merging at post-dominator join points (bounded loop summarization
// on top); the CSV's merges/loop_summaries columns record the counters.
// E22 compares states and wall-clock with and without these flags at an
// identical expanded test-case set.
//
// With --metrics every single-engine run carries the full live metrics
// plane: the engine's sampler hook publishes a snapshot of its
// registries into a shared mapping at most once a second — the cadence
// sde_top polls at. E21 measures the plane's overhead by comparing
// wall-clock with and without this flag.
//
// With --fleet N every (nodes, algorithm) scenario additionally runs as
// an N-process fleet (sde/fleet.hpp) over a 4-job partition plan, adding
// a comparison row: same states universe, process-isolated wall-clock.
// No metric series is recorded for the fleet rows (the workers own the
// engine sampler), so the CSV files always come from the single-engine
// runs.
//
// With --checkpoint-dir, every (nodes, algorithm) run periodically writes
// an engine checkpoint; --resume continues a suspended run from it (e.g.
// after a wall-cap abort or a killed process) instead of starting over.
// A resumed run's CSV only covers the samples recorded after the resume —
// the states/memory endpoints still match the uninterrupted run.
//
// With --trace-out, every run additionally streams a structured event
// trace to DIR/trace_<nodes>_<alg>.trc (inspect with sde_trace) and
// attaches a phase profiler whose per-phase self-times land both in the
// trace's profile section and in the printed stats block.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_args.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_shm.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_io.hpp"
#include "snapshot/checkpoint.hpp"
#include "snapshot/manifest.hpp"
#include "trace/scenario.hpp"
#include "trace/table.hpp"

namespace {

constexpr const char* kUsage =
    "bench_fig10 [--nodes 25|49|100] [--time T] [--wall-cap SECONDS] "
    "[--outdir DIR] [--paper] [--checkpoint-dir DIR] [--resume] "
    "[--trace-out DIR] [--fleet N] [--metrics] [--merge] "
    "[--loop-summarize] [--phase-profile]";

struct Options {
  std::vector<std::uint32_t> nodeCounts = {25, 49, 100};
  // 0 = per-scenario default (full 10 s for 25/49, 5 s for 100 — the
  // 100-node run is scaled down to stay laptop-sized; --paper restores
  // the full duration).
  std::uint64_t simulationTime = 0;
  double wallCap = 60.0;
  std::string outdir = ".";
  bool paper = false;
  std::string checkpointDir;
  bool resume = false;
  std::string traceDir;
  unsigned fleet = 0;     // 0 = no fleet comparison rows
  bool metrics = false;   // attach the live metrics plane (E21 overhead)
  bool merge = false;     // state merging at post-dominator joins (E22)
  bool loopSummarize = false;  // bounded loop summarization (E22)
  bool phaseProfile = false;   // print phase + opcode profile (E23)
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
      options.nodeCounts = {static_cast<std::uint32_t>(next())};
    else if (arg == "--time")
      options.simulationTime = next();
    else if (arg == "--wall-cap")
      options.wallCap = static_cast<double>(next());
    else if (arg == "--outdir")
      options.outdir = text();
    else if (arg == "--paper")
      options.paper = true;
    else if (arg == "--checkpoint-dir")
      options.checkpointDir = text();
    else if (arg == "--resume")
      options.resume = true;
    else if (arg == "--trace-out")
      options.traceDir = text();
    else if (arg == "--fleet")
      options.fleet = static_cast<unsigned>(next());
    else if (arg == "--metrics")
      options.metrics = true;
    else if (arg == "--merge")
      options.merge = true;
    else if (arg == "--loop-summarize")
      options.loopSummarize = true;
    else if (arg == "--phase-profile")
      options.phaseProfile = true;
    else
      sde::bench::usageError(kUsage, arg.c_str());
  }
  return options;
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

  for (const std::uint32_t nodes : options.nodeCounts) {
    const std::uint32_t side = sideOf(nodes);
    std::uint64_t simTime = options.simulationTime;
    if (simTime == 0) simTime = (nodes == 100 && !options.paper) ? 5000 : 10000;

    std::printf("=== Figure 10, %u-node scenario (grid %ux%u, %llu time "
                "units) ===\n",
                nodes, side, side, static_cast<unsigned long long>(simTime));
    trace::TextTable table(
        {"Algorithm", "Outcome", "Runtime", "States", "Memory", "RSS",
         "Samples"});

    for (const MapperKind kind :
         {MapperKind::kCob, MapperKind::kCow, MapperKind::kSds}) {
      trace::CollectScenarioConfig config;
      config.gridWidth = side;
      config.gridHeight = side;
      config.simulationTime = simTime;
      config.mapper = kind;
      // Every algorithm runs under the same wall cap; in the paper only
      // COB hits the (memory) limit on the 100-node scenario.
      config.engine.maxWallSeconds =
          kind == MapperKind::kCob ? options.wallCap : options.wallCap * 4;
      config.engine.maxStates = 2'000'000;
      config.engine.mergeStates = options.merge;
      config.engine.loopSummarize = options.loopSummarize;

      trace::CollectScenario scenario(config);
      const std::string name(mapperKindName(kind));

      // Tracing + profiling attach before any checkpoint restore so a
      // resumed run continues its event stream (see Engine docs).
      std::ofstream traceStream;
      std::unique_ptr<obs::StreamTraceSink> traceSink;
      obs::PhaseProfiler profiler;
      std::filesystem::path tracePath;
      if (!options.traceDir.empty()) {
        std::filesystem::create_directories(options.traceDir);
        tracePath = std::filesystem::path(options.traceDir) /
                    ("trace_" + std::to_string(nodes) + "_" + name + ".trc");
        traceStream.open(tracePath, std::ios::binary | std::ios::trunc);
        obs::TraceHeader header;
        header.numNodes = nodes;
        header.mapper = name;
        header.scenario = "fig10 grid " + std::to_string(side) + "x" +
                          std::to_string(side);
        traceSink = std::make_unique<obs::StreamTraceSink>(traceStream, header);
        scenario.engine().setTraceSink(traceSink.get());
        scenario.engine().setProfiler(&profiler);
      }
      if (options.phaseProfile && traceSink == nullptr)
        scenario.engine().setProfiler(&profiler);

      std::filesystem::path ckpt;
      if (!options.checkpointDir.empty()) {
        ckpt = std::filesystem::path(options.checkpointDir) /
               ("fig10_" + std::to_string(nodes) + "_" + name + ".ckpt");
        if (trace::attachCheckpointing(scenario.engine(), ckpt,
                                       options.resume))
          std::fprintf(stderr, "[resume] %u nodes %s from %s\n", nodes,
                       name.c_str(), ckpt.string().c_str());
      }

      // The full live plane: the engine's sampler hook publishes its
      // registries into shm at most once a second — the cadence sde_top
      // polls at — on the engine's own thread, which owns them.
      // Publishing faster than the consumers poll buys nothing.
      std::unique_ptr<obs::ShmMetricsPlane> benchPlane;
      const auto publish = [&benchPlane](const Engine& engine) {
        support::StatsRegistry live;
        engine.mergeStatsInto(live);
        obs::MetricsSnapshot snap = obs::snapshotFromStats(live);
        (void)benchPlane->publish(0, snap);
        return snap;
      };
      if (options.metrics) {
        benchPlane = std::make_unique<obs::ShmMetricsPlane>();
        scenario.engine().setSampler(
            [inner = scenario.engine().sampler(), &publish,
             last = std::chrono::steady_clock::time_point{}](
                const Engine& engine) mutable {
              inner(engine);
              const auto now = std::chrono::steady_clock::now();
              if (now - last < std::chrono::seconds(1)) return;
              last = now;
              (void)publish(engine);
            });
      }

      const trace::ScenarioResult result = scenario.run();
      if (options.metrics) {
        const obs::MetricsSnapshot finalSnap = publish(scenario.engine());
        std::printf("[metrics] %s: %llu events, %llu forks published\n",
                    name.c_str(),
                    static_cast<unsigned long long>(
                        finalSnap.value("engine.events")),
                    static_cast<unsigned long long>(
                        finalSnap.value("engine.forks_total")));
        benchPlane.reset();
      }
      if (!ckpt.empty() && result.outcome == RunOutcome::kCompleted) {
        std::error_code ec;
        std::filesystem::remove(ckpt, ec);  // run finished: nothing to resume
      }

      const std::string path = options.outdir + "/fig10_" +
                               std::to_string(nodes) + "_" + name + ".csv";
      std::ofstream csv(path);
      scenario.metrics().writeCsv(csv, name);
      std::fprintf(stderr, "[done] %u nodes %s -> %s\n", nodes, name.c_str(),
                   path.c_str());

      if (traceSink != nullptr) {
        scenario.engine().setTraceSink(nullptr);
        scenario.engine().setProfiler(nullptr);
        traceSink->setProfile(profiler.profile());
        traceSink->close();
        std::fprintf(stderr, "[trace] %u nodes %s -> %s\n", nodes,
                     name.c_str(), tracePath.string().c_str());
      } else if (options.phaseProfile) {
        scenario.engine().setProfiler(nullptr);
      }
      if (traceSink != nullptr || options.phaseProfile) {
        support::StatsRegistry profileStats;
        profiler.profile().toStats(profileStats);
        std::printf("%s phase profile:\n%s%s", name.c_str(),
                    profiler.profile().report().c_str(),
                    profileStats.report().c_str());
      }

      table.addRow({name, std::string(runOutcomeName(result.outcome)),
                    trace::formatDuration(result.wallSeconds),
                    trace::formatCount(result.states),
                    trace::formatBytes(result.memoryBytes),
                    trace::formatBytes(result.residentBytes),
                    trace::formatCount(scenario.metrics().samples().size())});

      // Threads-vs-processes comparison row: the same scenario as an
      // N-process fleet over a 4-job partition plan.
      if (options.fleet > 0) {
        const std::filesystem::path fleetDir =
            std::filesystem::temp_directory_path() /
            ("sde_fig10_fleet_" + std::to_string(nodes) + "_" + name);
        std::filesystem::remove_all(fleetDir);
        FleetConfig fleet;
        fleet.processes = options.fleet;
        fleet.collectStateFingerprints = false;
        fleet.collectScenarioFingerprints = false;
        fleet.checkpointDir = fleetDir.string();
        const FleetResult run =
            trace::runCollectFleet(config, fleet, /*numPartitionVariables=*/2);
        table.addRow({name + " fleet x" + std::to_string(options.fleet),
                      std::string(runOutcomeName(run.result.outcome)),
                      trace::formatDuration(run.result.wallSeconds),
                      trace::formatCount(run.result.totalStates), "-", "-",
                      "-"});
        std::filesystem::remove_all(fleetDir);
      }
    }
    std::printf("%s\n", table.render().c_str());
  }

  std::printf(
      "Paper shape to verify in the CSVs: states and memory grow over time "
      "for every algorithm; COB's curves dominate and terminate early "
      "(abort), COW finishes above SDS, SDS lowest in both states and "
      "memory; the gap widens with network size.\n");
  return 0;
}

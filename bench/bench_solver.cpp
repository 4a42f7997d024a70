// E12 — solver-stack ablation (google-benchmark): the optimisation
// layers (independence slicing, interval refutation, caching) against
// the bare enumerative core, on the query mix an SDE run produces:
// long conjunctions of per-node constraints with narrow per-query
// relevance.
//
// E18 — layered-pipeline breakdown on replayed query streams: records
// the raw conjunction stream of real 5x5 / 7x7 collect-scenario
// explorations (Solver::setQueryRecorder), then replays each stream
// against differently composed SolverPipelines, reporting per-layer
// traffic/hit-rate/self-time and the whole-query latency distribution.
// CSV output: bench_results/solver_layers.csv and
// bench_results/solver_latency.csv.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "sde/explode.hpp"
#include "sde/testcase.hpp"
#include "solver/pipeline.hpp"
#include "solver/solver.hpp"
#include "trace/scenario.hpp"

namespace {

using namespace sde;

// A constraint set shaped like a distributed path condition: `nodes`
// independent clusters of three constraints over small bitvectors.
solver::ConstraintSet makeDistributedConstraints(expr::Context& ctx,
                                                 unsigned nodes) {
  solver::ConstraintSet cs;
  for (unsigned n = 0; n < nodes; ++n) {
    const std::string prefix = "n" + std::to_string(n);
    expr::Ref drop = ctx.variable(prefix + ".drop", 1);
    expr::Ref seq = ctx.variable(prefix + ".seq", 8);
    cs.add(ctx.logicalNot(drop));
    cs.add(ctx.ult(seq, ctx.constant(100, 8)));
    cs.add(ctx.ne(seq, ctx.constant(7, 8)));
  }
  return cs;
}

void BM_MayBeTrue(benchmark::State& state, bool independence, bool intervals,
                  bool cache) {
  expr::Context ctx;
  solver::SolverConfig config;
  config.useIndependence = independence;
  config.useIntervals = intervals;
  config.useCache = cache;
  solver::Solver solver(ctx, config);
  const auto nodes = static_cast<unsigned>(state.range(0));
  const solver::ConstraintSet cs = makeDistributedConstraints(ctx, nodes);
  expr::Ref seq0 = ctx.variable("n0.seq", 8);
  int k = 0;
  for (auto _ : state) {
    // Rotate through query constants so the cache layer is exercised the
    // way an engine run exercises it (repeats with occasional novelty).
    const int v = (k++ % 8) + 1;
    benchmark::DoNotOptimize(
        solver.mayBeTrue(cs, ctx.eq(seq0, ctx.constant(v, 8))));
  }
  state.counters["queries"] =
      static_cast<double>(solver.stats().get("solver.queries"));
  state.counters["enum_runs"] =
      static_cast<double>(solver.stats().get("solver.enum_runs"));
}

void BM_GetModel(benchmark::State& state) {
  expr::Context ctx;
  solver::Solver solver(ctx);
  const auto nodes = static_cast<unsigned>(state.range(0));
  const solver::ConstraintSet cs = makeDistributedConstraints(ctx, nodes);
  for (auto _ : state) {
    auto model = solver.getModel(cs);
    benchmark::DoNotOptimize(model);
  }
}

void BM_BranchClassify(benchmark::State& state) {
  // The hot path of symbolic execution: classify a fresh branch
  // condition against an existing path condition.
  expr::Context ctx;
  solver::Solver solver(ctx);
  const solver::ConstraintSet cs = makeDistributedConstraints(ctx, 8);
  expr::Ref seq3 = ctx.variable("n3.seq", 8);
  int k = 0;
  for (auto _ : state) {
    const int v = k++ % 100;
    benchmark::DoNotOptimize(
        solver.classify(cs, ctx.ult(seq3, ctx.constant(v, 8))));
  }
}

// --- E18: replayed-stream pipeline breakdown ---------------------------------

struct RecordedQuery {
  std::vector<expr::Ref> conjunction;
  bool needModel = false;
};

struct ReplayOutcome {
  std::vector<std::uint64_t> queryNanos;  // one entry per replayed query
  // One row per layer: name, queries, hits, self-nanos.
  struct LayerRow {
    std::string name;
    std::uint64_t queries = 0;
    std::uint64_t hits = 0;
    std::uint64_t nanos = 0;
  };
  std::vector<LayerRow> layers;
};

// Records the solver query stream of test-case generation over the
// run's dscenarios — the paper's "test cases for all nodes in all
// dscenarios" payoff, and the solver-heaviest phase of a collect run
// (exploration itself branches in the failure models, not the solver).
// Caps at `maxScenarios` dscenarios and reports what was dropped.
std::vector<RecordedQuery> recordQueryStream(trace::CollectScenario& scenario,
                                             std::uint64_t maxScenarios) {
  std::vector<RecordedQuery> stream;
  scenario.engine().solver().setQueryRecorder(
      [&stream](std::span<const expr::Ref> conjunction, bool needModel) {
        stream.push_back(
            {{conjunction.begin(), conjunction.end()}, needModel});
      });
  const std::uint64_t total = countScenarios(scenario.engine().mapper());
  ExplosionIterator it(scenario.engine().mapper());
  std::uint64_t used = 0;
  while (used < maxScenarios) {
    const auto dscenario = it.next();
    if (!dscenario) break;
    ++used;
    benchmark::DoNotOptimize(
        generateScenarioTestCases(scenario.engine().solver(), *dscenario));
  }
  scenario.engine().solver().setQueryRecorder(nullptr);
  if (used < total)
    std::printf("  (capped at %llu of %llu dscenarios)\n",
                static_cast<unsigned long long>(used),
                static_cast<unsigned long long>(total));
  return stream;
}

// Replays `queries` (owned by the recording engine's context, which
// outlives the replay) through a fresh pipeline composed per `config`.
ReplayOutcome replayStream(expr::Context& ctx,
                           const std::vector<RecordedQuery>& queries,
                           const solver::SolverConfig& config) {
  ReplayOutcome outcome;
  solver::QueryCache cache;
  support::StatsRegistry stats;
  solver::SolverPipeline pipeline(ctx, config, cache, stats);
  outcome.queryNanos.reserve(queries.size());
  for (const auto& query : queries) {
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(pipeline.solve(query.conjunction, query.needModel));
    const auto t1 = std::chrono::steady_clock::now();
    outcome.queryNanos.push_back(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count()));
  }
  for (const auto& layer : pipeline.layers()) {
    const solver::LayerSeries& series = layer->series();
    outcome.layers.push_back({std::string(series.name),
                              stats.get(series.queries),
                              stats.get(series.hits), stats.get(series.nanos)});
  }
  return outcome;
}

std::uint64_t percentile(std::vector<std::uint64_t> sorted, double p) {
  if (sorted.empty()) return 0;
  const auto index = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(index, sorted.size() - 1)];
}

void runReplayExperiment(bool quick) {
  namespace fs = std::filesystem;
  fs::create_directories("bench_results");
  std::ofstream layersCsv("bench_results/solver_layers.csv");
  std::ofstream latencyCsv("bench_results/solver_latency.csv");
  layersCsv << "scenario,composition,layer,queries,hits,hit_rate,self_nanos\n";
  latencyCsv << "scenario,composition,queries,total_nanos,mean_nanos,"
                "p50_nanos,p90_nanos,p99_nanos,max_nanos\n";

  struct Composition {
    const char* name;
    solver::SolverConfig config;
  };
  std::vector<Composition> compositions;
  {
    Composition full{"full", {}};
    compositions.push_back(full);
    Composition noSubsumption{"no_subsumption", {}};
    noSubsumption.config.useSubsumption = false;
    compositions.push_back(noSubsumption);
    Composition noCache{"no_cache", {}};
    noCache.config.useCache = false;
    noCache.config.useSubsumption = false;
    compositions.push_back(noCache);
  }

  struct Grid {
    const char* name;
    std::uint32_t side;
  };
  std::vector<Grid> grids{{"5x5", 5}};
  if (!quick) grids.push_back({"7x7", 7});

  for (const Grid& grid : grids) {
    trace::CollectScenarioConfig config;
    config.gridWidth = grid.side;
    config.gridHeight = grid.side;
    if (quick) config.simulationTime = 3000;
    trace::CollectScenario scenario(config);
    scenario.run();
    const std::vector<RecordedQuery> stream =
        recordQueryStream(scenario, quick ? 200 : 2000);
    std::printf("replay %s: %zu queries recorded\n", grid.name,
                stream.size());

    for (const Composition& composition : compositions) {
      const ReplayOutcome outcome =
          replayStream(scenario.engine().context(), stream,
                       composition.config);
      std::uint64_t total = 0;
      for (const auto& row : outcome.layers) {
        const double hitRate =
            row.queries == 0
                ? 0.0
                : static_cast<double>(row.hits) /
                      static_cast<double>(row.queries);
        layersCsv << grid.name << ',' << composition.name << ',' << row.name
                  << ',' << row.queries << ',' << row.hits << ',' << hitRate
                  << ',' << row.nanos << '\n';
      }
      for (const std::uint64_t nanos : outcome.queryNanos) total += nanos;
      std::vector<std::uint64_t> sorted = outcome.queryNanos;
      std::sort(sorted.begin(), sorted.end());
      const double mean =
          sorted.empty() ? 0.0
                         : static_cast<double>(total) /
                               static_cast<double>(sorted.size());
      latencyCsv << grid.name << ',' << composition.name << ','
                 << sorted.size() << ',' << total << ',' << mean << ','
                 << percentile(sorted, 0.50) << ','
                 << percentile(sorted, 0.90) << ','
                 << percentile(sorted, 0.99) << ','
                 << (sorted.empty() ? 0 : sorted.back()) << '\n';
      std::printf("  %-16s total %.2f ms over %zu queries\n",
                  composition.name, static_cast<double>(total) / 1e6,
                  sorted.size());
    }
  }
  std::printf(
      "wrote bench_results/solver_layers.csv and "
      "bench_results/solver_latency.csv\n");
}

// The shared-cache payoff in the fleet setting (the acceptance
// experiment): a partitioned run with test-case generation, shared
// query cache on vs off, reporting the fleet's aggregate solver
// self-time (sum of per-layer nanos across jobs) and enumeration count.
void runSharedCacheExperiment(bool quick) {
  std::ofstream csv("bench_results/solver_shared_cache.csv");
  csv << "scenario,workers,shared_cache,queries,enum_runs,shared_hits,"
         "solver_self_nanos,wall_seconds\n";
  const std::uint32_t side = quick ? 5 : 7;
  const std::string name = std::to_string(side) + "x" + std::to_string(side);
  for (const bool shared : {false, true}) {
    trace::CollectScenarioConfig config;
    config.gridWidth = side;
    config.gridHeight = side;
    config.simulationTime = quick ? 2500 : 4000;
    ParallelConfig parallel;
    parallel.workers = 4;
    parallel.collectTestcases = true;
    parallel.shmQueryCache = shared;
    const trace::PartitionedCollectResult run =
        trace::runCollectPartitioned(config, parallel, /*vars=*/2);
    std::uint64_t selfNanos = 0;
    for (const auto& [key, value] : run.result.stats.all())
      if (key.starts_with("solver.layer.") && key.ends_with(".nanos"))
        selfNanos += value;
    csv << name << ",4," << (shared ? "on" : "off") << ','
        << run.result.stats.get("solver.queries") << ','
        << run.result.stats.get("solver.enum_runs") << ','
        << run.result.stats.get("solver.layer.shared_cache.hits") << ',' << selfNanos
        << ',' << run.result.wallSeconds << '\n';
    std::printf(
        "shared cache %-3s (%s, 4 workers): solver self-time %.2f ms, "
        "%llu enum runs, %llu shared hits\n",
        shared ? "on" : "off", name.c_str(),
        static_cast<double>(selfNanos) / 1e6,
        static_cast<unsigned long long>(
            run.result.stats.get("solver.enum_runs")),
        static_cast<unsigned long long>(
            run.result.stats.get("solver.layer.shared_cache.hits")));
  }
  std::printf("wrote bench_results/solver_shared_cache.csv\n");
}

}  // namespace

BENCHMARK_CAPTURE(BM_MayBeTrue, full_stack, true, true, true)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64);
BENCHMARK_CAPTURE(BM_MayBeTrue, no_independence, false, true, true)
    ->Arg(4)
    ->Arg(16);
BENCHMARK_CAPTURE(BM_MayBeTrue, no_intervals, true, false, true)
    ->Arg(4)
    ->Arg(16);
BENCHMARK_CAPTURE(BM_MayBeTrue, no_cache, true, true, false)
    ->Arg(4)
    ->Arg(16);
BENCHMARK_CAPTURE(BM_MayBeTrue, bare_enumeration, false, false, false)
    ->Arg(4)
    ->Arg(16);

BENCHMARK(BM_GetModel)->Arg(4)->Arg(16)->Arg(64);
BENCHMARK(BM_BranchClassify);

int main(int argc, char** argv) {
  bool quick = false;
  bool replayOnly = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
    if (std::string(argv[i]) == "--replay-only") replayOnly = true;
  }
  runReplayExperiment(quick);
  runSharedCacheExperiment(quick);
  if (replayOnly) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

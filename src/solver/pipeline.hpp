// The layered query pipeline behind the Solver facade.
//
// What used to be one if-chain in Solver::solveConjunction is a sequence
// of self-describing SolverLayer stages, each of which either answers
// the query or passes it down:
//
//   constant-fold   — refute on any constant-false conjunct
//   canonicalize    — build the canonical key (commutative operands are
//                     already sorted at intern time in expr::Context;
//                     this stage sorts/dedups the conjunction and drops
//                     trivially-true conjuncts); an empty key is SAT
//   exact-cache     — per-worker exact-key result cache
//   subsumption     — recent-model reuse, then UNSAT-subset refutation
//                     (a cached UNSAT key that is a subset of the query
//                     proves UNSAT), then model-pool counterexample
//                     reuse (a cached model satisfying the query proves
//                     SAT, KLEE-style)
//   shared-cache    — the run's shared store (ShmQueryCache), consulted
//                     live
//   interval        — interval-arithmetic refutation
//   enumerate       — complete (bounded) model enumeration; always
//                     answers
//
// Every layer reports its traffic through the solver's stats registry,
// once per visit: "solver.layer.<name>.{queries,hits,nanos}" and the
// live-only latency histogram "solver.layer.<name>.latency_ns". It tags
// the answers it produces with its obs::SolverLayerDetail, which the
// trace sink records per query.
//
// Determinism contract (load-bearing — the differential tests in
// tests/sde/parallel_equivalence_test.cpp enforce it): every layer's
// answer must be a pure function of the query and of local state that
// itself evolved purely. The shared-cache layer stays transparent by
// only ever publishing canonical results (interval refutations and
// enumerated models — enumeration orders variables context-
// independently, so every worker would compute the identical result)
// and by folding hits into the local cache exactly as if computed
// locally. History-dependent answers (model reuse, subsumption) are
// never published to the shared cache.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "expr/context.hpp"
#include "obs/trace_event.hpp"
#include "solver/cache.hpp"
#include "solver/enum_solver.hpp"
#include "solver/interval_solver.hpp"
#include "support/stats.hpp"

namespace sde::solver {

class ShmQueryCache;

struct SolverConfig {
  bool useIndependence = true;
  bool useIntervals = true;
  bool useCache = true;
  // Layered-pipeline dispatch. Off falls back to the pre-pipeline
  // monolithic path (kept verbatim for differential testing); the two
  // must produce identical exploration results.
  bool usePipeline = true;
  // The subsumption stage (UNSAT-subset + model pool). The recent-model
  // reuse window predates the pipeline and is governed by useCache.
  bool useSubsumption = true;
  EnumConfig enumeration;
};

// One query's worth of state, threaded through the layers in order.
struct LayerQuery {
  expr::Context& ctx;
  support::StatsRegistry& stats;
  const SolverConfig& config;
  std::span<const expr::Ref> conjunction;  // as posed by the caller
  QueryKey key;                            // filled by canonicalize
  expr::IntervalEnv intervals;             // filled by the interval layer
  QueryCache& cache;
  ShmQueryCache* shared = nullptr;
  // Whether the caller consumes the model (getValue/getModel) or only
  // the status (mayBeTrue and friends). Model-pool reuse answers only
  // status-only queries: its models are genuine but need not match the
  // canonical enumeration-order model the caller would otherwise see.
  bool needModel = false;
};

// A layer's verdict: the result plus which layer kind produced it (the
// subsumption layer alone distinguishes model-reuse from subset hits).
struct LayerAnswer {
  EnumResult result;
  obs::SolverLayerDetail detail{};
};

// The registry series of one layer: how often it was consulted
// (queries), how often it answered (hits), the wall time spent inside
// it (nanos) and the distribution of that time (latency, a histogram).
struct LayerSeries {
  explicit LayerSeries(std::string_view layer);

  std::string_view name;
  support::StatsRegistry::Id queries;
  support::StatsRegistry::Id hits;
  support::StatsRegistry::Id nanos;
  support::StatsRegistry::Id latency;
};

class SolverLayer {
 public:
  // Returns the layer's series, interned on the first call (once per
  // process and layer, so building a pipeline registers nothing).
  using Series = const LayerSeries& (*)();
  explicit SolverLayer(Series series) : series_(series) {}
  virtual ~SolverLayer() = default;

  [[nodiscard]] const LayerSeries& series() const { return series_(); }
  [[nodiscard]] std::string_view name() const { return series().name; }

  // Answers the query or returns nullopt to pass it to the next layer.
  [[nodiscard]] virtual std::optional<LayerAnswer> query(LayerQuery& q) = 0;

 private:
  Series series_;
};

class SolverPipeline {
 public:
  SolverPipeline(expr::Context& ctx, const SolverConfig& config,
                 QueryCache& cache, support::StatsRegistry& stats);

  // Runs the query through the layers. The final enumeration layer
  // always answers, so this never fails to produce a result.
  [[nodiscard]] LayerAnswer solve(std::span<const expr::Ref> conjunction,
                                  bool needModel);

  void setSharedCache(ShmQueryCache* shared) { shared_ = shared; }

  [[nodiscard]] const std::vector<std::unique_ptr<SolverLayer>>& layers()
      const {
    return layers_;
  }

 private:
  expr::Context& ctx_;
  const SolverConfig& config_;
  QueryCache& cache_;
  support::StatsRegistry& stats_;
  ShmQueryCache* shared_ = nullptr;
  std::vector<std::unique_ptr<SolverLayer>> layers_;
};

}  // namespace sde::solver

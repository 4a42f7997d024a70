// The solver facade the VM and SDE engine talk to, behind the narrow
// SolverClient interface. Mirrors the query API KLEE exposes to its
// executor (mayBeTrue / mustBeTrue / getValue / getInitialValues).
// Queries run through the layered SolverPipeline (see pipeline.hpp):
// constant-fold, canonicalize, exact cache, subsumption, shared cache,
// interval refutation, enumeration — with independence slicing applied
// up front, per query, before the pipeline sees the conjunction. The
// pre-pipeline monolithic path is kept behind SolverConfig::usePipeline
// for differential testing.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "obs/profiler.hpp"
#include "obs/trace_sink.hpp"
#include "solver/cache.hpp"
#include "solver/client.hpp"
#include "solver/constraint_set.hpp"
#include "solver/independence.hpp"
#include "solver/interval_solver.hpp"
#include "solver/pipeline.hpp"
#include "support/stats.hpp"

namespace sde::solver {

class Solver final : public SolverClient {
 public:
  explicit Solver(expr::Context& ctx, SolverConfig config = {})
      : ctx_(ctx), config_(config), pipeline_(ctx_, config_, cache_, stats_) {}

  // Is `cond` satisfiable together with `constraints`? An exhausted
  // search answers `true` (sound for exploration: never prunes a feasible
  // path; tracked in stats as an over-approximation).
  [[nodiscard]] bool mayBeTrue(const ConstraintSet& constraints,
                               expr::Ref cond) override;
  [[nodiscard]] bool mustBeTrue(const ConstraintSet& constraints,
                                expr::Ref cond) override;

  // Classifies a branch condition in one call (used by the VM at every
  // symbolic branch).
  [[nodiscard]] Validity classify(const ConstraintSet& constraints,
                                  expr::Ref cond) override;

  // A concrete value `e` can take under `constraints` (the first model
  // found; deterministic). nullopt if the constraints are unsatisfiable.
  [[nodiscard]] std::optional<std::uint64_t> getValue(
      const ConstraintSet& constraints, expr::Ref e) override;

  // A full model of `constraints`; variables of the set that are
  // unconstrained within their sliced component get their enumerated
  // value, variables absent from the set entirely are not bound.
  [[nodiscard]] std::optional<expr::Assignment> getModel(
      const ConstraintSet& constraints) override;

  [[nodiscard]] const support::StatsRegistry& stats() const { return stats_; }
  support::StatsRegistry& stats() { return stats_; }
  [[nodiscard]] expr::Context& context() const override { return ctx_; }
  // The query cache, exposed for checkpointing.
  [[nodiscard]] QueryCache& cache() { return cache_; }
  [[nodiscard]] const QueryCache& cache() const { return cache_; }

  // Attaches the run's shared query store (not owned; must outlive this
  // solver). The pipeline consults it live on every query that misses
  // the local layers and publishes canonical results back; the layer's
  // series count the traffic (solver.layer.shared_cache.{queries,hits}).
  void setSharedCache(ShmQueryCache* shared) {
    pipeline_.setSharedCache(shared);
  }

  [[nodiscard]] const SolverPipeline& pipeline() const { return pipeline_; }
  [[nodiscard]] const SolverConfig& config() const { return config_; }

  // Observability (obs/): a trace sink records every non-trivial query
  // with its answer source (the pipeline layer that produced it); the
  // profiler charges solver wall-time to Phase::kSolver. Both are
  // nullptr by default (zero cost) and typically installed by
  // Engine::setTraceSink / setProfiler.
  void setTraceSink(obs::TraceSink* sink) { trace_ = sink; }
  void setProfiler(obs::PhaseProfiler* profiler) { profiler_ = profiler; }
  // Captures every solved conjunction (post-slicing, pre-pipeline) —
  // the raw query stream of a run, which bench_solver records from a
  // real exploration and replays against differently composed
  // pipelines. Zero cost when unset.
  using QueryRecorder =
      std::function<void(std::span<const expr::Ref>, bool needModel)>;
  void setQueryRecorder(QueryRecorder recorder) {
    recorder_ = std::move(recorder);
  }

 private:
  // Satisfiability of an explicit conjunction (after slicing).
  // `needModel` tells the pipeline whether the caller consumes the
  // model or only the status.
  EnumResult solveConjunction(std::span<const expr::Ref> conjunction,
                              bool needModel);
  // The pre-pipeline monolithic if-chain, preserved for differential
  // testing (SolverConfig::usePipeline = false).
  EnumResult solveConjunctionMonolithic(
      std::span<const expr::Ref> conjunction);
  void traceQuery(obs::SolverLayerDetail detail, std::size_t conjuncts,
                  EnumStatus status);

  expr::Context& ctx_;  // non-const: queries intern new (negated) terms
  SolverConfig config_;
  QueryCache cache_;
  support::StatsRegistry stats_;
  SolverPipeline pipeline_;  // after cache_/stats_: holds references
  obs::TraceSink* trace_ = nullptr;
  obs::PhaseProfiler* profiler_ = nullptr;
  QueryRecorder recorder_;
};

}  // namespace sde::solver

#include "solver/solver.hpp"

#include <vector>

namespace sde::solver {

using support::statId;

void Solver::traceQuery(obs::SolverLayerDetail detail, std::size_t conjuncts,
                        EnumStatus status) {
  if (trace_ == nullptr) return;
  obs::TraceEvent event;
  event.kind = obs::TraceEventKind::kSolverQuery;
  event.detail = static_cast<std::uint8_t>(detail);
  event.a = conjuncts;
  switch (status) {
    case EnumStatus::kUnsat: event.b = 0; break;
    case EnumStatus::kSat: event.b = 1; break;
    case EnumStatus::kExhausted: event.b = 2; break;
  }
  trace_->emit(event);
}

EnumResult Solver::solveConjunction(std::span<const expr::Ref> conjunction,
                                    bool needModel) {
  stats_.add(statId<"solver.queries">());
  if (recorder_) recorder_(conjunction, needModel);
  if (!config_.usePipeline) return solveConjunctionMonolithic(conjunction);

  LayerAnswer answer = pipeline_.solve(conjunction, needModel);
  // A zero detail marks an untraced answer (the vacuously-true empty
  // key — not solver work, and the monolithic path never traced it).
  if (static_cast<std::uint8_t>(answer.detail) != 0)
    traceQuery(answer.detail, conjunction.size(), answer.result.status);
  return std::move(answer.result);
}

EnumResult Solver::solveConjunctionMonolithic(
    std::span<const expr::Ref> conjunction) {
  // Constant shortcuts.
  for (expr::Ref c : conjunction) {
    if (c->isFalse()) {
      stats_.add(statId<"solver.constant_refutations">());
      traceQuery(obs::SolverLayerDetail::kConstant, conjunction.size(),
                 EnumStatus::kUnsat);
      return {EnumStatus::kUnsat, {}};
    }
  }

  const QueryKey key = makeQueryKey(conjunction);
  if (key.empty()) return {EnumStatus::kSat, {}};

  if (config_.useCache) {
    if (const EnumResult* hit = cache_.lookup(key)) {
      stats_.add(statId<"solver.cache_hits">());
      traceQuery(obs::SolverLayerDetail::kCacheHit, conjunction.size(),
                 hit->status);
      return *hit;
    }
    if (auto model = cache_.reuseModel(ctx_, key)) {
      stats_.add(statId<"solver.model_reuse_hits">());
      traceQuery(obs::SolverLayerDetail::kModelReuse, conjunction.size(),
                 EnumStatus::kSat);
      EnumResult r{EnumStatus::kSat, std::move(*model)};
      cache_.insert(key, r);
      return r;
    }
  }

  expr::IntervalEnv env;
  if (config_.useIntervals) {
    if (checkIntervals(key, env) == Feasibility::kInfeasible) {
      stats_.add(statId<"solver.interval_refutations">());
      traceQuery(obs::SolverLayerDetail::kInterval, conjunction.size(),
                 EnumStatus::kUnsat);
      EnumResult r{EnumStatus::kUnsat, {}};
      if (config_.useCache) cache_.insert(key, r);
      return r;
    }
  }

  stats_.add(statId<"solver.enum_runs">());
  EnumResult r = enumerateModels(ctx_, key, env, config_.enumeration);
  if (r.status == EnumStatus::kExhausted)
    stats_.add(statId<"solver.exhausted">());
  traceQuery(obs::SolverLayerDetail::kEnumerated, conjunction.size(),
             r.status);
  if (config_.useCache) cache_.insert(key, r);
  return r;
}

bool Solver::mayBeTrue(const ConstraintSet& constraints, expr::Ref cond) {
  obs::ScopedPhase scope(profiler_, obs::Phase::kSolver);
  SDE_ASSERT(cond->width() == 1, "mayBeTrue expects a boolean condition");
  if (cond->isFalse()) return false;
  // A variable-free condition carries no variables for the independence
  // slice to anchor on; the query degenerates to "are the constraints
  // satisfiable at all", which must consider every component.
  // Flatten the chunked constraint sequence once: the independence
  // slicer and component splitter work over contiguous spans.
  const std::vector<expr::Ref> all = constraints.toVector();
  if (cond->isTrue()) {
    for (const auto& component : splitComponents(ctx_, all))
      if (solveConjunction(component, /*needModel=*/false).status ==
          EnumStatus::kUnsat)
        return false;
    return true;
  }

  std::vector<expr::Ref> conj;
  if (config_.useIndependence) {
    conj = sliceForQuery(ctx_, all, cond);
    stats_.add(statId<"solver.sliced_away">(), all.size() - conj.size());
  } else {
    conj = all;
  }
  conj.push_back(cond);

  const EnumResult r = solveConjunction(conj, /*needModel=*/false);
  // kExhausted over-approximates to "maybe": exploration stays sound.
  return r.status != EnumStatus::kUnsat;
}

bool Solver::mustBeTrue(const ConstraintSet& constraints, expr::Ref cond) {
  return !mayBeTrue(constraints, ctx_.logicalNot(cond));
}

Validity Solver::classify(const ConstraintSet& constraints, expr::Ref cond) {
  const bool canBeTrue = mayBeTrue(constraints, cond);
  if (!canBeTrue) return Validity::kFalse;
  const bool canBeFalse = mayBeTrue(constraints, ctx_.logicalNot(cond));
  return canBeFalse ? Validity::kUnknown : Validity::kTrue;
}

std::optional<std::uint64_t> Solver::getValue(const ConstraintSet& constraints,
                                              expr::Ref e) {
  if (e->isConstant()) return e->value();
  obs::ScopedPhase scope(profiler_, obs::Phase::kSolver);

  std::vector<expr::Ref> conj = constraints.toVector();
  if (config_.useIndependence) conj = sliceForQuery(ctx_, conj, e);

  const EnumResult r = solveConjunction(conj, /*needModel=*/true);
  if (r.status == EnumStatus::kUnsat) return std::nullopt;

  expr::Assignment model = r.model;
  std::vector<expr::Ref> vars;
  ctx_.collectVariables(e, vars);
  for (expr::Ref v : vars)
    if (!model.get(v)) model.set(v, 0);
  return expr::evaluate(e, model);
}

std::optional<expr::Assignment> Solver::getModel(
    const ConstraintSet& constraints) {
  obs::ScopedPhase scope(profiler_, obs::Phase::kSolver);
  // Solve each independent component separately and merge: exponentially
  // cheaper than one joint enumeration and exactly as complete.
  expr::Assignment merged;
  const std::vector<expr::Ref> all = constraints.toVector();
  for (const auto& component : splitComponents(ctx_, all)) {
    const EnumResult r = solveConjunction(component, /*needModel=*/true);
    if (r.status == EnumStatus::kUnsat) return std::nullopt;
    if (r.status == EnumStatus::kExhausted) {
      stats_.add(statId<"solver.model_exhausted">());
      return std::nullopt;
    }
    for (const auto& [var, value] : r.model.entries()) merged.set(var, value);
  }
  return merged;
}

}  // namespace sde::solver

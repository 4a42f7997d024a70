#include "solver/pipeline.hpp"

#include <chrono>
#include <utility>

#include "solver/shared_cache.hpp"
#include "solver/shm_cache.hpp"
#include "support/assert.hpp"

namespace sde::solver {

using support::statId;

namespace {

using Clock = std::chrono::steady_clock;

template <support::StatName Layer>
const LayerSeries& layerSeries() {
  static const LayerSeries series(Layer.view());
  return series;
}

void publishShared(LayerQuery& q, const EnumResult& result) {
  // Canonical results only: interval refutations and enumerated models
  // are pure functions of the key (enumeration orders variables by
  // structural hash), so any worker would compute the identical value.
  if (q.shared == nullptr) return;
  q.shared->insert(makeSharedQueryKey(q.key), toSharedResult(result));
}

class ConstantFoldLayer final : public SolverLayer {
 public:
  ConstantFoldLayer() : SolverLayer(&layerSeries<"constant_fold">) {}

  std::optional<LayerAnswer> query(LayerQuery& q) override {
    for (expr::Ref c : q.conjunction) {
      if (c->isFalse()) {
        q.stats.add(statId<"solver.constant_refutations">());
        return LayerAnswer{{EnumStatus::kUnsat, {}},
                           obs::SolverLayerDetail::kConstant};
      }
    }
    return std::nullopt;
  }
};

class CanonicalizeLayer final : public SolverLayer {
 public:
  CanonicalizeLayer() : SolverLayer(&layerSeries<"canonicalize">) {}

  std::optional<LayerAnswer> query(LayerQuery& q) override {
    // Commutative operand order is fixed at intern time in
    // expr::Context; what remains is conjunction-level canonicalization:
    // hash-sort, dedup, and dropping trivially-true conjuncts. An empty
    // key means the conjunction is vacuously satisfiable. The
    // zero detail marks this answer as untraced — constant truths are
    // not solver work.
    q.key = makeQueryKey(q.conjunction);
    if (q.key.empty())
      return LayerAnswer{{EnumStatus::kSat, {}}, obs::SolverLayerDetail{}};
    return std::nullopt;
  }
};

class ExactCacheLayer final : public SolverLayer {
 public:
  ExactCacheLayer() : SolverLayer(&layerSeries<"exact_cache">) {}

  std::optional<LayerAnswer> query(LayerQuery& q) override {
    if (!q.config.useCache) return std::nullopt;
    if (const EnumResult* hit = q.cache.lookup(q.key)) {
      q.stats.add(statId<"solver.cache_hits">());
      return LayerAnswer{*hit, obs::SolverLayerDetail::kCacheHit};
    }
    return std::nullopt;
  }
};

class SubsumptionLayer final : public SolverLayer {
 public:
  SubsumptionLayer() : SolverLayer(&layerSeries<"subsumption">) {}

  std::optional<LayerAnswer> query(LayerQuery& q) override {
    if (!q.config.useCache) return std::nullopt;
    // Recent-model window first (the pre-pipeline reuse path, in its
    // original position so the monolithic fallback stays equivalent).
    if (auto model = q.cache.reuseModel(q.ctx, q.key)) {
      q.stats.add(statId<"solver.model_reuse_hits">());
      EnumResult r{EnumStatus::kSat, std::move(*model)};
      q.cache.insert(q.key, r);
      return LayerAnswer{std::move(r), obs::SolverLayerDetail::kModelReuse};
    }
    if (!q.config.useSubsumption) return std::nullopt;
    // A cached UNSAT key that is a subset of this query proves UNSAT:
    // the query contains a known-unsatisfiable core.
    if (q.cache.subsumesUnsat(q.key)) {
      q.stats.add(statId<"solver.subsumption_hits">());
      EnumResult r{EnumStatus::kUnsat, {}};
      q.cache.insert(q.key, r);
      return LayerAnswer{std::move(r), obs::SolverLayerDetail::kSubsumption};
    }
    // Counterexample reuse over the long-lived pool. Status-only
    // queries: a pool model proves SAT but need not equal the canonical
    // enumeration model, so it must neither reach a model-consuming
    // caller nor enter the exact cache (a later model-consuming query
    // on the same key would be answered from there).
    if (!q.needModel) {
      if (auto model = q.cache.reusePoolModel(q.ctx, q.key)) {
        q.stats.add(statId<"solver.subsumption_hits">());
        return LayerAnswer{{EnumStatus::kSat, std::move(*model)},
                           obs::SolverLayerDetail::kSubsumption};
      }
    }
    return std::nullopt;
  }
};

class SharedCacheLayer final : public SolverLayer {
 public:
  SharedCacheLayer() : SolverLayer(&layerSeries<"shared_cache">) {}

  std::optional<LayerAnswer> query(LayerQuery& q) override {
    if (q.shared == nullptr) return std::nullopt;
    const auto hit = q.shared->lookup(makeSharedQueryKey(q.key));
    if (!hit) return std::nullopt;
    EnumResult r = fromSharedResult(q.ctx, *hit);
    // Fold the hit into the local cache exactly as if this worker had
    // computed it: the shared value is canonical, so the local cache
    // (and its model windows) evolve identically to a run without
    // sharing — which is what keeps exploration results byte-identical.
    if (q.config.useCache) q.cache.insert(q.key, r);
    return LayerAnswer{std::move(r), obs::SolverLayerDetail::kSharedCache};
  }
};

class IntervalLayer final : public SolverLayer {
 public:
  IntervalLayer() : SolverLayer(&layerSeries<"interval">) {}

  std::optional<LayerAnswer> query(LayerQuery& q) override {
    if (!q.config.useIntervals) return std::nullopt;
    if (checkIntervals(q.key, q.intervals) == Feasibility::kInfeasible) {
      q.stats.add(statId<"solver.interval_refutations">());
      EnumResult r{EnumStatus::kUnsat, {}};
      if (q.config.useCache) q.cache.insert(q.key, r);
      publishShared(q, r);
      return LayerAnswer{std::move(r), obs::SolverLayerDetail::kInterval};
    }
    return std::nullopt;
  }
};

class EnumerateLayer final : public SolverLayer {
 public:
  EnumerateLayer() : SolverLayer(&layerSeries<"enumerate">) {}

  std::optional<LayerAnswer> query(LayerQuery& q) override {
    q.stats.add(statId<"solver.enum_runs">());
    EnumResult r =
        enumerateModels(q.ctx, q.key, q.intervals, q.config.enumeration);
    if (r.status == EnumStatus::kExhausted)
      q.stats.add(statId<"solver.exhausted">());
    if (q.config.useCache) q.cache.insert(q.key, r);
    publishShared(q, r);
    return LayerAnswer{std::move(r), obs::SolverLayerDetail::kEnumerated};
  }
};

}  // namespace

LayerSeries::LayerSeries(std::string_view layer) : name(layer) {
  using support::MetricKind;
  using support::StatsRegistry;
  const std::string prefix = "solver.layer." + std::string(layer) + ".";
  queries = StatsRegistry::id(prefix + "queries");
  hits = StatsRegistry::id(prefix + "hits");
  nanos = StatsRegistry::id(prefix + "nanos");
  latency = StatsRegistry::id(prefix + "latency_ns", MetricKind::kHistogram);
}

SolverPipeline::SolverPipeline(expr::Context& ctx, const SolverConfig& config,
                               QueryCache& cache,
                               support::StatsRegistry& stats)
    : ctx_(ctx), config_(config), cache_(cache), stats_(stats) {
  layers_.push_back(std::make_unique<ConstantFoldLayer>());
  layers_.push_back(std::make_unique<CanonicalizeLayer>());
  layers_.push_back(std::make_unique<ExactCacheLayer>());
  layers_.push_back(std::make_unique<SubsumptionLayer>());
  layers_.push_back(std::make_unique<SharedCacheLayer>());
  layers_.push_back(std::make_unique<IntervalLayer>());
  layers_.push_back(std::make_unique<EnumerateLayer>());
}

LayerAnswer SolverPipeline::solve(std::span<const expr::Ref> conjunction,
                                  bool needModel) {
  LayerQuery q{.ctx = ctx_,
               .stats = stats_,
               .config = config_,
               .conjunction = conjunction,
               .key = {},
               .intervals = {},
               .cache = cache_,
               .shared = shared_,
               .needModel = needModel};
  auto last = Clock::now();
  for (const auto& layer : layers_) {
    const LayerSeries& series = layer->series();
    stats_.add(series.queries);
    auto answer = layer->query(q);
    // One clock read per layer: the delta since the previous read is
    // this layer's time (latency attribution, excluded from run
    // fingerprints like every "solver."-prefixed counter).
    const auto now = Clock::now();
    const auto nanos = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - last)
            .count());
    last = now;
    stats_.add(series.nanos, nanos);
    stats_.observe(series.latency, nanos);
    if (answer) {
      stats_.add(series.hits);
      return std::move(*answer);
    }
  }
  SDE_ASSERT(false, "the enumeration layer answers every query");
  return {};
}

}  // namespace sde::solver

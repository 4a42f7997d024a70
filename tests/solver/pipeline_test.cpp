// The layered solver pipeline: canonical-key hygiene, the subsumption
// stores, per-layer counters, pipeline-vs-monolithic equivalence, and
// the shared query store as the thread runner drives it — one mapping,
// many threads (including the concurrent never-fabricates-a-result
// property).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "solver/shared_cache.hpp"
#include "solver/shm_cache.hpp"
#include "solver/solver.hpp"

namespace sde::solver {
namespace {

// A store as the runners make one: an anonymous mapping of the default
// geometry.
std::unique_ptr<ShmQueryCache> privateStore() {
  return std::make_unique<ShmQueryCache>();
}

class PipelineTest : public ::testing::Test {
 protected:
  expr::Context ctx;
  expr::Ref x = ctx.variable("x", 8);
  expr::Ref y = ctx.variable("y", 8);

  expr::Ref k(int v) { return ctx.constant(v, 8); }
};

// --- Canonical key hygiene (trivially-true conjuncts) ------------------------

TEST_F(PipelineTest, TrueConjunctsDoNotChangeTheQueryKey) {
  const std::vector<expr::Ref> bare{ctx.ult(x, k(5))};
  const std::vector<expr::Ref> padded{ctx.ult(x, k(5)), ctx.trueExpr()};
  const std::vector<expr::Ref> paddedFront{ctx.trueExpr(), ctx.ult(x, k(5)),
                                           ctx.trueExpr()};
  const QueryKey key = makeQueryKey(bare);
  EXPECT_EQ(key, makeQueryKey(padded));
  EXPECT_EQ(key, makeQueryKey(paddedFront));
  EXPECT_EQ(key.size(), 1u);
}

TEST_F(PipelineTest, TautologyPaddedQueriesShareOneCacheEntry) {
  QueryCache cache;
  const std::vector<expr::Ref> bare{ctx.ult(x, k(5))};
  const std::vector<expr::Ref> padded{ctx.ult(x, k(5)), ctx.trueExpr()};
  EnumResult result{EnumStatus::kSat, {}};
  result.model.set(x, 0);
  cache.insert(makeQueryKey(bare), result);
  EXPECT_EQ(cache.size(), 1u);
  // The padded spelling maps to the same entry: a hit, no second slot.
  ASSERT_NE(cache.lookup(makeQueryKey(padded)), nullptr);
  cache.insert(makeQueryKey(padded), result);
  EXPECT_EQ(cache.size(), 1u);
}

// --- Subsumption stores ------------------------------------------------------

TEST_F(PipelineTest, UnsatSubsetSubsumesSupersetQueries) {
  QueryCache cache;
  const std::vector<expr::Ref> core{ctx.ult(x, k(5)), ctx.ult(k(5), x)};
  cache.insert(makeQueryKey(core), {EnumStatus::kUnsat, {}});

  std::vector<expr::Ref> superset = core;
  superset.push_back(ctx.ult(y, k(3)));
  EXPECT_TRUE(cache.subsumesUnsat(makeQueryKey(superset)));

  // A disjoint query and a strict *subset* of the UNSAT key are not
  // subsumed (the subset might well be satisfiable).
  const std::vector<expr::Ref> disjoint{ctx.ult(y, k(3))};
  const std::vector<expr::Ref> subset{ctx.ult(x, k(5))};
  EXPECT_FALSE(cache.subsumesUnsat(makeQueryKey(disjoint)));
  EXPECT_FALSE(cache.subsumesUnsat(makeQueryKey(subset)));
}

TEST_F(PipelineTest, PoolModelsAnswerLaterCompatibleQueries) {
  QueryCache cache(/*maxRecentModels=*/0, /*maxPoolModels=*/64);
  EnumResult solved{EnumStatus::kSat, {}};
  solved.model.set(x, 3);
  const std::vector<expr::Ref> pinned{ctx.eq(x, k(3))};
  cache.insert(makeQueryKey(pinned), solved);
  EXPECT_EQ(cache.numPoolModels(), 1u);
  // The recent window is disabled, so a hit can only come from the pool.
  const std::vector<expr::Ref> compatible{ctx.ult(x, k(10))};
  EXPECT_EQ(cache.reuseModel(ctx, compatible), std::nullopt);
  const auto model = cache.reusePoolModel(ctx, compatible);
  ASSERT_TRUE(model.has_value());
  EXPECT_EQ(model->get(x), std::optional<std::uint64_t>(3));
  // A model that violates the query is never returned.
  const std::vector<expr::Ref> violated{ctx.eq(x, k(4))};
  EXPECT_EQ(cache.reusePoolModel(ctx, violated), std::nullopt);
}

// --- Per-layer counters ------------------------------------------------------

TEST_F(PipelineTest, EveryLayerReportsTrafficThroughStats) {
  Solver solver(ctx);
  ConstraintSet cs;
  cs.add(ctx.ult(x, k(5)));
  cs.add(ctx.ult(k(5), x));  // UNSAT pair
  EXPECT_FALSE(solver.mayBeTrue(cs, ctx.trueExpr()));
  EXPECT_FALSE(solver.mayBeTrue(cs, ctx.trueExpr()));  // cache hit
  ConstraintSet sat;
  sat.add(ctx.ult(x, k(5)));
  EXPECT_TRUE(solver.mayBeTrue(sat, ctx.eq(x, k(2))));

  // Every visit is counted once, in the solver's registry: queries, hits
  // and nanos as scalars, and the same visit's latency in the layer's
  // histogram (a live-only series).
  std::map<std::string, std::uint64_t> latencyCounts;
  for (const auto& series : solver.stats().series())
    if (series.histogram != nullptr)
      latencyCounts[series.name] = series.histogram->count;
  for (const auto& layer : solver.pipeline().layers()) {
    const std::string prefix = "solver.layer." + std::string(layer->name());
    const LayerSeries& series = layer->series();
    const std::uint64_t queries = solver.stats().get(prefix + ".queries");
    EXPECT_GT(queries, 0u) << "no traffic through layer " << layer->name();
    EXPECT_EQ(solver.stats().get(series.queries), queries);
    EXPECT_EQ(solver.stats().get(series.hits),
              solver.stats().get(prefix + ".hits"));
    EXPECT_LE(solver.stats().get(series.hits), queries);
    EXPECT_EQ(latencyCounts[prefix + ".latency_ns"], queries);
    EXPECT_EQ(solver.stats().all().count(prefix + ".latency_ns"), 0u)
        << "histograms stay out of the post-run rendering";
  }
  // The exact cache answered the repeated query; enumeration answered
  // the first.
  EXPECT_GT(solver.stats().get("solver.layer.exact_cache.hits"), 0u);
  EXPECT_GT(solver.stats().get("solver.layer.enumerate.hits"), 0u);
}

// --- Pipeline vs monolithic differential -------------------------------------

TEST_F(PipelineTest, PipelineMatchesMonolithicOnRandomQueries) {
  SolverConfig monolithic;
  monolithic.usePipeline = false;
  // The subsumption layers are pipeline-only; disable them so the two
  // solvers run the same algorithms (the full-stack equivalence is
  // covered end-to-end by tests/sde/parallel_equivalence_test.cpp).
  monolithic.useSubsumption = false;
  SolverConfig layered;
  layered.useSubsumption = false;
  Solver a(ctx, layered);
  Solver b(ctx, monolithic);

  std::mt19937 rng(20260807);
  std::uniform_int_distribution<int> val(0, 12);
  std::uniform_int_distribution<int> pick(0, 3);
  for (int round = 0; round < 200; ++round) {
    ConstraintSet cs;
    const int n = 1 + pick(rng);
    for (int i = 0; i < n; ++i) {
      expr::Ref var = (pick(rng) % 2 == 0) ? x : y;
      expr::Ref c = k(val(rng));
      switch (pick(rng)) {
        case 0: cs.add(ctx.ult(var, c)); break;
        case 1: cs.add(ctx.ult(c, var)); break;
        case 2: cs.add(ctx.eq(var, c)); break;
        default: cs.add(ctx.ne(var, c)); break;
      }
    }
    expr::Ref cond = ctx.ult(x, k(val(rng)));
    EXPECT_EQ(a.mayBeTrue(cs, cond), b.mayBeTrue(cs, cond)) << "round "
                                                            << round;
    EXPECT_EQ(a.classify(cs, cond), b.classify(cs, cond)) << "round "
                                                          << round;
    EXPECT_EQ(a.getValue(cs, x), b.getValue(cs, x)) << "round " << round;
    const auto ma = a.getModel(cs);
    const auto mb = b.getModel(cs);
    ASSERT_EQ(ma.has_value(), mb.has_value()) << "round " << round;
    if (ma.has_value())
      EXPECT_EQ(ma->entries(), mb->entries()) << "round " << round;
  }
}

// --- The shared query store ------------------------------------------------

TEST_F(PipelineTest, SharedCacheRoundTripsAcrossContexts) {
  const auto shared = privateStore();
  Solver producer(ctx);
  producer.setSharedCache(shared.get());
  ConstraintSet cs;
  cs.add(ctx.ult(x, k(5)));
  EXPECT_TRUE(producer.mayBeTrue(cs, ctx.eq(x, k(2))));
  EXPECT_GT(shared->entries(), 0u);

  // A second worker with its *own* context poses the same conjunction
  // and is answered from the shared cache, not by enumeration.
  expr::Context ctx2;
  Solver consumer(ctx2, {});
  consumer.setSharedCache(shared.get());
  expr::Ref x2 = ctx2.variable("x", 8);
  ConstraintSet cs2;
  cs2.add(ctx2.ult(x2, ctx2.constant(5, 8)));
  EXPECT_TRUE(consumer.mayBeTrue(cs2, ctx2.eq(x2, ctx2.constant(2, 8))));
  // The consumer's own registry counts the traffic: every shared-layer
  // visit was a hit.
  const auto& stats = consumer.stats();
  EXPECT_GT(stats.get("solver.layer.shared_cache.hits"), 0u);
  EXPECT_EQ(stats.get("solver.layer.shared_cache.hits"),
            stats.get("solver.layer.shared_cache.queries"));
  EXPECT_EQ(stats.get("solver.enum_runs"), 0u);
}

// Property: under concurrent insert/lookup from the threads of one
// process (the thread runner's traffic) the store never returns a
// result for a key no thread actually published, what it returns is
// exactly what was published for that key, and each key is published
// by exactly one insert.
TEST_F(PipelineTest, SharedCacheNeverFabricatesResultsUnderConcurrency) {
  const auto shared = privateStore();
  constexpr std::uint64_t kUniverse = 512;  // keys {0..511}
  constexpr int kWriters = 4;
  constexpr int kReaders = 4;

  // The canonical value for key {i} — deterministic, so every writer
  // publishes the same result (the invariant the real pipeline upholds).
  const auto valueFor = [](std::uint64_t i) {
    SharedQueryResult r;
    r.status = (i % 3 == 0) ? EnumStatus::kUnsat : EnumStatus::kSat;
    if (r.status == EnumStatus::kSat)
      r.model.push_back({"v" + std::to_string(i), 8, i & 0xff});
    return r;
  };

  // Each writer publishes a pseudo-random half of the universe and
  // keeps the keys its own inserts published.
  std::vector<std::vector<std::uint64_t>> published(kWriters);
  std::vector<std::vector<std::uint64_t>> won(kWriters);
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      std::mt19937_64 rng(1000 + w);
      for (int i = 0; i < 2000; ++i) {
        const std::uint64_t key = rng() % kUniverse;
        const InsertOutcome outcome = shared->insert({key}, valueFor(key));
        EXPECT_NE(outcome, InsertOutcome::kDropped) << "key " << key;
        if (outcome == InsertOutcome::kPublished) won[w].push_back(key);
        published[w].push_back(key);
      }
    });
  }
  // Readers record every hit they observe.
  std::vector<std::vector<std::pair<std::uint64_t, SharedQueryResult>>> hits(
      kReaders);
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      std::mt19937_64 rng(9000 + r);
      for (int i = 0; i < 4000; ++i) {
        const std::uint64_t key = rng() % kUniverse;
        if (const auto result = shared->lookup({key}))
          hits[r].emplace_back(key, *result);
      }
    });
  }
  for (auto& t : threads) t.join();

  std::vector<bool> wasPublished(kUniverse, false);
  for (const auto& keys : published)
    for (const std::uint64_t key : keys) wasPublished[key] = true;
  // First writer wins: every inserted key was published exactly once.
  std::vector<int> wins(kUniverse, 0);
  for (const auto& keys : won)
    for (const std::uint64_t key : keys) ++wins[key];
  for (std::uint64_t key = 0; key < kUniverse; ++key)
    EXPECT_EQ(wins[key], wasPublished[key] ? 1 : 0) << "key " << key;
  EXPECT_EQ(shared->entries(),
            static_cast<std::uint64_t>(
                std::count(wasPublished.begin(), wasPublished.end(), true)));
  for (const auto& readerHits : hits) {
    for (const auto& [key, result] : readerHits) {
      ASSERT_LT(key, kUniverse);
      EXPECT_TRUE(wasPublished[key])
          << "lookup returned a result for key " << key
          << " that no writer published";
      EXPECT_EQ(result, valueFor(key)) << "key " << key;
    }
  }
  // Sanity: the property was actually exercised.
  std::size_t totalHits = 0;
  for (const auto& readerHits : hits) totalHits += readerHits.size();
  EXPECT_GT(totalHits, 0u);
}

}  // namespace
}  // namespace sde::solver

// QueryCache property test (the cache is shared-nothing per job in the
// parallel execution modes, so its soundness property carries the
// design): a model returned by reuseModel ALWAYS satisfies the query it
// was reused for — reuse is verified by evaluation, never assumed.
#include <gtest/gtest.h>

#include <vector>

#include "solver/cache.hpp"
#include "solver/solver.hpp"
#include "support/rng.hpp"

namespace sde::solver {
namespace {

// Random conjunctions over a small pool of narrow variables: satisfiable
// often, unsatisfiable sometimes, with heavy key overlap across draws.
class QueryGen {
 public:
  QueryGen(expr::Context& ctx, std::uint64_t seed) : ctx_(ctx), rng_(seed) {
    for (int i = 0; i < 4; ++i)
      vars_.push_back(ctx_.variable("q" + std::to_string(i), 4));
  }

  std::vector<expr::Ref> query() {
    std::vector<expr::Ref> constraints;
    const std::uint64_t count = 1 + rng_.below(4);
    for (std::uint64_t i = 0; i < count; ++i) {
      expr::Ref var = vars_[rng_.below(vars_.size())];
      expr::Ref bound = ctx_.constant(rng_.below(16), 4);
      switch (rng_.below(4)) {
        case 0:
          constraints.push_back(ctx_.ult(var, bound));
          break;
        case 1:
          constraints.push_back(ctx_.uge(var, bound));
          break;
        case 2:
          constraints.push_back(ctx_.eq(var, bound));
          break;
        default:
          constraints.push_back(
              ctx_.ne(ctx_.bvXor(var, vars_[rng_.below(vars_.size())]),
                      bound));
          break;
      }
    }
    return constraints;
  }

 private:
  expr::Context& ctx_;
  support::Rng rng_;
  std::vector<expr::Ref> vars_;
};

bool satisfies(std::span<const expr::Ref> constraints,
               const expr::Assignment& model) {
  for (expr::Ref c : constraints)
    if (expr::evaluate(c, model) == 0) return false;
  return true;
}

TEST(CachePropertyTest, ReusedModelAlwaysSatisfiesTheNewQuery) {
  expr::Context ctx;
  Solver solver(ctx);
  QueryGen gen(ctx, 99);

  int reuses = 0;
  for (int round = 0; round < 300; ++round) {
    const std::vector<expr::Ref> constraints = gen.query();
    // Populate the recent-model pool through the solver's own path.
    solver::ConstraintSet set;
    for (expr::Ref c : constraints) set.add(c);
    (void)solver.getModel(set);

    // Property: whatever model the cache offers for the NEXT query must
    // satisfy it, even though it was found for a different query.
    const std::vector<expr::Ref> next = gen.query();
    if (const auto reused = solver.cache().reuseModel(ctx, next)) {
      ++reuses;
      EXPECT_TRUE(satisfies(next, *reused)) << "round " << round;
    }
  }
  // The workload overlaps heavily, so reuse must actually trigger —
  // otherwise the property above was vacuous.
  EXPECT_GT(reuses, 10);
}

}  // namespace
}  // namespace sde::solver

#include "solver/cache.hpp"

#include <algorithm>

#include "support/hash.hpp"

namespace sde::solver {

QueryKey makeQueryKey(std::span<const expr::Ref> constraints) {
  QueryKey key;
  key.reserve(constraints.size());
  // Tautological conjuncts carry no information; dropping them before
  // sorting makes {x<5, true} and {x<5} the same key (and lets the
  // all-true conjunction collapse to the empty key, answered without
  // touching any cache).
  for (expr::Ref c : constraints)
    if (!c->isTrue()) key.push_back(c);
  // Sort by structural hash (stable across runs), breaking the
  // astronomically-unlikely ties by pointer for total order within a run.
  std::sort(key.begin(), key.end(), [](expr::Ref a, expr::Ref b) {
    return a->hash() != b->hash() ? a->hash() < b->hash() : a < b;
  });
  key.erase(std::unique(key.begin(), key.end()), key.end());
  return key;
}

std::size_t QueryCache::KeyHash::operator()(const QueryKey& key) const {
  support::Hasher h;
  for (expr::Ref c : key) h.u64(c->hash());
  return static_cast<std::size_t>(h.digest());
}

const EnumResult* QueryCache::lookup(const QueryKey& key) const {
  const auto it = results_.find(key);
  return it == results_.end() ? nullptr : &it->second;
}

void QueryCache::insert(const QueryKey& key, EnumResult result) {
  if (result.status == EnumStatus::kSat) {
    recentModels_.push_front(result.model);
    if (recentModels_.size() > maxRecentModels_) recentModels_.pop_back();
  }
  const auto [it, inserted] = results_.emplace(key, std::move(result));
  if (inserted) indexResult(it->first, it->second);
}

void QueryCache::indexResult(const QueryKey& key, const EnumResult& result) {
  switch (result.status) {
    case EnumStatus::kUnsat: {
      const auto id = static_cast<std::uint32_t>(unsatKeys_.size());
      unsatKeys_.push_back(static_cast<std::uint32_t>(key.size()));
      for (expr::Ref c : key) unsatPostings_[c].push_back(id);
      break;
    }
    case EnumStatus::kSat:
      poolModels_.push_front(result.model);
      if (poolModels_.size() > maxPoolModels_) poolModels_.pop_back();
      break;
    case EnumStatus::kExhausted:
      break;
  }
}

bool QueryCache::subsumesUnsat(const QueryKey& key) const {
  if (unsatKeys_.empty() || key.empty()) return false;
  // Count, per cached UNSAT key, how many of its conjuncts appear in
  // the query. A key whose count reaches its size is a subset of the
  // query; the query then contains an unsatisfiable core. (Keys are
  // deduplicated, so counting occurrences is counting distinct members.)
  std::unordered_map<std::uint32_t, std::uint32_t> seen;
  for (expr::Ref c : key) {
    const auto it = unsatPostings_.find(c);
    if (it == unsatPostings_.end()) continue;
    for (const std::uint32_t id : it->second) {
      // Exact matches are the exact-key layer's job; subsumption only
      // needs proper subsets, but catching equality here is harmless.
      if (++seen[id] == unsatKeys_[id]) return true;
    }
  }
  return false;
}

std::optional<expr::Assignment> QueryCache::reuseFrom(
    const std::deque<expr::Assignment>& models, const expr::Context& ctx,
    std::span<const expr::Ref> constraints) const {
  std::vector<expr::Ref> queryVars;
  for (expr::Ref c : constraints) ctx.collectVariables(c, queryVars);

  for (const expr::Assignment& model : models) {
    // Build a candidate restricted to the query's own variables (zero
    // where the stored model is silent). Restricting matters: callers
    // merge per-component models, and stray bindings for unrelated
    // variables would clobber other components' results.
    expr::Assignment candidate;
    for (expr::Ref v : queryVars) candidate.set(v, model.get(v).value_or(0));
    const bool satisfies =
        std::all_of(constraints.begin(), constraints.end(), [&](expr::Ref c) {
          return expr::evaluate(c, candidate) != 0;
        });
    if (satisfies) return candidate;
  }
  return std::nullopt;
}

std::optional<expr::Assignment> QueryCache::reuseModel(
    const expr::Context& ctx, std::span<const expr::Ref> constraints) const {
  return reuseFrom(recentModels_, ctx, constraints);
}

std::optional<expr::Assignment> QueryCache::reusePoolModel(
    const expr::Context& ctx, std::span<const expr::Ref> constraints) const {
  return reuseFrom(poolModels_, ctx, constraints);
}

void QueryCache::restoreSnapshot(
    std::vector<std::pair<QueryKey, EnumResult>> results,
    std::deque<expr::Assignment> recentModels,
    std::deque<expr::Assignment> poolModels) {
  clear();
  for (auto& [key, result] : results) {
    const auto [it, inserted] = results_.emplace(std::move(key),
                                                 std::move(result));
    // Rebuild the UNSAT subsumption index from the restored results
    // (the model pool, being ordered history, is restored verbatim
    // below rather than re-derived).
    if (inserted && it->second.status == EnumStatus::kUnsat) {
      const auto id = static_cast<std::uint32_t>(unsatKeys_.size());
      unsatKeys_.push_back(static_cast<std::uint32_t>(it->first.size()));
      for (expr::Ref c : it->first) unsatPostings_[c].push_back(id);
    }
  }
  recentModels_ = std::move(recentModels);
  while (recentModels_.size() > maxRecentModels_) recentModels_.pop_back();
  poolModels_ = std::move(poolModels);
  while (poolModels_.size() > maxPoolModels_) poolModels_.pop_back();
}

void QueryCache::clear() {
  results_.clear();
  recentModels_.clear();
  poolModels_.clear();
  unsatKeys_.clear();
  unsatPostings_.clear();
}

}  // namespace sde::solver

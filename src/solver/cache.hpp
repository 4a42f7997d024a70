// Query caching for the SDE workload profile: thousands of states share
// long identical constraint prefixes, so (a) an exact-key result cache,
// (b) reuse of recently found models (a model satisfying the new query
// proves SAT without any search), and (c) subsumption over the whole
// result store — a cached UNSAT key that is a *subset* of the query
// proves the query UNSAT, and any cached model satisfying the query
// proves it SAT (KLEE-style counterexample reuse) — all hit very often.
// Each solver owns one. The partition jobs of a run share solved queries
// across their solvers live, through the run's shared store
// (shared_cache.hpp), never by merging caches.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "expr/context.hpp"
#include "expr/eval.hpp"
#include "solver/enum_solver.hpp"

namespace sde::solver {

// Canonical cache key: the constraint conjunction as a sorted vector of
// interned nodes (sorting makes the key order-independent; interning
// makes pointer comparison structural). Trivially-true conjuncts are
// dropped before sorting so tautologies never pollute the key space:
// {x<5, true} and {x<5} share one cache entry.
using QueryKey = std::vector<expr::Ref>;

[[nodiscard]] QueryKey makeQueryKey(std::span<const expr::Ref> constraints);

class QueryCache {
 public:
  struct KeyHash {
    std::size_t operator()(const QueryKey& key) const;
  };

  explicit QueryCache(std::size_t maxRecentModels = 8,
                      std::size_t maxPoolModels = 64)
      : maxRecentModels_(maxRecentModels), maxPoolModels_(maxPoolModels) {}

  // Exact-key result lookup.
  [[nodiscard]] const EnumResult* lookup(const QueryKey& key) const;
  void insert(const QueryKey& key, EnumResult result);

  // Tries each recently stored model against `constraints`; returns the
  // first satisfying one. Unbound variables default to zero (sound:
  // satisfaction is verified by evaluation, never assumed).
  [[nodiscard]] std::optional<expr::Assignment> reuseModel(
      const expr::Context& ctx,
      std::span<const expr::Ref> constraints) const;

  // --- Subsumption (the pipeline's fourth layer) -----------------------------
  // Is some cached-UNSAT key a subset of `key`? A superset of an
  // unsatisfiable conjunction is unsatisfiable, so a hit proves UNSAT
  // without touching the query itself. Backed by an inverted index
  // (constraint -> UNSAT keys containing it), so the cost is the
  // postings touched, not the store size.
  [[nodiscard]] bool subsumesUnsat(const QueryKey& key) const;

  // Counterexample reuse beyond the recent-model window: tries the
  // longer-lived model pool (every distinct solved SAT result feeds it,
  // FIFO-bounded) the same verified way reuseModel does.
  [[nodiscard]] std::optional<expr::Assignment> reusePoolModel(
      const expr::Context& ctx,
      std::span<const expr::Ref> constraints) const;

  [[nodiscard]] std::size_t size() const { return results_.size(); }
  [[nodiscard]] std::size_t numRecentModels() const {
    return recentModels_.size();
  }
  [[nodiscard]] std::size_t numPoolModels() const {
    return poolModels_.size();
  }
  [[nodiscard]] std::size_t numUnsatKeys() const { return unsatKeys_.size(); }
  void clear();

  // --- Snapshot support ----------------------------------------------------
  // The model deques are ordered state: reuseModel()/reusePoolModel()
  // return the *first* satisfying model, so a restored cache must
  // reproduce both deques exactly or resumed runs could pin symbolic
  // values to different (equally valid) models than the uninterrupted
  // run. The UNSAT subsumption index is derived state: restoreSnapshot
  // rebuilds it from the restored result entries.
  [[nodiscard]] const std::unordered_map<QueryKey, EnumResult, KeyHash>&
  results() const {
    return results_;
  }
  [[nodiscard]] const std::deque<expr::Assignment>& recentModels() const {
    return recentModels_;
  }
  [[nodiscard]] const std::deque<expr::Assignment>& poolModels() const {
    return poolModels_;
  }
  void restoreSnapshot(std::vector<std::pair<QueryKey, EnumResult>> results,
                       std::deque<expr::Assignment> recentModels,
                       std::deque<expr::Assignment> poolModels);

 private:
  // Registers a newly inserted key in the subsumption stores.
  void indexResult(const QueryKey& key, const EnumResult& result);
  [[nodiscard]] std::optional<expr::Assignment> reuseFrom(
      const std::deque<expr::Assignment>& models, const expr::Context& ctx,
      std::span<const expr::Ref> constraints) const;

  std::unordered_map<QueryKey, EnumResult, KeyHash> results_;
  std::deque<expr::Assignment> recentModels_;
  std::deque<expr::Assignment> poolModels_;
  // Inverted index over the UNSAT result keys: unsatKeys_[i] is the
  // size of UNSAT key i, unsatPostings_[c] lists the UNSAT keys
  // containing constraint c. Derived from results_; never serialized.
  std::vector<std::uint32_t> unsatKeys_;
  std::unordered_map<expr::Ref, std::vector<std::uint32_t>> unsatPostings_;
  std::size_t maxRecentModels_;
  std::size_t maxPoolModels_;
};

}  // namespace sde::solver

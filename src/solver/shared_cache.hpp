// The context-independent rendering of a solved query, shared live
// between the partition jobs of one run (threads of the thread runner,
// worker processes of a fleet) through solver::ShmQueryCache.
//
// Partition jobs explore overlapping constraint prefixes — "Divide,
// Conquer and Verify"-style sharing of solved queries across jobs is
// where most redundant solver time goes. Each job's solver consults the
// store *during* exploration and publishes the results it computes, so
// a query any job has already solved is never enumerated again.
//
// Two properties make live sharing safe:
//
//  * Context independence. Jobs own disjoint expr::Contexts, so Refs
//    cannot cross jobs. Keys are the sorted structural-hash vectors of
//    the canonical query key (variables hash by name, so the same
//    conjunction built in any context produces the same key), and
//    models are serialized per variable as (name, width, value) and
//    re-interned by the consumer.
//
//  * Canonical values only. The store accepts exclusively results whose
//    content is a pure function of the structural key — interval
//    refutations and enumerated models (enumeration orders variables by
//    structural hash, not by context-local interning ids, exactly so
//    that every job would compute the identical model). History-
//    dependent answers (recent-model reuse, subsumption) are never
//    published. First writer wins; because values are canonical, the
//    winner is irrelevant and exploration results stay byte-identical
//    for any worker count, with the store attached or not.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "expr/context.hpp"
#include "solver/cache.hpp"
#include "solver/enum_solver.hpp"

namespace sde::solver {

// Context-independent rendering of a canonical QueryKey: the structural
// hash of each conjunct, in key order (the key is already sorted by
// hash). Equal conjunction sets produce equal hash vectors in every
// context; distinct sets collide only on a 64-bit structural-hash
// collision (the same astronomically-unlikely event the per-job cache's
// hash-sorted key order already relies on).
using SharedQueryKey = std::vector<std::uint64_t>;

[[nodiscard]] SharedQueryKey makeSharedQueryKey(const QueryKey& key);

// One variable binding of a shared model, by name (the cross-context
// identity of a variable).
struct SharedBinding {
  std::string name;
  unsigned width = 0;
  std::uint64_t value = 0;

  [[nodiscard]] bool operator==(const SharedBinding&) const = default;
};

// A cached canonical result: the enum status plus, for kSat, the
// canonical model (name-sorted bindings).
struct SharedQueryResult {
  EnumStatus status = EnumStatus::kExhausted;
  std::vector<SharedBinding> model;

  [[nodiscard]] bool operator==(const SharedQueryResult&) const = default;
};

// Converts between job-local results and the shared representation.
[[nodiscard]] SharedQueryResult toSharedResult(const EnumResult& result);
[[nodiscard]] EnumResult fromSharedResult(expr::Context& ctx,
                                          const SharedQueryResult& result);

}  // namespace sde::solver

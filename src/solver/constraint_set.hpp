// A path-constraint set: the conjunction of boolean terms collected at
// symbolic branches along one execution path. Terms are deduplicated
// (interning makes structural equality pointer equality) and kept in
// insertion order so that test-case generation is reproducible.
//
// Storage is a persistent chunked sequence (support::PVector): a forked
// state shares every sealed chunk of its parent's constraint history and
// copies only the small mutable tail, so copying a ConstraintSet is O(1)
// in the number of constraints — the solver sees the same insertion
// order either way.
#pragma once

#include <cstdint>
#include <vector>

#include "expr/context.hpp"
#include "expr/expr.hpp"
#include "support/pvector.hpp"

namespace sde::solver {

class ConstraintSet {
 public:
  using Items = support::PVector<expr::Ref>;

  ConstraintSet() = default;

  enum class AddResult {
    kAdded,            // new non-trivial constraint recorded
    kRedundant,        // constant true or already present
    kTriviallyFalse};  // constant false: the path is infeasible

  AddResult add(expr::Ref c);

  [[nodiscard]] bool contains(const expr::Ref& c) const;
  [[nodiscard]] const Items& items() const { return constraints_; }
  // Flat copy for callers that need contiguous storage (the solver
  // facade slices with std::span).
  [[nodiscard]] std::vector<expr::Ref> toVector() const;
  [[nodiscard]] std::size_t size() const { return constraints_.size(); }
  [[nodiscard]] bool empty() const { return constraints_.empty(); }

  // Order-independent fingerprint of the conjunction; equal sets (as
  // sets) hash equal regardless of insertion order. Maintained
  // incrementally — never recomputed by walking the history.
  [[nodiscard]] std::uint64_t setHash() const { return setHash_; }

  // The distinct variables constrained by this set, ordered by variable
  // interning id (deterministic).
  [[nodiscard]] std::vector<expr::Ref> variables(
      const expr::Context& ctx) const;

  // --- Fork cost / memory accounting -----------------------------------------
  [[nodiscard]] std::uint64_t copyCostElements() const {
    return constraints_.copyCostElements();
  }
  [[nodiscard]] std::uint64_t sharedChunksOnCopy() const {
    return constraints_.sharedChunksOnCopy();
  }
  [[nodiscard]] std::uint64_t privateBytes() const {
    return constraints_.privateBytes();
  }
  [[nodiscard]] std::uint64_t accountBytes(support::SeenSet& seen) const {
    return constraints_.accountBytes(seen);
  }

  // --- Snapshot support --------------------------------------------------------
  // Swaps in a deserialized sequence (chunks shared through the snapshot
  // blob table) and recomputes the incremental fingerprint.
  void restoreSnapshot(Items items);

 private:
  Items constraints_;
  std::uint64_t setHash_ = 0;
};

}  // namespace sde::solver

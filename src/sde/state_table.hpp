// Per-state side tables indexed by the dense StateId. Ids are dense:
// Engine::boot and Engine::cloneInternal hand out the next one, and
// Engine::restore rejects a checkpoint whose ids were never allocated or
// repeat. So per-state bookkeeping is a vector indexed by id: a lookup
// without hashing, walked in id order for free (DESIGN.md §22).
#pragma once

#include <cstddef>
#include <span>
#include <type_traits>
#include <vector>

#include "vm/state.hpp"

namespace sde {

// A vector indexed by StateId whose empty slot — a value-initialised T
// (nullptr, 0) — means "absent". It grows on insert; erasing empties the
// slot (ids are never reused, so nothing shrinks).
template <typename T>
class StateTable {
  // std::vector<bool> hands out proxies, not references to its slots.
  static_assert(!std::is_same_v<T, bool>, "use std::uint8_t for a flag");

 public:
  // The entry of `id`, or an empty T when the table has none.
  [[nodiscard]] const T& operator[](vm::StateId id) const {
    static const T kEmpty{};
    return id < slots_.size() ? slots_[id] : kEmpty;
  }
  // The slot of `id`, grown (empty) on first use. Growing moves the
  // slots, so a reference from an earlier call may dangle.
  [[nodiscard]] T& slot(vm::StateId id) {
    if (id >= slots_.size()) slots_.resize(id + 1);
    return slots_[id];
  }
  void erase(vm::StateId id) {
    if (id < slots_.size()) slots_[id] = T{};
  }
  // Number of non-empty slots (a walk over every slot).
  [[nodiscard]] std::size_t count() const {
    std::size_t entries = 0;
    for (const T& entry : slots_)
      if (static_cast<bool>(entry)) ++entries;
    return entries;
  }
  // Every slot in id order (the index is the StateId).
  [[nodiscard]] std::span<const T> slots() const { return slots_; }

 private:
  std::vector<T> slots_;
};

}  // namespace sde

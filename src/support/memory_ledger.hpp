// The simulated-memory meter's bookkeeping (DESIGN.md §14).
//
// The meter charges every state its private bytes plus, once however
// many states reach it, every heap block that states share: memory-object
// payloads, sealed PVector chunks and CowVec payloads. Two
// implementations of that one quantity live here:
//
//  * MemoryLedger — the production meter. A shared block bills the ledger
//    that is active on its thread when the block is made, re-bills its
//    in-place changes, and un-bills itself when it is freed, so the
//    shared total is always current and reading it is free. An engine
//    makes its ledger active while it runs (MemoryLedger::Scope); that is
//    how a block finds the engine whose state made it when several
//    engines share one process or one thread.
//  * SeenSet — the visited set of the audit walk (accountBytes), which
//    prices every state and charges each shared block on first visit.
//    The walk is O(heap); it stays as the oracle the ledger is checked
//    against, in tests and under EngineConfig::checkInvariants.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "support/hash.hpp"

namespace sde::support {

// Bytes of the shared blocks billed to one engine. Not thread-safe: like
// the engine that owns it, a ledger is used by one thread at a time.
class MemoryLedger {
 public:
  // A new ledger owned by the caller, who frees it with release(). Every
  // block billed to it holds a reference too, so a block that outlives
  // its engine still has a ledger to un-bill.
  [[nodiscard]] static MemoryLedger* create() { return new MemoryLedger; }
  void release() {
    if (--refs_ == 0) delete this;
  }
  struct Release {
    void operator()(MemoryLedger* ledger) const { ledger->release(); }
  };

  MemoryLedger(const MemoryLedger&) = delete;
  MemoryLedger& operator=(const MemoryLedger&) = delete;

  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }

  // The ledger that blocks made on this thread bill, or nullptr: blocks
  // made outside any engine (a test's stand-alone state, post-run test
  // generation) are not metered.
  [[nodiscard]] static MemoryLedger* active() { return active_; }

  // Makes `ledger` the active one for the lifetime of the scope.
  class Scope {
   public:
    explicit Scope(MemoryLedger* ledger) : previous_(active_) {
      active_ = ledger;
    }
    ~Scope() { active_ = previous_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    MemoryLedger* previous_;
  };

  // Block lifetime hooks (BilledVector).
  void attach(std::uint64_t bytes) {
    bytes_ += bytes;
    ++refs_;
  }
  void detach(std::uint64_t bytes) {
    bytes_ -= bytes;
    release();
  }
  void rebill(std::uint64_t added, std::uint64_t removed) {
    bytes_ += added;
    bytes_ -= removed;
  }

 private:
  MemoryLedger() = default;

  static inline thread_local MemoryLedger* active_ = nullptr;
  std::uint64_t bytes_ = 0;
  std::uint64_t refs_ = 1;  // the owner's
};

// Prices an element at sizeof(T): the default for elements that own no
// heap memory of their own.
template <typename T>
struct SizeofBytes {
  static constexpr std::uint64_t of(const T&) { return sizeof(T); }
};

// A heap block that states share: a vector billed, for as long as it
// lives, to the ledger that was active when it was made. ItemBytes::of
// prices one element; the block costs the sum over its elements. Owners
// that change the elements in place report the change with rebill().
template <typename T, typename ItemBytes = SizeofBytes<T>>
class BilledVector : public std::vector<T> {
 public:
  explicit BilledVector(std::vector<T> items)
      : std::vector<T>(std::move(items)), ledger_(MemoryLedger::active()) {
    if (ledger_ != nullptr) ledger_->attach(bytes());
  }
  ~BilledVector() {
    if (ledger_ != nullptr) ledger_->detach(bytes());
  }
  BilledVector(const BilledVector&) = delete;
  BilledVector& operator=(const BilledVector&) = delete;

  // What the meter charges for this block.
  [[nodiscard]] std::uint64_t bytes() const {
    std::uint64_t bytes = 0;
    for (const T& item : *this) bytes += ItemBytes::of(item);
    return bytes;
  }

  // Bills an in-place change: `added` bytes of elements inserted and
  // `removed` bytes erased since the block was last billed.
  void rebill(std::uint64_t added, std::uint64_t removed) {
    if (ledger_ != nullptr) ledger_->rebill(added, removed);
  }

 private:
  MemoryLedger* ledger_;
};

// The audit walk's visited-block set: open addressing over block
// addresses, each slot stamped with the walk (epoch) that filled it, so a
// new walk forgets the previous one in O(1) and reuses the table without
// clearing or reallocating it. The table grows on first use, not before.
class SeenSet {
 public:
  // Starts a new walk: every block is unseen again.
  void reset() {
    size_ = 0;
    if (++epoch_ == 0) {  // the stamps wrapped: wipe them once
      std::fill(slots_.begin(), slots_.end(), Slot{});
      epoch_ = 1;
    }
  }

  // True the first time `block` is inserted since the last reset().
  bool insert(const void* block) {
    if ((size_ + 1) * 2 > slots_.size()) grow();
    Slot& slot = probe(block);
    if (slot.epoch == epoch_) return false;
    slot = Slot{block, epoch_};
    ++size_;
    return true;
  }

  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  struct Slot {
    const void* block = nullptr;
    std::uint32_t epoch = 0;  // the walk that filled the slot
  };

  // The slot holding `block` in this walk, or the free slot it belongs in.
  Slot& probe(const void* block) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = mix64(reinterpret_cast<std::uintptr_t>(block)) & mask;
    while (slots_[i].epoch == epoch_ && slots_[i].block != block)
      i = (i + 1) & mask;
    return slots_[i];
  }

  void grow() {
    std::vector<Slot> old(std::max<std::size_t>(64, 2 * slots_.size()));
    old.swap(slots_);
    for (const Slot& slot : old)
      if (slot.epoch == epoch_) probe(slot.block) = slot;
  }

  std::vector<Slot> slots_;  // a power of two in size
  std::size_t size_ = 0;
  std::uint32_t epoch_ = 1;
};

}  // namespace sde::support

// Persistent, structurally-shared sequences — the state-fork cost model.
//
// The paper's Table I is a memory story: COB dies at the RAM cap because
// every local branch copies all k-1 sibling states. Our ExecutionState
// used to deep-copy its append-only histories (constraints, comm log,
// decision log, symbolic inputs) on every fork; these containers make
// that copy O(1) by the same discipline AddressSpace applies to memory
// objects, extended to sequences:
//
//  * PVector<T>  — an append-only sequence stored as immutable, shared
//    chunks of kChunkCapacity elements plus a small unsealed tail.
//    Copying shares every sealed chunk (one shared_ptr spine copy) and
//    the tail (one more reference); the first push after a copy clones
//    the tail (< kChunkCapacity elements, at its exact size), so a fork
//    costs O(1) in the sequence length and copies nothing until one side
//    appends. Sealing a full tail copies the spine pointer array —
//    amortised one pointer per push.
//
//  * CowVec<T>   — a random-access sequence shared whole-sale between
//    copies; the first mutation after a copy clones the payload (the
//    event queue needs erase-in-the-middle, which chunk sharing cannot
//    express). Copying is O(1); mutation is pay-on-write.
//
// Both containers keep their shared payloads in billed blocks
// (support::BilledVector), which the engine's memory ledger meters from
// creation to destruction; the audit walk (accountBytes) charges each
// block once through a SeenSet. A PVector tail is not a billed block:
// the meter prices it in every copy's private bytes, shared or not, so
// the paper-model RAM does not depend on when a tail is cloned. A copy
// shares chunks, the tail or the payload and does nothing else: no
// process-wide state is read or written, so workers on different
// threads fork without touching a common cache line (sharing stays
// within one engine). tests/support/pvector_model_test.cpp holds both
// containers to a std::vector model.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <vector>

#include "support/assert.hpp"
#include "support/memory_ledger.hpp"

namespace sde::support {

// --- PVector -----------------------------------------------------------------
// The default chunk size is tuned to the engine's workloads: states are
// per-node VMs whose histories (comm records, path constraints,
// decisions) grow by a handful of entries per simulated send, so chunks
// must seal within tens of pushes for forks to share anything on
// realistic scenario lengths. 8 keeps the spine overhead at one pointer
// per 8 elements while letting even short runs build shared prefixes.
template <typename T, std::size_t kChunkCapacity = 8>
class PVector {
 public:
  static_assert(kChunkCapacity >= 2, "degenerate chunk size");
  // A sealed chunk: exactly kChunkCapacity elements, a billed block.
  using Chunk = BilledVector<T>;
  using Spine = std::vector<std::shared_ptr<const Chunk>>;
  static constexpr std::size_t chunkCapacity() { return kChunkCapacity; }

  void push_back(T value) {
    std::vector<T>& tail = writableTail();
    tail.push_back(std::move(value));
    if (tail.size() == kChunkCapacity) seal();
  }

  [[nodiscard]] std::size_t size() const { return sealedSize() + tailSize(); }
  [[nodiscard]] bool empty() const { return size() == 0; }

  [[nodiscard]] const T& operator[](std::size_t i) const {
    const std::size_t sealed = sealedSize();
    if (i >= sealed) return (*tail_)[i - sealed];
    return (*(*spine_)[i / kChunkCapacity])[i % kChunkCapacity];
  }
  [[nodiscard]] const T& back() const {
    SDE_ASSERT(!empty(), "back() of an empty PVector");
    return (*this)[size() - 1];
  }

  // Forward const iterator (indices into the chunked storage).
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = const T&;

    const_iterator() = default;
    const_iterator(const PVector* owner, std::size_t index)
        : owner_(owner), index_(index) {}

    reference operator*() const { return (*owner_)[index_]; }
    pointer operator->() const { return &(*owner_)[index_]; }
    const_iterator& operator++() {
      ++index_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++index_;
      return old;
    }
    [[nodiscard]] bool operator==(const const_iterator& other) const {
      return index_ == other.index_;
    }
    [[nodiscard]] bool operator!=(const const_iterator& other) const {
      return index_ != other.index_;
    }

   private:
    const PVector* owner_ = nullptr;
    std::size_t index_ = 0;
  };

  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, size()}; }

  // --- Fork-cost observability ------------------------------------------------
  // Elements a copy of this container defers copying: the tail, which
  // the copy shares until either side pushes (then that side clones
  // it). This is the deterministic per-state quantity the engine's fork
  // counters and kStateFork trace records carry.
  [[nodiscard]] std::uint64_t copyCostElements() const { return tailSize(); }
  // Chunk references a copy shares instead of cloning.
  [[nodiscard]] std::uint64_t sharedChunksOnCopy() const { return numChunks(); }
  [[nodiscard]] std::size_t numChunks() const {
    return spine_ == nullptr ? 0 : spine_->size();
  }
  [[nodiscard]] std::size_t tailSize() const {
    return tail_ == nullptr ? 0 : tail_->size();
  }

  // --- Memory accounting ------------------------------------------------------
  // Bytes billed to this container alone: the tail (in every copy that
  // shares it) and one spine entry per chunk, as a deterministic
  // function of the shape (sizes, not capacities), so the total survives
  // checkpoint/restore byte-for-byte. The chunks are billed blocks,
  // metered by the ledger.
  [[nodiscard]] std::uint64_t privateBytes() const {
    return tailSize() * sizeof(T) + numChunks() * sizeof(void*);
  }
  // The audit walk: private bytes plus every chunk `seen` meets first.
  [[nodiscard]] std::uint64_t accountBytes(SeenSet& seen) const {
    std::uint64_t bytes = privateBytes();
    if (spine_ != nullptr) {
      for (const std::shared_ptr<const Chunk>& chunk : *spine_)
        if (seen.insert(chunk.get())) bytes += chunk->bytes();
    }
    return bytes;
  }

  // --- Snapshot support -------------------------------------------------------
  // The snapshot layer serializes chunks through a pointer-identity
  // table (exactly like AddressSpace memory blobs) so that structural
  // sharing — and with it the memory accounting — survives restore.
  [[nodiscard]] const Spine* spine() const { return spine_.get(); }
  [[nodiscard]] const std::vector<T>& tail() const {
    return tail_ == nullptr ? emptyTail() : *tail_;
  }
  void restoreSnapshot(std::shared_ptr<const Spine> spine,
                       std::vector<T> tail) {
    SDE_ASSERT(empty(), "restoreSnapshot needs an empty PVector");
    SDE_ASSERT(tail.size() < kChunkCapacity, "restored tail over-full");
    spine_ = std::move(spine);
    if (!tail.empty())
      tail_ = std::make_shared<std::vector<T>>(std::move(tail));
  }

 private:
  static const std::vector<T>& emptyTail() {
    static const std::vector<T> empty;
    return empty;
  }

  [[nodiscard]] std::size_t sealedSize() const {
    return numChunks() * kChunkCapacity;
  }

  // The tail, ours alone, with room for one more element: a fresh one,
  // or a clone of a shared one at its exact size plus that element (a
  // clone reserved to a full chunk would cost every unsharing push heap
  // it mostly never fills).
  std::vector<T>& writableTail() {
    if (tail_ == nullptr) {
      tail_ = std::make_shared<std::vector<T>>();
    } else if (tail_.use_count() > 1) {
      auto clone = std::make_shared<std::vector<T>>();
      clone->reserve(tail_->size() + 1);
      clone->assign(tail_->begin(), tail_->end());
      tail_ = std::move(clone);
    }
    return *tail_;
  }

  // Moves the full tail into a chunk (the tail is ours: push_back made
  // it writable) and starts the next one empty.
  void seal() {
    auto chunk = std::make_shared<const Chunk>(std::move(*tail_));
    tail_ = nullptr;
    auto spine = std::make_shared<Spine>();
    spine->reserve(numChunks() + 1);
    if (spine_ != nullptr) *spine = *spine_;
    spine->push_back(std::move(chunk));
    spine_ = std::move(spine);
  }

  std::shared_ptr<const Spine> spine_;  // null = no sealed chunks yet
  // < kChunkCapacity elements, shared by copies until one pushes; null
  // when empty.
  std::shared_ptr<std::vector<T>> tail_;
};

// --- CowVec ------------------------------------------------------------------
// ItemBytes::of prices one element for the memory meter (see
// BilledVector); in-place mutations re-bill the payload block by the
// elements they insert or erase.
template <typename T, typename ItemBytes = SizeofBytes<T>>
class CowVec {
 public:
  using Block = BilledVector<T, ItemBytes>;
  using const_iterator = typename std::vector<T>::const_iterator;

  [[nodiscard]] const std::vector<T>& view() const {
    return data_ == nullptr ? emptyVector() : *data_;
  }
  [[nodiscard]] std::size_t size() const { return view().size(); }
  [[nodiscard]] bool empty() const { return view().empty(); }
  [[nodiscard]] const T& operator[](std::size_t i) const { return view()[i]; }
  [[nodiscard]] const T& back() const { return view().back(); }
  [[nodiscard]] const_iterator begin() const { return view().begin(); }
  [[nodiscard]] const_iterator end() const { return view().end(); }

  void push_back(T value) {
    const std::uint64_t bytes = ItemBytes::of(value);
    Block& items = mut();
    items.push_back(std::move(value));
    items.rebill(bytes, 0);
  }
  void pop_back() {
    Block& items = mut();
    const std::uint64_t bytes = ItemBytes::of(items.back());
    items.pop_back();
    items.rebill(0, bytes);
  }
  void clear() { data_ = nullptr; }  // drops our reference; sharers keep theirs

  void erase(const_iterator pos) {
    const auto index = pos - view().begin();
    Block& items = mut();  // may reallocate: use the index, not pos
    const auto at = items.begin() + index;
    const std::uint64_t bytes = ItemBytes::of(*at);
    items.erase(at);
    items.rebill(0, bytes);
  }

  // Removes all elements matching `pred` (which must be pure: it may run
  // multiple times per element). Returns the number removed. A no-match
  // scan never clones shared storage.
  template <typename Pred>
  std::size_t eraseIf(Pred pred) {
    std::size_t matches = 0;
    std::uint64_t bytes = 0;
    for (const T& item : view()) {
      if (!pred(item)) continue;
      ++matches;
      bytes += ItemBytes::of(item);
    }
    if (matches == 0) return 0;
    Block& items = mut();
    std::erase_if(static_cast<std::vector<T>&>(items), pred);
    items.rebill(0, bytes);
    return matches;
  }

  // A copy shares the payload, if there is one, and copies nothing.
  [[nodiscard]] std::uint64_t sharedChunksOnCopy() const {
    return data_ != nullptr ? 1 : 0;
  }

  // The audit walk: the payload block, if `seen` meets it first. A CowVec
  // bills nothing privately — the payload is its only storage.
  [[nodiscard]] std::uint64_t accountBytes(SeenSet& seen) const {
    return data_ != nullptr && seen.insert(data_.get()) ? data_->bytes() : 0;
  }

  // --- Snapshot support -------------------------------------------------------
  [[nodiscard]] const std::shared_ptr<Block>& raw() const { return data_; }
  void restoreSnapshot(std::shared_ptr<Block> data) {
    SDE_ASSERT(data_ == nullptr, "restoreSnapshot needs an empty CowVec");
    data_ = std::move(data);
  }

 private:
  static const std::vector<T>& emptyVector() {
    static const std::vector<T> empty;
    return empty;
  }

  Block& mut() {
    if (data_ == nullptr) {
      data_ = std::make_shared<Block>(std::vector<T>());
    } else if (data_.use_count() > 1) {
      data_ = std::make_shared<Block>(std::vector<T>(*data_));
    }
    return *data_;
  }

  std::shared_ptr<Block> data_;  // null = empty
};

}  // namespace sde::support

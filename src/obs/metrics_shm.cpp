#include "obs/metrics_shm.hpp"

#include <cstring>

#include "snapshot/error.hpp"
#include "support/assert.hpp"

namespace sde::obs {

namespace {

// A reader that keeps colliding with the writer gives up after this
// many attempts; the slot simply contributes nothing to that poll.
constexpr int kReadRetries = 64;

}  // namespace

// One publisher slot: a seqlock word, the payload length, then the
// payload as whole u64 words so the concurrent torn copy is made of
// relaxed atomic loads, not a racing memcpy.
struct ShmMetricsPlane::Slot {
  std::atomic<std::uint64_t> seq;
  std::atomic<std::uint64_t> bytes;

  [[nodiscard]] std::atomic<std::uint64_t>* words() {
    return reinterpret_cast<std::atomic<std::uint64_t>*>(this + 1);
  }
  [[nodiscard]] const std::atomic<std::uint64_t>* words() const {
    return reinterpret_cast<const std::atomic<std::uint64_t>*>(this + 1);
  }
};

static_assert(sizeof(std::atomic<std::uint64_t>) == sizeof(std::uint64_t),
              "slot word layout assumes lock-free u64 atomics");

std::uint64_t ShmMetricsPlane::slotStrideFor(const ShmMetricsConfig& config) {
  SDE_ASSERT(config.slots != 0 && config.slotBytes >= 64,
             "shm metrics: degenerate geometry");
  // Payload is stored in whole words; the capacity rounds down to one.
  return sizeof(Slot) + config.slotBytes / 8 * 8;
}

ShmMetricsPlane::ShmMetricsPlane(const ShmMetricsConfig& config)
    : slots_(config.slots),
      slotStride_(slotStrideFor(config)),
      mapping_(std::uint64_t{slots_} * slotStride_) {}

ShmMetricsPlane::Slot* ShmMetricsPlane::slotAt(std::uint32_t index) const {
  return reinterpret_cast<Slot*>(static_cast<char*>(mapping_.data()) +
                                 std::uint64_t{index} * slotStride_);
}

std::uint32_t ShmMetricsPlane::slotCapacityBytes() const {
  return static_cast<std::uint32_t>(slotStride_ - sizeof(Slot));
}

bool ShmMetricsPlane::publish(std::uint32_t slot, const MetricsSnapshot& snap) {
  if (slot >= slots()) return false;
  const std::string bytes = encodeMetricsSnapshot(snap);
  if (bytes.size() > slotCapacityBytes()) return false;
  Slot* s = slotAt(slot);

  const std::uint64_t seq = s->seq.load(std::memory_order_relaxed);
  s->seq.store(seq + 1, std::memory_order_relaxed);  // odd: write begins
  std::atomic_thread_fence(std::memory_order_release);
  s->bytes.store(bytes.size(), std::memory_order_relaxed);
  std::atomic<std::uint64_t>* words = s->words();
  const std::size_t wholeWords = bytes.size() / 8;
  for (std::size_t i = 0; i < wholeWords; ++i) {
    std::uint64_t w = 0;
    std::memcpy(&w, bytes.data() + i * 8, 8);
    words[i].store(w, std::memory_order_relaxed);
  }
  if (bytes.size() % 8 != 0) {
    std::uint64_t w = 0;
    std::memcpy(&w, bytes.data() + wholeWords * 8, bytes.size() % 8);
    words[wholeWords].store(w, std::memory_order_relaxed);
  }
  s->seq.store(seq + 2, std::memory_order_release);  // even: snapshot visible
  return true;
}

std::optional<MetricsSnapshot> ShmMetricsPlane::read(std::uint32_t slot) const {
  if (slot >= slots()) return std::nullopt;
  const Slot* s = slotAt(slot);
  const std::uint32_t capacity = slotCapacityBytes();
  std::string bytes;
  for (int attempt = 0; attempt < kReadRetries; ++attempt) {
    const std::uint64_t seq1 = s->seq.load(std::memory_order_acquire);
    if (seq1 == 0) return std::nullopt;  // never published
    if (seq1 % 2 != 0) continue;         // write in progress
    const std::uint64_t size = s->bytes.load(std::memory_order_relaxed);
    if (size == 0 || size > capacity) continue;  // racing the first write
    bytes.resize(size);
    const std::atomic<std::uint64_t>* words = s->words();
    const std::size_t wholeWords = size / 8;
    for (std::size_t i = 0; i < wholeWords; ++i) {
      const std::uint64_t w = words[i].load(std::memory_order_relaxed);
      std::memcpy(bytes.data() + i * 8, &w, 8);
    }
    if (size % 8 != 0) {
      const std::uint64_t w = words[wholeWords].load(std::memory_order_relaxed);
      std::memcpy(bytes.data() + wholeWords * 8, &w, size % 8);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (s->seq.load(std::memory_order_relaxed) != seq1) continue;  // torn
    try {
      return decodeMetricsSnapshot(bytes);
    } catch (const snapshot::SnapshotError&) {
      continue;  // raced the writer across the size/payload boundary
    }
  }
  tornReads_.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

MetricsSnapshot ShmMetricsPlane::aggregate() const {
  MetricsSnapshot total;
  const std::uint32_t n = slots();
  for (std::uint32_t i = 0; i < n; ++i) {
    if (auto snap = read(i)) total.merge(*snap);
  }
  return total;
}

}  // namespace sde::obs

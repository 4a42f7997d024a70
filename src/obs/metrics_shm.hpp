// Live metrics plane, part 2: cross-process publication.
//
// A fleet is N worker processes plus a coordinator; the serve daemon
// sits one more process away. Post-run stats cross those boundaries
// fine (pipe frames, files), but *live* numbers must not touch the
// fleet pipe protocol's hot frames — a status frame is 25 bytes and
// must stay under PIPE_BUF. So metrics ride the same vehicle the query
// store does (solver/shm_cache.hpp): an anonymous shared mapping
// (support/shared_mapping.hpp), made by the process that reads it
// before it forks the processes that write it. The fleet coordinator
// makes its own, or is handed one: sde_serve's daemon makes each
// running job's plane before it forks the job's runner, which is the
// fleet coordinator, so the daemon reads the plane its job's workers
// write.
//
// Layout: one fixed-size slot per publisher; the geometry (slot count,
// stride) lives in this object, which fork copies. A slot holds an
// encoded MetricsSnapshot (obs/metrics.hpp codec) stamped by a seqlock:
//
//   * publish bumps the slot's sequence word to odd, writes the payload
//     length and bytes, then bumps it to even (release). Only the slot
//     owner writes, so there is exactly one writer per seqlock and no
//     claim protocol is needed.
//   * read loads the sequence (acquire), skips odd (write in
//     progress), copies the payload, and re-checks the sequence; a
//     change means a torn read and the reader retries, bounded. The
//     payload is stored as atomic u64 words so the concurrent copy is
//     data-race-free by the letter of the memory model, not just in
//     practice.
//
// A reader that loses every retry — or a worker SIGKILLed mid-publish,
// leaving the sequence odd forever — costs that slot's contribution for
// that poll, nothing else.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>

#include "obs/metrics.hpp"
#include "support/shared_mapping.hpp"

namespace sde::obs {

struct ShmMetricsConfig {
  // One slot per publisher (fleet workers + one for the coordinator).
  std::uint32_t slots = 17;
  // Per-slot capacity for the encoded snapshot. A registry with every
  // instrumented site lit up encodes to a few KiB; oversize snapshots
  // are dropped (the previous published snapshot stays visible).
  std::uint32_t slotBytes = 64u << 10;
};

class ShmMetricsPlane {
 public:
  // Maps a fresh plane, every slot never published. Throws
  // support::SharedMappingError when the mapping cannot be made.
  explicit ShmMetricsPlane(const ShmMetricsConfig& config = {});

  // Encodes and seqlock-publishes `snap` into `slot`. Returns false
  // (and leaves the previous snapshot in place) when the encoding
  // exceeds the slot capacity or the slot index is out of range.
  bool publish(std::uint32_t slot, const MetricsSnapshot& snap);

  // Reads one slot. nullopt for a never-published slot, an
  // out-of-range index, or a slot that stayed torn through the retry
  // budget (writer mid-publish or dead mid-publish).
  [[nodiscard]] std::optional<MetricsSnapshot> read(std::uint32_t slot) const;

  // Merges every readable slot (MetricsSnapshot::merge — peak gauges
  // fold with max, counters sum).
  [[nodiscard]] MetricsSnapshot aggregate() const;

  [[nodiscard]] std::uint32_t slots() const { return slots_; }
  [[nodiscard]] std::uint32_t slotCapacityBytes() const;

  // Reads dropped as torn after the retry budget (reporting only).
  [[nodiscard]] std::uint64_t tornReads() const {
    return tornReads_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot;

  [[nodiscard]] Slot* slotAt(std::uint32_t index) const;
  [[nodiscard]] static std::uint64_t slotStrideFor(
      const ShmMetricsConfig& config);

  std::uint32_t slots_;
  std::uint64_t slotStride_;  // bytes per slot, fixed fields included
  support::SharedMapping mapping_;
  mutable std::atomic<std::uint64_t> tornReads_{0};
};

}  // namespace sde::obs

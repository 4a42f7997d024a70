// Live metrics plane, part 2: cross-process publication.
//
// A fleet is N worker processes plus a coordinator; the serve daemon
// sits one more process away. Post-run stats cross those boundaries
// fine (pipe frames, files), but *live* numbers must not touch the
// fleet pipe protocol's hot frames — a status frame is 25 bytes and
// must stay under PIPE_BUF. So metrics ride the same vehicle the query
// cache does (solver/shm_cache.hpp): a named POSIX shared-memory
// segment, created by the coordinator before fork so workers inherit
// the mapping, attachable by name from the daemon.
//
// Layout: a versioned header, then one fixed-size slot per worker. A
// slot holds an encoded MetricsSnapshot (obs/metrics.hpp codec) stamped
// by a seqlock:
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
// that poll, nothing else. attach() validates magic, layout version,
// the two-phase ready marker and the geometry against the mapped size
// before trusting any of it; a mismatch throws ShmMetricsError and the
// caller runs without a live plane.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"

namespace sde::obs {

class ShmMetricsError : public std::runtime_error {
 public:
  explicit ShmMetricsError(const std::string& what)
      : std::runtime_error(what) {}
};

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
  // Creates a fresh segment `name` ("/sde_mx_..."). A stale segment of
  // the same name (previous crashed run) is unlinked and replaced.
  [[nodiscard]] static std::unique_ptr<ShmMetricsPlane> create(
      const std::string& name, const ShmMetricsConfig& config = {});

  // Attaches to an existing segment; throws ShmMetricsError on a
  // missing, truncated, torn, version-mismatched or foreign segment.
  [[nodiscard]] static std::unique_ptr<ShmMetricsPlane> attach(
      const std::string& name);

  // Removes the name from the shm namespace (mappings live on).
  static void unlinkSegment(const std::string& name);
  [[nodiscard]] static bool segmentExists(const std::string& name);

  ~ShmMetricsPlane();
  ShmMetricsPlane(const ShmMetricsPlane&) = delete;
  ShmMetricsPlane& operator=(const ShmMetricsPlane&) = delete;

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

  [[nodiscard]] std::uint32_t slots() const;
  [[nodiscard]] std::uint32_t slotCapacityBytes() const;
  [[nodiscard]] const std::string& name() const { return name_; }

  // Reads dropped as torn after the retry budget (reporting only).
  [[nodiscard]] std::uint64_t tornReads() const {
    return tornReads_.load(std::memory_order_relaxed);
  }

 private:
  struct Header;
  struct Slot;

  ShmMetricsPlane(std::string name, int fd, void* base, std::size_t bytes);

  [[nodiscard]] Header& header() const;
  [[nodiscard]] Slot* slotAt(std::uint32_t index) const;
  [[nodiscard]] std::uint64_t slotStride() const;

  std::string name_;
  int fd_ = -1;
  void* base_ = nullptr;
  std::size_t mappedBytes_ = 0;
  mutable std::atomic<std::uint64_t> tornReads_{0};
};

}  // namespace sde::obs

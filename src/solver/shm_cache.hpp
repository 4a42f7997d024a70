// Process-external shared query cache: the SharedQueryCache promoted to
// a fixed-size POSIX shared-memory segment so the *fleet* execution mode
// (sde/fleet.hpp — worker processes, not threads) keeps the live
// cross-worker hit rate of parallel runs.
//
// Layout: one versioned header followed by a fixed table of
// open-addressed slots. The in-process cache's mutex striping becomes
// per-slot atomic publication here — a process-shared mutex can be
// leaked forever by a SIGKILLed holder, while a slot-claim CAS cannot
// wedge anybody:
//
//   * insert claims a slot (state empty -> claimed for its key digest,
//     one CAS), writes the payload, then publishes (state -> published,
//     release store). A writer that meets a claim for its own key stops,
//     so one key is published at most once. A worker killed mid-write
//     leaves the slot claimed forever; other keys probe past it, and its
//     own key stays a miss. One slot is wasted, nothing blocks, nothing
//     is torn.
//   * entries are immutable once published (first writer wins per key,
//     no updates, no deletes), so a lookup that sees `published`
//     (acquire load) reads a complete, final payload.
//
// Everything else follows the SharedQueryStore contract (see
// shared_cache.hpp): context-independent keys, canonical values only,
// so exploration stays byte-identical with the segment attached or not.
// The store is best-effort by design — a full table or an oversize
// entry drops the insert, never the correctness.
//
// Robustness: attach() validates magic, layout version, the two-phase
// init marker and the geometry against the actual segment size before
// touching the table; any mismatch (torn, truncated, foreign, stale
// layout) throws ShmCacheError and the fleet runner degrades to a cold
// cache rather than reading garbage.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "solver/shared_cache.hpp"

namespace sde::solver {

class ShmCacheError : public std::runtime_error {
 public:
  explicit ShmCacheError(const std::string& what) : std::runtime_error(what) {}
};

struct ShmCacheConfig {
  // Total segment size; the slot count is derived from it. The default
  // comfortably holds every query of the evaluation scenarios.
  std::size_t bytes = 32u << 20;
  // Per-entry capacity. Oversize entries are simply not published
  // (best-effort store); the bounds cover every query the engine
  // generates with generous slack.
  std::uint32_t maxConjuncts = 48;
  std::uint32_t maxBindings = 32;
  std::uint32_t nameBytes = 40;  // per binding, including the NUL
};

class ShmQueryCache final : public SharedQueryStore {
 public:
  // Creates a fresh segment `name` (a POSIX shm name, "/sde_qc_...").
  // Fails with ShmCacheError if the name exists or the segment cannot
  // be sized. The creating process should unlinkSegment() when done.
  [[nodiscard]] static std::unique_ptr<ShmQueryCache> create(
      const std::string& name, const ShmCacheConfig& config = {});

  // Attaches to an existing segment. Throws ShmCacheError on a missing,
  // truncated, torn, version-mismatched or foreign segment — callers
  // degrade to a cold cache.
  [[nodiscard]] static std::unique_ptr<ShmQueryCache> attach(
      const std::string& name);

  // Removes the name from the shm namespace (existing mappings live on).
  // Idempotent; missing names are ignored.
  static void unlinkSegment(const std::string& name);

  // Whether a segment of this name exists at all (says nothing about
  // its validity — attach() judges that).
  [[nodiscard]] static bool segmentExists(const std::string& name);

  ~ShmQueryCache() override;
  ShmQueryCache(const ShmQueryCache&) = delete;
  ShmQueryCache& operator=(const ShmQueryCache&) = delete;

  // SharedQueryStore. Safe to call concurrently from any process
  // attached to the segment (and from any thread).
  [[nodiscard]] std::optional<SharedQueryResult> lookup(
      const SharedQueryKey& key) const override;
  void insert(const SharedQueryKey& key, SharedQueryResult result) override;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t capacitySlots() const;
  // Published entries, fleet-wide (header counter).
  [[nodiscard]] std::uint64_t entries() const;
  // Fleet-wide counters, aggregated in the segment header across every
  // attached process (relaxed; reporting only).
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;
  [[nodiscard]] std::uint64_t inserts() const;
  // Inserts dropped because the table was full (probe limit) or the
  // entry exceeded the per-entry bounds.
  [[nodiscard]] std::uint64_t dropped() const;

  // Deterministic enumeration of every published entry, sorted by key —
  // feeds the durable shared_cache.bin sidecar so a resumed fleet
  // starts warm even though the segment itself died with the machine.
  [[nodiscard]] std::vector<std::pair<SharedQueryKey, SharedQueryResult>>
  sortedEntries() const;

 private:
  struct Header;
  struct Slot;

  ShmQueryCache(std::string name, int fd, void* base, std::size_t bytes);

  [[nodiscard]] Header& header() const;
  [[nodiscard]] Slot* slotAt(std::uint64_t index) const;
  [[nodiscard]] std::uint64_t slotBytes() const;
  [[nodiscard]] static std::uint64_t slotBytesFor(std::uint32_t maxConjuncts,
                                                 std::uint32_t maxBindings,
                                                 std::uint32_t nameBytes);

  std::string name_;
  int fd_ = -1;
  void* base_ = nullptr;
  std::size_t mappedBytes_ = 0;
};

}  // namespace sde::solver

// The shared query store: one fixed-size anonymous shared mapping
// (support/shared_mapping.hpp) that the partition jobs of a run share
// solved queries through, live. The process that reads the store makes
// it before it forks the processes that write it: the fleet's worker
// processes inherit the mapping through fork, and the thread runner's
// pool threads share it in one process. snapshot::openSharedStore
// (snapshot/shared_cache_io.hpp) is the one path both runners make,
// seed and persist it through.
//
// Layout: the `entries` counter followed by a fixed table of
// open-addressed slots. The geometry (capacity, per-entry bounds, slot
// size) lives in this object, which fork copies; the mapping holds only
// what processes write. Publication is per-slot and atomic — a
// process-shared mutex can be leaked forever by a SIGKILLed holder,
// while a slot-claim CAS cannot wedge anybody:
//
//   * insert claims a slot (state empty -> claimed for its key digest,
//     one CAS), writes the payload, then publishes (state -> published,
//     release store). A writer that meets a claim for its own key stops,
//     so one key is published at most once. A writer killed mid-write
//     leaves the slot claimed forever; other keys probe past it, and its
//     own key stays a miss. One slot is wasted, nothing blocks, nothing
//     is torn.
//   * entries are immutable once published (first writer wins per key,
//     no updates, no deletes), so a lookup that sees `published`
//     (acquire load) reads a complete, final payload.
//
// Everything else follows the contract in shared_cache.hpp:
// context-independent keys, canonical values only, so exploration stays
// byte-identical with the store attached or not. The store is
// best-effort by design — a full table or an oversize entry drops the
// insert, never the correctness. It counts nothing but its size
// (entries): a lookup's outcome is counted by the solver that asked
// (solver.layer.shared_cache.*), and an insert's outcome is returned to
// the caller.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "solver/shared_cache.hpp"
#include "support/shared_mapping.hpp"

namespace sde::solver {

struct ShmCacheConfig {
  // Total mapping size; the slot count is derived from it. The default
  // comfortably holds every query of the evaluation scenarios.
  std::size_t bytes = 32u << 20;
  // Per-entry capacity. Oversize entries are simply not published
  // (best-effort store); the bounds cover every query the engine
  // generates with generous slack.
  std::uint32_t maxConjuncts = 48;
  std::uint32_t maxBindings = 32;
  std::uint32_t nameBytes = 40;  // per binding, including the NUL
};

// What an insert did with its entry.
enum class InsertOutcome : std::uint8_t {
  kPublished,  // this call published the entry
  kPresent,    // the key was already published (or claimed) — first
               // writer wins
  kDropped,    // over the per-entry bounds, or the probe window is full
};

class ShmQueryCache {
 public:
  // Maps a fresh, empty store of `config`'s geometry. Throws
  // support::SharedMappingError when the mapping cannot be made.
  explicit ShmQueryCache(const ShmCacheConfig& config = {});

  // Safe to call concurrently from any process that maps the store and
  // from any thread. A lookup copies the result out of the mapping.
  [[nodiscard]] std::optional<SharedQueryResult> lookup(
      const SharedQueryKey& key) const;
  // First writer wins: once a key holds a result, later inserts
  // (necessarily equal — only canonical values are published) leave it.
  InsertOutcome insert(const SharedQueryKey& key,
                       const SharedQueryResult& result);

  // Entries published into this store by every process that maps it.
  [[nodiscard]] std::uint64_t entries() const;

  // Deterministic enumeration of every published entry, sorted by key —
  // feeds the durable shared_cache.bin sidecar so a resumed run starts
  // warm even though the mapping itself died with its run.
  [[nodiscard]] std::vector<std::pair<SharedQueryKey, SharedQueryResult>>
  sortedEntries() const;

  // The raw mapping, for tests that forge slot bytes.
  [[nodiscard]] const support::SharedMapping& mapping() const {
    return mapping_;
  }

 private:
  struct Slot;

  [[nodiscard]] std::atomic<std::uint64_t>& entriesWord() const;
  [[nodiscard]] Slot* slotAt(std::uint64_t index) const;
  // The result a published slot holds; its counts must be within the
  // geometry (a slot whose counts are not reads as empty).
  [[nodiscard]] SharedQueryResult resultAt(const Slot& slot) const;
  [[nodiscard]] static std::uint64_t slotBytesFor(const ShmCacheConfig& config);

  std::uint32_t maxConjuncts_;
  std::uint32_t maxBindings_;
  std::uint32_t nameBytes_;
  std::uint64_t slotBytes_;
  std::uint64_t capacity_;  // number of slots
  support::SharedMapping mapping_;
};

}  // namespace sde::solver

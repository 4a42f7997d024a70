// The shared query store: one fixed-size POSIX shared-memory segment
// that the partition jobs of a run share solved queries through, live.
// The fleet's worker processes inherit its mapping through fork; the
// thread runner's pool threads share the same mapping in one process.
// snapshot::openSharedStore (snapshot/shared_cache_io.hpp) is the one
// path both runners open, seed and persist it through.
//
// Layout: one versioned header followed by a fixed table of
// open-addressed slots. Publication is per-slot and atomic — a
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
// byte-identical with the segment attached or not. The store is
// best-effort by design — a full table or an oversize entry drops the
// insert, never the correctness. It counts nothing: a lookup's outcome
// is counted by the solver that asked (solver.layer.shared_cache.*),
// an insert's outcome is returned to the caller, and the header keeps
// only the segment's size (entries), which outlives any one run.
//
// Robustness: attach() validates magic, layout version, the two-phase
// init marker and the geometry (bounded fields, a table that fits the
// actual segment size) before touching the table; any mismatch (torn,
// truncated, foreign, stale layout) throws ShmCacheError and the caller
// degrades to a cold store rather than reading garbage.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
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

// A segment name no live run uses: `prefix`, the pid and a process-wide
// sequence number, so concurrent runs in one process never collide.
[[nodiscard]] std::string privateSegmentName(std::string_view prefix);

// What an insert did with its entry.
enum class InsertOutcome : std::uint8_t {
  kPublished,  // this call published the entry
  kPresent,    // the key was already published (or claimed) — first
               // writer wins
  kDropped,    // over the per-entry bounds, or the probe window is full
};

class ShmQueryCache {
 public:
  // Creates a fresh segment `name` (a POSIX shm name, "/sde_qc_...").
  // Fails with ShmCacheError if the name exists or the segment cannot
  // be sized. The name stays until unlinkSegment(); a run-private
  // segment unlinks it as soon as the mapping exists.
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

  ~ShmQueryCache();
  ShmQueryCache(const ShmQueryCache&) = delete;
  ShmQueryCache& operator=(const ShmQueryCache&) = delete;

  // Safe to call concurrently from any process attached to the segment
  // and from any thread. A lookup copies the result out of the segment.
  [[nodiscard]] std::optional<SharedQueryResult> lookup(
      const SharedQueryKey& key) const;
  // First writer wins: once a key holds a result, later inserts
  // (necessarily equal — only canonical values are published) leave it.
  InsertOutcome insert(const SharedQueryKey& key,
                       const SharedQueryResult& result);

  // Entries published into this segment by every process and run that
  // ever attached it (a named segment carries earlier fleets' entries).
  [[nodiscard]] std::uint64_t entries() const;

  // Deterministic enumeration of every published entry, sorted by key —
  // feeds the durable shared_cache.bin sidecar so a resumed run starts
  // warm even though the segment itself died with its run.
  [[nodiscard]] std::vector<std::pair<SharedQueryKey, SharedQueryResult>>
  sortedEntries() const;

 private:
  struct Header;
  struct Slot;

  ShmQueryCache(int fd, void* base, std::size_t bytes);

  [[nodiscard]] Header& header() const;
  [[nodiscard]] Slot* slotAt(std::uint64_t index) const;
  // The result a published slot holds; its counts must be within the
  // header geometry (a slot whose counts are not reads as empty).
  [[nodiscard]] SharedQueryResult resultAt(const Slot& slot) const;
  [[nodiscard]] std::uint64_t slotBytes() const;
  [[nodiscard]] static std::uint64_t slotBytesFor(std::uint32_t maxConjuncts,
                                                 std::uint32_t maxBindings,
                                                 std::uint32_t nameBytes);

  int fd_ = -1;
  void* base_ = nullptr;
  std::size_t mappedBytes_ = 0;
};

}  // namespace sde::solver

// The shared query store of a run (solver/shm_cache.hpp) and its
// durable form: the shared_cache.bin sidecar a run keeps in its
// checkpoint directory (checkpoint format v4). Both runners — the
// thread runner and the fleet — open, seed and persist their store
// through the functions here, so there is one path for both.
//
// The store's entries are already context-independent (structural-hash
// keys, name/width/value model bindings), so the sidecar needs no
// expression table and can be re-read into any run of the same
// scenario: a resumed run starts with the warm store the earlier run
// had built.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "solver/shared_cache.hpp"
#include "solver/shm_cache.hpp"

namespace sde::snapshot {

inline constexpr std::string_view kSharedCacheMagic = "SDESHC";

// The sidecar's payload: the store's entries, sorted by key.
using SharedCacheEntries =
    std::vector<std::pair<solver::SharedQueryKey, solver::SharedQueryResult>>;

// Writes `entries` (expected key-sorted for deterministic bytes):
// magic, format, the entries, and an FNV-1a checksum over every byte
// before it.
void writeSharedCacheEntries(std::ostream& os,
                             const SharedCacheEntries& entries);

// Parses a sidecar stream. Throws SnapshotError on framing or version
// mismatch, on a checksum mismatch (any flipped bit) and on any
// truncated or corrupt count, never anything else.
[[nodiscard]] SharedCacheEntries readSharedCacheEntries(std::istream& is);

// The sidecar's location inside a checkpoint directory.
[[nodiscard]] std::string sharedCachePath(const std::string& checkpointDir);

// A run's shared query store, as openSharedStore left it.
struct SharedStore {
  // Null: the run shares nothing (no segment could be created).
  std::unique_ptr<solver::ShmQueryCache> cache;
  // The store could not be opened as asked: a named segment was torn
  // and replaced by a cold one, or no segment could be created.
  bool degraded = false;
};

// Opens the store a run shares queries through. A store it cannot
// attach, create or seed is no error: the failure is logged and the run
// degrades, since neither a cold store nor no store changes what it
// explores (the contract in shared_cache.hpp).
//  * `shmName` empty: a run-private segment under a name derived from
//    the pid and a process-wide sequence number, unlinked as soon as it
//    is mapped. Pool threads share the mapping and fleet workers
//    inherit it through fork; nothing is left in /dev/shm, however the
//    process ends.
//  * `shmName` set: attaches the segment of that name when it is
//    valid (a warm store across fleets); a torn or foreign one is
//    unlinked and replaced by a fresh segment (`degraded`). The name
//    outlives the run.
//  * `seedFrom` names a sidecar to seed the store from (a resume); a
//    missing one leaves the store as it is, a corrupt one is logged and
//    the run starts cold. Empty: no seeding.
// A segment that cannot be created leaves `cache` null (`degraded`).
[[nodiscard]] SharedStore openSharedStore(const std::string& shmName,
                                          const std::string& seedFrom);

// Writes every entry of `cache` to the sidecar of `checkpointDir`
// (atomically: a crash leaves the previous sidecar or the new one).
// Both runners call it once, when the run returns; a failed write is
// logged, not thrown.
void persistSharedStore(const solver::ShmQueryCache& cache,
                        const std::string& checkpointDir);

}  // namespace sde::snapshot

// The shared query store of a run (solver/shm_cache.hpp) and its
// durable form: the shared_cache.bin sidecar a run keeps in its
// checkpoint directory (checkpoint format v4). Both runners — the
// thread runner and the fleet — make, seed and persist their store
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

// Makes the store a run shares queries through: an anonymous mapping
// (solver/shm_cache.hpp) that pool threads share and fleet workers
// inherit through fork, so the caller makes it before any of them
// exist. `seedFrom` names a sidecar to seed it from (a resume); a
// missing one leaves the store empty, a corrupt one is logged and the
// run starts cold. Empty: no seeding. A store that cannot be made is no
// error either: the failure is logged and the result is null, so the
// run shares nothing — neither a cold store nor no store changes what
// it explores (the contract in shared_cache.hpp).
[[nodiscard]] std::unique_ptr<solver::ShmQueryCache> openSharedStore(
    const std::string& seedFrom);

// Writes every entry of `cache` to the sidecar of `checkpointDir`
// (atomically: a crash leaves the previous sidecar or the new one).
// Both runners call it once, when the run returns; a failed write is
// logged, not thrown.
void persistSharedStore(const solver::ShmQueryCache& cache,
                        const std::string& checkpointDir);

}  // namespace sde::snapshot

#include "snapshot/shared_cache_io.hpp"

#include <filesystem>
#include <fstream>
#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>

#include "snapshot/manifest.hpp"
#include "snapshot/reader.hpp"
#include "snapshot/writer.hpp"
#include "support/hash.hpp"
#include "support/logging.hpp"

namespace sde::snapshot {

namespace {
// Bumped whenever the sidecar layout changes. Format 2 added the
// trailing checksum.
constexpr std::uint32_t kSharedCacheFormat = 2;
constexpr std::size_t kChecksumBytes = 8;
}  // namespace

void writeSharedCacheEntries(std::ostream& os,
                             const SharedCacheEntries& entries) {
  std::ostringstream payload;
  Writer out(payload);
  out.magic(kSharedCacheMagic);
  out.u32(kSharedCacheFormat);
  out.u64(entries.size());
  for (const auto& [key, result] : entries) {
    out.u64(key.size());
    for (const std::uint64_t hash : key) out.u64(hash);
    out.u8(static_cast<std::uint8_t>(result.status));
    out.u64(result.model.size());
    for (const solver::SharedBinding& binding : result.model) {
      out.str(binding.name);
      out.u32(binding.width);
      out.u64(binding.value);
    }
  }
  const std::string bytes = std::move(payload).str();
  Writer file(os);
  file.raw(bytes.data(), bytes.size());
  file.u64(support::fnv1a(bytes));
  if (!file.ok()) throw SnapshotError("shared-cache sidecar write failed");
}

SharedCacheEntries readSharedCacheEntries(std::istream& is) {
  const std::string bytes{std::istreambuf_iterator<char>(is),
                          std::istreambuf_iterator<char>()};
  std::istringstream payload(bytes);
  Reader in(payload);
  in.expectMagic(kSharedCacheMagic, "not a shared-cache sidecar");
  const std::uint32_t format = in.u32();
  if (format != kSharedCacheFormat)
    throw SnapshotError("shared-cache sidecar format " +
                        std::to_string(format) + " (expected " +
                        std::to_string(kSharedCacheFormat) + ")");
  // The trailing checksum covers every byte before it, so a flipped bit
  // is rejected before any entry is decoded, let alone seeded into a
  // store.
  if (bytes.size() < kMagicSize + 4 + kChecksumBytes)
    throw SnapshotError("shared-cache sidecar truncated before its checksum");
  const std::size_t payloadSize = bytes.size() - kChecksumBytes;
  std::istringstream trailer(bytes.substr(payloadSize));
  if (Reader(trailer).u64() !=
      support::fnv1a(std::string_view(bytes).substr(0, payloadSize)))
    throw SnapshotError("shared-cache sidecar checksum mismatch");

  // Counts come from the file, so nothing is reserved from them: a
  // corrupt count runs into the end of the stream (SnapshotError), not
  // into an allocation it cannot make.
  SharedCacheEntries entries;
  const std::uint64_t numEntries = in.u64();
  for (std::uint64_t i = 0; i < numEntries; ++i) {
    solver::SharedQueryKey key;
    const std::uint64_t terms = in.u64();
    for (std::uint64_t t = 0; t < terms; ++t) key.push_back(in.u64());
    solver::SharedQueryResult result;
    const std::uint8_t status = in.u8();
    if (status > static_cast<std::uint8_t>(solver::EnumStatus::kExhausted))
      throw SnapshotError("unknown solver status in shared-cache sidecar");
    result.status = static_cast<solver::EnumStatus>(status);
    const std::uint64_t bindings = in.u64();
    for (std::uint64_t b = 0; b < bindings; ++b) {
      solver::SharedBinding binding;
      binding.name = in.str();
      binding.width = in.u32();
      binding.value = in.u64();
      result.model.push_back(std::move(binding));
    }
    entries.emplace_back(std::move(key), std::move(result));
  }
  return entries;
}

std::string sharedCachePath(const std::string& checkpointDir) {
  return (std::filesystem::path(checkpointDir) / "shared_cache.bin").string();
}

std::unique_ptr<solver::ShmQueryCache> openSharedStore(
    const std::string& seedFrom) {
  std::unique_ptr<solver::ShmQueryCache> store;
  try {
    store = std::make_unique<solver::ShmQueryCache>();
  } catch (const support::SharedMappingError& e) {
    support::logError("solver", std::string(e.what()) +
                                    "; running without a shared store");
    return store;
  }
  if (!seedFrom.empty() && std::filesystem::exists(seedFrom)) {
    try {
      std::ifstream in(seedFrom, std::ios::binary);
      for (const auto& [key, result] : readSharedCacheEntries(in))
        store->insert(key, result);
    } catch (const SnapshotError& e) {
      support::logError("snapshot", std::string(e.what()) +
                                        "; starting with a cold shared store");
    }
  }
  return store;
}

void persistSharedStore(const solver::ShmQueryCache& cache,
                        const std::string& checkpointDir) {
  try {
    atomicWriteFile(sharedCachePath(checkpointDir), [&](std::ostream& os) {
      writeSharedCacheEntries(os, cache.sortedEntries());
    });
  } catch (const SnapshotError& e) {
    support::logError("snapshot", e.what());
  }
}

}  // namespace sde::snapshot

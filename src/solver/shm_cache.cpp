#include "solver/shm_cache.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>

#include "support/hash.hpp"

namespace sde::solver {

namespace {

constexpr char kMagic[8] = {'S', 'D', 'E', 'S', 'H', 'M', 'Q', 'C'};
// Bumped on any header or slot layout change; attach() rejects every
// other version (no migration, same policy as the snapshot formats).
// Version 3 dropped the header's traffic counters.
constexpr std::uint32_t kLayoutVersion = 3;
// Two-phase init: the creator publishes this marker only after the
// header geometry is fully written, so an attacher racing a crashed
// creator sees a not-ready segment, never half-written geometry.
constexpr std::uint64_t kReadyMarker = 0x52454144u;  // "READ"

// Slot lifecycle, in the slot's state word: empty (0), then claimed
// (the claiming writer's key digest, whose low bit is always clear),
// then published (the digest with the low bit set). Because the claim
// names its key, every writer of one key stops at the same slot: first
// writer wins per key, not per slot. Claimed-but-never-published slots
// are the residue of a writer killed mid-insert; other keys probe past
// them, and their own key stays unpublished (a miss, which is sound).
constexpr std::uint64_t kSlotEmpty = 0;
constexpr std::uint64_t kPublishedBit = 1;

// Bounded probing: beyond this the table is effectively saturated and
// inserts are dropped (lookups that probe this far without a match
// report a miss, which is always sound).
constexpr std::uint64_t kMaxProbe = 128;

// Bounds on the per-entry geometry, far above any useful value, so that
// a slot's size (and a table's, checked by division) cannot overflow
// u64 however a header was written.
constexpr std::uint32_t kMaxGeometryField = 1u << 16;

bool validGeometry(std::uint32_t maxConjuncts, std::uint32_t maxBindings,
                   std::uint32_t nameBytes) {
  return nameBytes >= 2 && nameBytes <= kMaxGeometryField &&
         maxConjuncts != 0 && maxConjuncts <= kMaxGeometryField &&
         maxBindings != 0 && maxBindings <= kMaxGeometryField;
}

std::uint64_t keyDigest(const SharedQueryKey& key) {
  support::Hasher h;
  for (const std::uint64_t v : key) h.u64(v);
  // The digest doubles as the claim word: the low bit is the publish
  // flag, and 0 is an empty slot, which no claim may look like. The
  // home slot comes from the hash bits above the flag.
  const std::uint64_t digest = h.digest() << 1;
  return digest == kSlotEmpty ? 2 : digest;
}

}  // namespace

std::string privateSegmentName(std::string_view prefix) {
  static std::atomic<std::uint64_t> sequence{0};
  return std::string(prefix) + std::to_string(static_cast<long>(::getpid())) +
         "_" + std::to_string(sequence.fetch_add(1, std::memory_order_relaxed));
}

// The header is a fixed prelude of the segment; every field is written
// by the creator before the ready marker, except `entries`, which every
// publishing insert bumps.
struct ShmQueryCache::Header {
  char magic[8];
  std::uint32_t version;
  std::uint32_t pad0;
  std::uint64_t capacity;      // number of slots
  std::uint32_t maxConjuncts;  // slot geometry
  std::uint32_t maxBindings;
  std::uint32_t nameBytes;
  std::uint32_t pad1;
  std::atomic<std::uint64_t> ready;
  std::atomic<std::uint64_t> entries;
};

// One open-addressed table slot. The variable-size tail (key hashes,
// then bindings) is laid out after the fixed fields according to the
// header geometry; `state` is the publication gate and carries the key
// digest.
struct ShmQueryCache::Slot {
  std::atomic<std::uint64_t> state;
  std::uint32_t keyLen;
  std::uint32_t numBindings;
  std::uint8_t status;  // EnumStatus
  std::uint8_t pad[7];

  [[nodiscard]] std::uint64_t* keyHashes() {
    return reinterpret_cast<std::uint64_t*>(this + 1);
  }
  [[nodiscard]] const std::uint64_t* keyHashes() const {
    return reinterpret_cast<const std::uint64_t*>(this + 1);
  }
};

namespace {

// One serialized binding in the slot tail: name (NUL-padded), width,
// value.
struct SlotBinding {
  std::uint32_t width;
  std::uint32_t pad;
  std::uint64_t value;
  // name[nameBytes] follows
};

}  // namespace

ShmQueryCache::Header& ShmQueryCache::header() const {
  return *static_cast<Header*>(base_);
}

std::uint64_t ShmQueryCache::slotBytesFor(std::uint32_t maxConjuncts,
                                          std::uint32_t maxBindings,
                                          std::uint32_t nameBytes) {
  const std::uint64_t fixed = sizeof(Slot);
  const std::uint64_t keys = std::uint64_t{maxConjuncts} * sizeof(std::uint64_t);
  // Binding payloads are 8-byte aligned; round the name field up.
  const std::uint64_t nameAligned = (std::uint64_t{nameBytes} + 7) & ~7ull;
  const std::uint64_t bindings =
      std::uint64_t{maxBindings} * (sizeof(SlotBinding) + nameAligned);
  return fixed + keys + bindings;
}

std::uint64_t ShmQueryCache::slotBytes() const {
  const Header& h = header();
  return slotBytesFor(h.maxConjuncts, h.maxBindings, h.nameBytes);
}

ShmQueryCache::Slot* ShmQueryCache::slotAt(std::uint64_t index) const {
  char* table = static_cast<char*>(base_) + sizeof(Header);
  return reinterpret_cast<Slot*>(table + index * slotBytes());
}

SharedQueryResult ShmQueryCache::resultAt(const Slot& slot) const {
  const Header& h = header();
  const std::uint64_t nameAligned = (std::uint64_t{h.nameBytes} + 7) & ~7ull;
  SharedQueryResult result;
  result.status = static_cast<EnumStatus>(slot.status);
  const char* cursor =
      reinterpret_cast<const char*>(slot.keyHashes() + h.maxConjuncts);
  for (std::uint32_t b = 0; b < slot.numBindings; ++b) {
    const auto* payload = reinterpret_cast<const SlotBinding*>(cursor);
    const char* name = cursor + sizeof(SlotBinding);
    // The writer NUL-terminates within nameBytes; strnlen guards a
    // (theoretically impossible) unterminated name anyway.
    result.model.push_back(SharedBinding{
        std::string(name, ::strnlen(name, h.nameBytes)), payload->width,
        payload->value});
    cursor += sizeof(SlotBinding) + nameAligned;
  }
  return result;
}

ShmQueryCache::ShmQueryCache(int fd, void* base, std::size_t bytes)
    : fd_(fd), base_(base), mappedBytes_(bytes) {}

ShmQueryCache::~ShmQueryCache() {
  if (base_ != nullptr) ::munmap(base_, mappedBytes_);
  if (fd_ >= 0) ::close(fd_);
}

std::unique_ptr<ShmQueryCache> ShmQueryCache::create(
    const std::string& name, const ShmCacheConfig& config) {
  if (!validGeometry(config.maxConjuncts, config.maxBindings,
                     config.nameBytes))
    throw ShmCacheError("shm cache: degenerate geometry");
  const std::uint64_t slotSize =
      slotBytesFor(config.maxConjuncts, config.maxBindings, config.nameBytes);
  if (config.bytes < sizeof(Header) + slotSize)
    throw ShmCacheError("shm cache: segment too small for a single slot");
  const std::uint64_t capacity = (config.bytes - sizeof(Header)) / slotSize;

  const int fd = ::shm_open(name.c_str(), O_RDWR | O_CREAT | O_EXCL, 0600);
  if (fd < 0)
    throw ShmCacheError("shm_open(" + name +
                        ") failed: " + std::strerror(errno));
  if (::ftruncate(fd, static_cast<off_t>(config.bytes)) != 0) {
    const int err = errno;
    ::close(fd);
    ::shm_unlink(name.c_str());
    throw ShmCacheError("ftruncate(" + name +
                        ") failed: " + std::strerror(err));
  }
  void* base = ::mmap(nullptr, config.bytes, PROT_READ | PROT_WRITE,
                      MAP_SHARED, fd, 0);
  if (base == MAP_FAILED) {
    const int err = errno;
    ::close(fd);
    ::shm_unlink(name.c_str());
    throw ShmCacheError("mmap(" + name + ") failed: " + std::strerror(err));
  }

  // ftruncate zero-fills, so every slot already reads kSlotEmpty; only
  // the header needs explicit initialization.
  auto cache = std::unique_ptr<ShmQueryCache>(
      new ShmQueryCache(fd, base, config.bytes));
  Header& h = cache->header();
  std::memcpy(h.magic, kMagic, sizeof(kMagic));
  h.version = kLayoutVersion;
  h.capacity = capacity;
  h.maxConjuncts = config.maxConjuncts;
  h.maxBindings = config.maxBindings;
  h.nameBytes = config.nameBytes;
  h.entries.store(0, std::memory_order_relaxed);
  h.ready.store(kReadyMarker, std::memory_order_release);
  return cache;
}

std::unique_ptr<ShmQueryCache> ShmQueryCache::attach(const std::string& name) {
  const int fd = ::shm_open(name.c_str(), O_RDWR, 0600);
  if (fd < 0)
    throw ShmCacheError("shm_open(" + name +
                        ") failed: " + std::strerror(errno));
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw ShmCacheError("fstat(" + name + ") failed");
  }
  const std::size_t bytes = static_cast<std::size_t>(st.st_size);
  if (bytes < sizeof(Header)) {
    ::close(fd);
    throw ShmCacheError("shm cache segment " + name +
                        " is truncated (smaller than its header)");
  }
  void* base = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  if (base == MAP_FAILED) {
    ::close(fd);
    throw ShmCacheError("mmap(" + name + ") failed");
  }
  auto cache =
      std::unique_ptr<ShmQueryCache>(new ShmQueryCache(fd, base, bytes));

  const Header& h = cache->header();
  if (std::memcmp(h.magic, kMagic, sizeof(kMagic)) != 0)
    throw ShmCacheError("segment " + name + " is not an SDE shm query cache");
  if (h.version != kLayoutVersion)
    throw ShmCacheError("shm cache layout version " +
                        std::to_string(h.version) + " (this build expects " +
                        std::to_string(kLayoutVersion) + ")");
  if (h.ready.load(std::memory_order_acquire) != kReadyMarker)
    throw ShmCacheError("segment " + name +
                        " was never fully initialized (creator crashed?)");
  if (!validGeometry(h.maxConjuncts, h.maxBindings, h.nameBytes) ||
      h.capacity == 0)
    throw ShmCacheError("segment " + name + " has degenerate geometry");
  // The table must fit the mapping: a segment truncated after creation
  // would otherwise SIGBUS on first probe, and a capacity whose product
  // with the slot size wraps would index outside it. Division cannot
  // wrap.
  const std::uint64_t fit =
      (bytes - sizeof(Header)) /
      slotBytesFor(h.maxConjuncts, h.maxBindings, h.nameBytes);
  if (h.capacity > fit)
    throw ShmCacheError("segment " + name + " is torn: header advertises " +
                        std::to_string(h.capacity) + " slots but only " +
                        std::to_string(fit) + " fit the " +
                        std::to_string(bytes) + " mapped bytes");
  return cache;
}

void ShmQueryCache::unlinkSegment(const std::string& name) {
  ::shm_unlink(name.c_str());
}

bool ShmQueryCache::segmentExists(const std::string& name) {
  const int fd = ::shm_open(name.c_str(), O_RDONLY, 0);
  if (fd < 0) return false;
  ::close(fd);
  return true;
}

std::uint64_t ShmQueryCache::entries() const {
  return header().entries.load(std::memory_order_relaxed);
}

std::optional<SharedQueryResult> ShmQueryCache::lookup(
    const SharedQueryKey& key) const {
  const Header& h = header();
  if (key.empty() || key.size() > h.maxConjuncts) return std::nullopt;
  const std::uint64_t digest = keyDigest(key);
  const std::uint64_t probes = std::min<std::uint64_t>(kMaxProbe, h.capacity);
  for (std::uint64_t i = 0; i < probes; ++i) {
    const Slot* slot = slotAt(((digest >> 1) + i) % h.capacity);
    const std::uint64_t state = slot->state.load(std::memory_order_acquire);
    if (state == kSlotEmpty) break;  // claimed slots: keep probing
    if (state != (digest | kPublishedBit) || slot->keyLen != key.size() ||
        slot->numBindings > h.maxBindings)
      continue;
    if (!std::equal(key.begin(), key.end(), slot->keyHashes())) continue;
    return resultAt(*slot);
  }
  return std::nullopt;
}

InsertOutcome ShmQueryCache::insert(const SharedQueryKey& key,
                                    const SharedQueryResult& result) {
  Header& h = header();
  if (key.empty() || key.size() > h.maxConjuncts ||
      result.model.size() > h.maxBindings)
    return InsertOutcome::kDropped;
  for (const SharedBinding& binding : result.model)
    if (binding.name.size() + 1 > h.nameBytes) return InsertOutcome::kDropped;

  const std::uint64_t digest = keyDigest(key);
  const std::uint64_t probes = std::min<std::uint64_t>(kMaxProbe, h.capacity);
  for (std::uint64_t i = 0; i < probes; ++i) {
    Slot* slot = slotAt(((digest >> 1) + i) % h.capacity);
    std::uint64_t state = slot->state.load(std::memory_order_acquire);
    // A failed claim leaves the winner's claim word in `state`.
    if (state != kSlotEmpty ||
        !slot->state.compare_exchange_strong(state, digest,
                                             std::memory_order_acq_rel)) {
      if ((state & ~kPublishedBit) != digest) continue;  // another key's
      // First writer wins: our key claimed (mid-write, or by a writer
      // that died) or already published means drop. A published
      // digest twin with a different key is the one reason to go on.
      if ((state & kPublishedBit) == 0) return InsertOutcome::kPresent;
      if (slot->keyLen == key.size() &&
          std::equal(key.begin(), key.end(), slot->keyHashes()))
        return InsertOutcome::kPresent;
      continue;
    }

    slot->keyLen = static_cast<std::uint32_t>(key.size());
    slot->status = static_cast<std::uint8_t>(result.status);
    slot->numBindings = static_cast<std::uint32_t>(result.model.size());
    std::copy(key.begin(), key.end(), slot->keyHashes());
    const std::uint64_t nameAligned = (std::uint64_t{h.nameBytes} + 7) & ~7ull;
    char* cursor = reinterpret_cast<char*>(slot->keyHashes() + h.maxConjuncts);
    for (const SharedBinding& binding : result.model) {
      auto* payload = reinterpret_cast<SlotBinding*>(cursor);
      payload->width = binding.width;
      payload->pad = 0;
      payload->value = binding.value;
      char* name = cursor + sizeof(SlotBinding);
      std::memset(name, 0, nameAligned);
      std::memcpy(name, binding.name.data(), binding.name.size());
      cursor += sizeof(SlotBinding) + nameAligned;
    }
    slot->state.store(digest | kPublishedBit, std::memory_order_release);
    h.entries.fetch_add(1, std::memory_order_relaxed);
    return InsertOutcome::kPublished;
  }
  return InsertOutcome::kDropped;
}

std::vector<std::pair<SharedQueryKey, SharedQueryResult>>
ShmQueryCache::sortedEntries() const {
  const Header& h = header();
  std::vector<std::pair<SharedQueryKey, SharedQueryResult>> entries;
  for (std::uint64_t i = 0; i < h.capacity; ++i) {
    const Slot* slot = slotAt(i);
    if ((slot->state.load(std::memory_order_acquire) & kPublishedBit) == 0 ||
        slot->keyLen > h.maxConjuncts || slot->numBindings > h.maxBindings)
      continue;
    entries.emplace_back(
        SharedQueryKey(slot->keyHashes(), slot->keyHashes() + slot->keyLen),
        resultAt(*slot));
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return entries;
}

}  // namespace sde::solver

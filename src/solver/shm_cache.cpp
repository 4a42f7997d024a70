#include "solver/shm_cache.hpp"

#include <algorithm>
#include <cstring>

#include "support/assert.hpp"
#include "support/hash.hpp"

namespace sde::solver {

namespace {

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

// The mapping starts with the entries counter, which every publishing
// insert bumps; the slot table follows.
constexpr std::uint64_t kTableOffset = sizeof(std::atomic<std::uint64_t>);

std::uint64_t keyDigest(const SharedQueryKey& key) {
  support::Hasher h;
  for (const std::uint64_t v : key) h.u64(v);
  // The digest doubles as the claim word: the low bit is the publish
  // flag, and 0 is an empty slot, which no claim may look like. The
  // home slot comes from the hash bits above the flag.
  const std::uint64_t digest = h.digest() << 1;
  return digest == kSlotEmpty ? 2 : digest;
}

// One serialized binding in the slot tail: name (NUL-padded), width,
// value.
struct SlotBinding {
  std::uint32_t width;
  std::uint32_t pad;
  std::uint64_t value;
  // name[nameBytes] follows
};

std::uint64_t alignedNameBytes(std::uint32_t nameBytes) {
  // Binding payloads are 8-byte aligned; round the name field up.
  return (std::uint64_t{nameBytes} + 7) & ~7ull;
}

std::uint64_t capacityFor(const ShmCacheConfig& config,
                          std::uint64_t slotBytes) {
  SDE_ASSERT(config.nameBytes >= 2 && config.maxConjuncts != 0 &&
                 config.maxBindings != 0,
             "shm cache: degenerate geometry");
  SDE_ASSERT(config.bytes >= kTableOffset + slotBytes,
             "shm cache: mapping too small for a single slot");
  return (config.bytes - kTableOffset) / slotBytes;
}

}  // namespace

// One open-addressed table slot. The variable-size tail (key hashes,
// then bindings) is laid out after the fixed fields according to the
// geometry; `state` is the publication gate and carries the key digest.
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

std::uint64_t ShmQueryCache::slotBytesFor(const ShmCacheConfig& config) {
  return sizeof(Slot) +
         std::uint64_t{config.maxConjuncts} * sizeof(std::uint64_t) +
         std::uint64_t{config.maxBindings} *
             (sizeof(SlotBinding) + alignedNameBytes(config.nameBytes));
}

ShmQueryCache::ShmQueryCache(const ShmCacheConfig& config)
    : maxConjuncts_(config.maxConjuncts),
      maxBindings_(config.maxBindings),
      nameBytes_(config.nameBytes),
      slotBytes_(slotBytesFor(config)),
      capacity_(capacityFor(config, slotBytes_)),
      mapping_(kTableOffset + capacity_ * slotBytes_) {}

std::atomic<std::uint64_t>& ShmQueryCache::entriesWord() const {
  return *static_cast<std::atomic<std::uint64_t>*>(mapping_.data());
}

ShmQueryCache::Slot* ShmQueryCache::slotAt(std::uint64_t index) const {
  char* table = static_cast<char*>(mapping_.data()) + kTableOffset;
  return reinterpret_cast<Slot*>(table + index * slotBytes_);
}

SharedQueryResult ShmQueryCache::resultAt(const Slot& slot) const {
  SharedQueryResult result;
  result.status = static_cast<EnumStatus>(slot.status);
  const char* cursor =
      reinterpret_cast<const char*>(slot.keyHashes() + maxConjuncts_);
  for (std::uint32_t b = 0; b < slot.numBindings; ++b) {
    const auto* payload = reinterpret_cast<const SlotBinding*>(cursor);
    const char* name = cursor + sizeof(SlotBinding);
    // The writer NUL-terminates within nameBytes; strnlen guards a
    // (theoretically impossible) unterminated name anyway.
    result.model.push_back(SharedBinding{
        std::string(name, ::strnlen(name, nameBytes_)), payload->width,
        payload->value});
    cursor += sizeof(SlotBinding) + alignedNameBytes(nameBytes_);
  }
  return result;
}

std::uint64_t ShmQueryCache::entries() const {
  return entriesWord().load(std::memory_order_relaxed);
}

std::optional<SharedQueryResult> ShmQueryCache::lookup(
    const SharedQueryKey& key) const {
  if (key.empty() || key.size() > maxConjuncts_) return std::nullopt;
  const std::uint64_t digest = keyDigest(key);
  const std::uint64_t probes = std::min<std::uint64_t>(kMaxProbe, capacity_);
  for (std::uint64_t i = 0; i < probes; ++i) {
    const Slot* slot = slotAt(((digest >> 1) + i) % capacity_);
    const std::uint64_t state = slot->state.load(std::memory_order_acquire);
    if (state == kSlotEmpty) break;  // claimed slots: keep probing
    if (state != (digest | kPublishedBit) || slot->keyLen != key.size() ||
        slot->numBindings > maxBindings_)
      continue;
    if (!std::equal(key.begin(), key.end(), slot->keyHashes())) continue;
    return resultAt(*slot);
  }
  return std::nullopt;
}

InsertOutcome ShmQueryCache::insert(const SharedQueryKey& key,
                                    const SharedQueryResult& result) {
  if (key.empty() || key.size() > maxConjuncts_ ||
      result.model.size() > maxBindings_)
    return InsertOutcome::kDropped;
  for (const SharedBinding& binding : result.model)
    if (binding.name.size() + 1 > nameBytes_) return InsertOutcome::kDropped;

  const std::uint64_t digest = keyDigest(key);
  const std::uint64_t probes = std::min<std::uint64_t>(kMaxProbe, capacity_);
  for (std::uint64_t i = 0; i < probes; ++i) {
    Slot* slot = slotAt(((digest >> 1) + i) % capacity_);
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
    const std::uint64_t nameAligned = alignedNameBytes(nameBytes_);
    char* cursor = reinterpret_cast<char*>(slot->keyHashes() + maxConjuncts_);
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
    entriesWord().fetch_add(1, std::memory_order_relaxed);
    return InsertOutcome::kPublished;
  }
  return InsertOutcome::kDropped;
}

std::vector<std::pair<SharedQueryKey, SharedQueryResult>>
ShmQueryCache::sortedEntries() const {
  std::vector<std::pair<SharedQueryKey, SharedQueryResult>> entries;
  for (std::uint64_t i = 0; i < capacity_; ++i) {
    const Slot* slot = slotAt(i);
    if ((slot->state.load(std::memory_order_acquire) & kPublishedBit) == 0 ||
        slot->keyLen > maxConjuncts_ || slot->numBindings > maxBindings_)
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

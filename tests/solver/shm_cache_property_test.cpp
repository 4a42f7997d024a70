// Property tests of the shared query store (solver/shm_cache.hpp). The
// store keeps the contract of solver/shared_cache.hpp — canonical
// values only, first writer wins — so its central
// soundness property is *no fabrication*: anything a lookup ever
// returns, from any process, is byte-equal to a value some process
// actually inserted for exactly that key. The tests drive that with
// genuinely concurrent multi-process readers/writers over one inherited
// mapping, and forge slot bytes through the raw mapping to check that a
// stopped writer or an overrunning slot costs a miss, never a wrong
// result.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "solver/shm_cache.hpp"
#include "support/hash.hpp"

namespace sde::solver {
namespace {

// The canonical-entry universe: entry `i` is a pure function of `i`, so
// every process — writer, reader, verifier — derives the identical
// (key, result) pair independently. Any published entry that is NOT
// byte-equal to canonicalResult(of its key) was fabricated or torn.
SharedQueryKey canonicalKey(std::uint64_t i) {
  // Distinct keys with varying length; values don't need to be sorted
  // for the store (it treats keys as opaque hash vectors).
  SharedQueryKey key;
  const std::uint64_t len = 1 + i % 5;
  for (std::uint64_t k = 0; k < len; ++k)
    key.push_back(support::mix64(i * 131 + k + 1));
  return key;
}

SharedQueryResult canonicalResult(std::uint64_t i) {
  SharedQueryResult result;
  result.status = i % 3 == 0 ? EnumStatus::kExhausted : EnumStatus::kSat;
  if (result.status == EnumStatus::kSat) {
    const std::uint64_t bindings = 1 + i % 4;
    for (std::uint64_t b = 0; b < bindings; ++b)
      result.model.push_back(SharedBinding{
          "v" + std::to_string(i) + "_" + std::to_string(b),
          static_cast<unsigned>(4 + 4 * (b % 3)), support::mix64(i ^ b)});
  }
  return result;
}

TEST(ShmCachePropertyTest, InsertLookupRoundtripAndFirstWriterWins) {
  const auto cache = std::make_unique<ShmQueryCache>();

  for (std::uint64_t i = 0; i < 200; ++i)
    EXPECT_EQ(cache->insert(canonicalKey(i), canonicalResult(i)),
              InsertOutcome::kPublished)
        << "entry " << i;
  EXPECT_EQ(cache->entries(), 200u);

  for (std::uint64_t i = 0; i < 200; ++i) {
    const auto hit = cache->lookup(canonicalKey(i));
    ASSERT_TRUE(hit.has_value()) << "entry " << i;
    EXPECT_EQ(*hit, canonicalResult(i)) << "entry " << i;
  }

  // First writer wins: a conflicting (contract-violating) second insert
  // for an existing key must be ignored, not overwrite.
  SharedQueryResult conflicting = canonicalResult(7);
  conflicting.model.push_back(SharedBinding{"intruder", 8, 0xdeadbeef});
  EXPECT_EQ(cache->insert(canonicalKey(7), conflicting),
            InsertOutcome::kPresent);
  EXPECT_EQ(*cache->lookup(canonicalKey(7)), canonicalResult(7));
  EXPECT_EQ(cache->entries(), 200u);
}

TEST(ShmCachePropertyTest, OversizeEntriesAreDroppedNotTruncated) {
  ShmCacheConfig config;
  config.maxConjuncts = 4;
  config.maxBindings = 2;
  config.nameBytes = 8;
  const auto cache = std::make_unique<ShmQueryCache>(config);

  const auto expectDropped = [&](const SharedQueryKey& key,
                                 const SharedQueryResult& result) {
    EXPECT_EQ(cache->insert(key, result), InsertOutcome::kDropped);
    EXPECT_FALSE(cache->lookup(key).has_value());
  };

  // Too many conjuncts.
  expectDropped(SharedQueryKey{1, 2, 3, 4, 5}, SharedQueryResult{});
  // Too many bindings.
  SharedQueryResult fat;
  fat.status = EnumStatus::kSat;
  fat.model = {SharedBinding{"a", 4, 1}, SharedBinding{"b", 4, 2},
               SharedBinding{"c", 4, 3}};
  expectDropped(SharedQueryKey{9}, fat);
  // Name that cannot be NUL-terminated within nameBytes.
  SharedQueryResult longName;
  longName.status = EnumStatus::kSat;
  longName.model = {SharedBinding{"far_too_long_a_name", 4, 1}};
  expectDropped(SharedQueryKey{10}, longName);

  EXPECT_EQ(cache->entries(), 0u);
}

// The central concurrency property, with real processes: several
// children hammer one store — each inserts a (deterministically
// overlapping) slice of the canonical universe while looking up the
// whole of it — and every value ANY process observes must be canonical.
// A child that sees a fabricated/torn value exits nonzero.
TEST(ShmCachePropertyTest, MultiProcessReadersWritersNeverFabricate) {
  constexpr std::uint64_t kUniverse = 300;
  constexpr int kChildren = 4;
  const auto cache = std::make_unique<ShmQueryCache>();

  std::vector<pid_t> children;
  for (int c = 0; c < kChildren; ++c) {
    const pid_t pid = fork();
    ASSERT_NE(pid, -1) << "fork failed";
    if (pid == 0) {
      // Child: through the mapping it inherited, as a fleet worker
      // does, write an interleaved slice, read everything, verify
      // canonicality. _exit keeps gtest machinery out of the forked
      // copy.
      try {
        for (std::uint64_t i = static_cast<std::uint64_t>(c);
             i < kUniverse; i += 2)  // slices overlap across children
          cache->insert(canonicalKey(i), canonicalResult(i));
        for (std::uint64_t i = 0; i < kUniverse; ++i) {
          const auto hit = cache->lookup(canonicalKey(i));
          if (hit && *hit != canonicalResult(i)) _exit(3);
        }
      } catch (...) {
        _exit(4);
      }
      _exit(0);
    }
    children.push_back(pid);
  }
  for (const pid_t pid : children) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0)
        << "child observed a fabricated or torn value";
  }

  // Parent verification over the whole table: every published entry is
  // canonical, every canonical entry (the slices covered all of them)
  // is present, and each was published once.
  std::map<SharedQueryKey, SharedQueryResult> canon;
  for (std::uint64_t i = 0; i < kUniverse; ++i)
    canon.emplace(canonicalKey(i), canonicalResult(i));
  const auto entries = cache->sortedEntries();
  EXPECT_EQ(entries.size(), kUniverse);
  EXPECT_EQ(cache->entries(), kUniverse);
  for (const auto& [key, result] : entries) {
    const auto want = canon.find(key);
    ASSERT_NE(want, canon.end()) << "store invented a key";
    EXPECT_EQ(result, want->second);
  }
}

// A writer stopped between claim and publish, as a SIGKILL leaves it:
// its slot stays claimed for its key forever. The key must then stay a
// miss, and a second writer of the same key must stop at that claim
// instead of publishing the key in the next free slot (first writer
// wins per key; a race between two writers of one key once published
// it twice). The stopped writer is simulated from raw mapping bytes: a
// published slot whose state word (the first of the slot's 24-byte
// prelude, right before the key hashes) loses its publish bit, the low
// bit, is a bare claim.
TEST(ShmCachePropertyTest, AWriterStoppedBeforePublishingWastesOnlyItsSlot) {
  ShmCacheConfig config;
  config.bytes = 1u << 20;
  const auto cache = std::make_unique<ShmQueryCache>(config);
  const SharedQueryKey stuck = canonicalKey(5);
  ASSERT_EQ(cache->insert(stuck, canonicalResult(5)),
            InsertOutcome::kPublished);
  ASSERT_EQ(cache->entries(), 1u);

  auto* words = static_cast<std::uint64_t*>(cache->mapping().data());
  const std::size_t numWords = cache->mapping().size() / sizeof(std::uint64_t);
  constexpr std::size_t kPreludeWords = 3;
  std::size_t keyAt = numWords;
  for (std::size_t i = kPreludeWords; i < numWords; ++i)
    if (words[i] == stuck.front()) keyAt = i;
  ASSERT_LT(keyAt, numWords) << "the published key is not in the mapping";
  std::uint64_t& state = words[keyAt - kPreludeWords];
  ASSERT_EQ(state & 1, 1u) << "the slot is not published";
  state &= ~std::uint64_t{1};

  EXPECT_FALSE(cache->lookup(stuck).has_value());
  EXPECT_EQ(cache->insert(stuck, canonicalResult(5)),
            InsertOutcome::kPresent);
  EXPECT_FALSE(cache->lookup(stuck).has_value())
      << "a second writer published a key that is already claimed";
  EXPECT_TRUE(cache->sortedEntries().empty());
  EXPECT_EQ(cache->entries(), 1u);

  // Every other key still publishes, probing past the wasted slot.
  for (std::uint64_t i = 6; i < 206; ++i)
    cache->insert(canonicalKey(i), canonicalResult(i));
  for (std::uint64_t i = 6; i < 206; ++i) {
    const auto hit = cache->lookup(canonicalKey(i));
    ASSERT_TRUE(hit.has_value()) << "entry " << i;
    EXPECT_EQ(*hit, canonicalResult(i)) << "entry " << i;
  }
  EXPECT_EQ(cache->sortedEntries().size(), 200u);
}

// A published slot whose counts overrun the slot (a foreign writer, a
// flipped bit) must read as a miss, never be decoded past its end. The
// slot's prelude is the state word, then keyLen and numBindings (u32
// each), right before the key hashes.
TEST(ShmCachePropertyTest, APublishedSlotWithOverrunningCountsReadsAsAMiss) {
  ShmCacheConfig config;
  config.bytes = 1u << 20;
  const auto cache = std::make_unique<ShmQueryCache>(config);
  const SharedQueryKey key = canonicalKey(6);
  ASSERT_EQ(cache->insert(key, canonicalResult(6)), InsertOutcome::kPublished);

  auto* words = static_cast<std::uint64_t*>(cache->mapping().data());
  const std::size_t numWords = cache->mapping().size() / sizeof(std::uint64_t);
  std::size_t keyAt = numWords;
  for (std::size_t i = 3; i < numWords; ++i)
    if (words[i] == key.front()) keyAt = i;
  ASSERT_LT(keyAt, numWords) << "the published key is not in the mapping";
  const std::uint32_t overrun = 0xffffffffu;
  std::memcpy(reinterpret_cast<char*>(&words[keyAt - 2]) + 4, &overrun,
              sizeof(overrun));

  EXPECT_FALSE(cache->lookup(key).has_value());
  EXPECT_TRUE(cache->sortedEntries().empty());
}

}  // namespace
}  // namespace sde::solver

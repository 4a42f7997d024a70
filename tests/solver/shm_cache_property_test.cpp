// Property tests of the shared query store (solver/shm_cache.hpp). The
// store keeps the contract of solver/shared_cache.hpp — canonical
// values only, first writer wins — so its central
// soundness property is *no fabrication*: anything a lookup ever
// returns, from any process, is byte-equal to a value some process
// actually inserted for exactly that key. The tests drive that with
// genuinely concurrent multi-process readers/writers over one segment,
// plus the attach()-time rejection matrix (truncated, torn, version-
// mismatched, never-initialized segments and headers whose geometry
// does not fit the segment must throw ShmCacheError, the signal the
// runners turn into a cold-store degrade).
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "solver/shm_cache.hpp"
#include "support/hash.hpp"

namespace sde::solver {
namespace {

std::string freshName(const char* tag) {
  return "/sde_shmtest_" + std::string(tag) + "_" +
         std::to_string(static_cast<long>(::getpid()));
}

// RAII for the shm *name* (mappings clean themselves up via the cache
// destructor; the name would otherwise outlive the test run).
struct ScopedSegment {
  explicit ScopedSegment(std::string n) : name(std::move(n)) {}
  ~ScopedSegment() { ShmQueryCache::unlinkSegment(name); }
  std::string name;
};

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
  const ScopedSegment seg(freshName("roundtrip"));
  auto cache = ShmQueryCache::create(seg.name);

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
  const ScopedSegment seg(freshName("oversize"));
  ShmCacheConfig config;
  config.maxConjuncts = 4;
  config.maxBindings = 2;
  config.nameBytes = 8;
  auto cache = ShmQueryCache::create(seg.name, config);

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
// children hammer one segment — each inserts a (deterministically
// overlapping) slice of the canonical universe while looking up the
// whole of it — and every value ANY process observes must be canonical.
// A child that sees a fabricated/torn value exits nonzero.
TEST(ShmCachePropertyTest, MultiProcessReadersWritersNeverFabricate) {
  constexpr std::uint64_t kUniverse = 300;
  constexpr int kChildren = 4;
  const ScopedSegment seg(freshName("mp"));
  auto cache = ShmQueryCache::create(seg.name);

  std::vector<pid_t> children;
  for (int c = 0; c < kChildren; ++c) {
    const pid_t pid = fork();
    ASSERT_NE(pid, -1) << "fork failed";
    if (pid == 0) {
      // Child: attach by name (exercising the cross-process path, not
      // the inherited mapping), write an interleaved slice, read
      // everything, verify canonicality. _exit keeps gtest machinery
      // out of the forked copy.
      try {
        auto mine = ShmQueryCache::attach(seg.name);
        for (std::uint64_t i = static_cast<std::uint64_t>(c);
             i < kUniverse; i += 2)  // slices overlap across children
          mine->insert(canonicalKey(i), canonicalResult(i));
        for (std::uint64_t i = 0; i < kUniverse; ++i) {
          const auto hit = mine->lookup(canonicalKey(i));
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
// it twice). The stopped writer is simulated from raw segment bytes: a
// published slot whose state word (the first of the slot's 24-byte
// prelude, right before the key hashes) loses its publish bit, the low
// bit, is a bare claim.
TEST(ShmCachePropertyTest, AWriterStoppedBeforePublishingWastesOnlyItsSlot) {
  const ScopedSegment seg(freshName("stopped"));
  ShmCacheConfig config;
  config.bytes = 1u << 20;
  auto cache = ShmQueryCache::create(seg.name, config);
  const SharedQueryKey stuck = canonicalKey(5);
  ASSERT_EQ(cache->insert(stuck, canonicalResult(5)),
            InsertOutcome::kPublished);
  ASSERT_EQ(cache->entries(), 1u);

  const int fd = ::shm_open(seg.name.c_str(), O_RDWR, 0600);
  ASSERT_GE(fd, 0);
  void* base = ::mmap(nullptr, config.bytes, PROT_READ | PROT_WRITE,
                      MAP_SHARED, fd, 0);
  ASSERT_NE(base, MAP_FAILED);
  auto* words = static_cast<std::uint64_t*>(base);
  const std::size_t numWords = config.bytes / sizeof(std::uint64_t);
  constexpr std::size_t kPreludeWords = 3;
  std::size_t keyAt = numWords;
  for (std::size_t i = kPreludeWords; i < numWords; ++i)
    if (words[i] == stuck.front()) keyAt = i;
  ASSERT_LT(keyAt, numWords) << "the published key is not in the segment";
  std::uint64_t& state = words[keyAt - kPreludeWords];
  ASSERT_EQ(state & 1, 1u) << "the slot is not published";
  state &= ~std::uint64_t{1};
  ::munmap(base, config.bytes);
  ::close(fd);

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
  const ScopedSegment seg(freshName("overrun"));
  ShmCacheConfig config;
  config.bytes = 1u << 20;
  auto cache = ShmQueryCache::create(seg.name, config);
  const SharedQueryKey key = canonicalKey(6);
  ASSERT_EQ(cache->insert(key, canonicalResult(6)), InsertOutcome::kPublished);

  const int fd = ::shm_open(seg.name.c_str(), O_RDWR, 0600);
  ASSERT_GE(fd, 0);
  void* base = ::mmap(nullptr, config.bytes, PROT_READ | PROT_WRITE,
                      MAP_SHARED, fd, 0);
  ASSERT_NE(base, MAP_FAILED);
  auto* words = static_cast<std::uint64_t*>(base);
  const std::size_t numWords = config.bytes / sizeof(std::uint64_t);
  std::size_t keyAt = numWords;
  for (std::size_t i = 3; i < numWords; ++i)
    if (words[i] == key.front()) keyAt = i;
  ASSERT_LT(keyAt, numWords) << "the published key is not in the segment";
  const std::uint32_t overrun = 0xffffffffu;
  std::memcpy(reinterpret_cast<char*>(&words[keyAt - 2]) + 4, &overrun,
              sizeof(overrun));
  ::munmap(base, config.bytes);
  ::close(fd);

  EXPECT_FALSE(cache->lookup(key).has_value());
  EXPECT_TRUE(cache->sortedEntries().empty());
}

TEST(ShmCacheRejectionTest, MissingSegment) {
  EXPECT_FALSE(ShmQueryCache::segmentExists("/sde_shmtest_never_created"));
  EXPECT_THROW((void)ShmQueryCache::attach("/sde_shmtest_never_created"),
               ShmCacheError);
}

TEST(ShmCacheRejectionTest, TruncatedBelowHeader) {
  const ScopedSegment seg(freshName("tiny"));
  const int fd = ::shm_open(seg.name.c_str(), O_RDWR | O_CREAT | O_EXCL, 0600);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::ftruncate(fd, 16), 0);
  ::close(fd);
  EXPECT_TRUE(ShmQueryCache::segmentExists(seg.name));
  EXPECT_THROW((void)ShmQueryCache::attach(seg.name), ShmCacheError);
}

TEST(ShmCacheRejectionTest, ForeignBytesAreNotACache) {
  const ScopedSegment seg(freshName("foreign"));
  const int fd = ::shm_open(seg.name.c_str(), O_RDWR | O_CREAT | O_EXCL, 0600);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::ftruncate(fd, 4096), 0);
  void* base = ::mmap(nullptr, 4096, PROT_WRITE, MAP_SHARED, fd, 0);
  ASSERT_NE(base, MAP_FAILED);
  std::memcpy(base, "GARBAGEGARBAGE", 14);
  ::munmap(base, 4096);
  ::close(fd);
  EXPECT_THROW((void)ShmQueryCache::attach(seg.name), ShmCacheError);
}

TEST(ShmCacheRejectionTest, LayoutVersionMismatch) {
  const ScopedSegment seg(freshName("version"));
  { auto cache = ShmQueryCache::create(seg.name); }

  // Poke the version field (a u32 right after the 8-byte magic) to a
  // future value: a valid segment of a DIFFERENT build must be refused,
  // never reinterpreted.
  const int fd = ::shm_open(seg.name.c_str(), O_RDWR, 0600);
  ASSERT_GE(fd, 0);
  void* base = ::mmap(nullptr, 4096, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ASSERT_NE(base, MAP_FAILED);
  const std::uint32_t bogus = 999;
  std::memcpy(static_cast<char*>(base) + 8, &bogus, sizeof(bogus));
  ::munmap(base, 4096);
  ::close(fd);

  EXPECT_THROW((void)ShmQueryCache::attach(seg.name), ShmCacheError);
}

TEST(ShmCacheRejectionTest, TornGeometryAfterTruncation) {
  const ScopedSegment seg(freshName("torn"));
  { auto cache = ShmQueryCache::create(seg.name); }

  // Shrink the file under the advertised geometry: the header survives
  // but the table no longer fits — attach must refuse (probing the lost
  // tail would SIGBUS).
  const int fd = ::shm_open(seg.name.c_str(), O_RDWR, 0600);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::ftruncate(fd, 8192), 0);
  ::close(fd);
  EXPECT_THROW((void)ShmQueryCache::attach(seg.name), ShmCacheError);
}

TEST(ShmCacheRejectionTest, CapacityWhoseTableSizeWrapsIsRejected) {
  const ScopedSegment seg(freshName("wrap"));
  { auto cache = ShmQueryCache::create(seg.name); }

  // Rewrite the capacity (the u64 after the magic, the version and its
  // padding) to 2^61 slots. A default slot is 2,200 bytes = 8 * 275, so
  // the table's size 2^61 * 2,200 = 2^64 * 275 wraps to 0 in u64: an
  // attach that multiplies would accept the header and probe far
  // outside the mapping.
  const int fd = ::shm_open(seg.name.c_str(), O_RDWR, 0600);
  ASSERT_GE(fd, 0);
  void* base = ::mmap(nullptr, 4096, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ASSERT_NE(base, MAP_FAILED);
  const std::uint64_t wrapping = std::uint64_t{1} << 61;
  std::memcpy(static_cast<char*>(base) + 16, &wrapping, sizeof(wrapping));
  ::munmap(base, 4096);
  ::close(fd);

  EXPECT_THROW((void)ShmQueryCache::attach(seg.name), ShmCacheError);
}

TEST(ShmCacheRejectionTest, NeverInitializedCreatorCrash) {
  const ScopedSegment seg(freshName("unready"));
  // Simulate a creator killed between ftruncate and the ready marker: a
  // right-sized, all-zero segment. Magic check fails first — the
  // outcome is the same ShmCacheError degrade path.
  const int fd = ::shm_open(seg.name.c_str(), O_RDWR | O_CREAT | O_EXCL, 0600);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::ftruncate(fd, 1 << 20), 0);
  ::close(fd);
  EXPECT_THROW((void)ShmQueryCache::attach(seg.name), ShmCacheError);
}

}  // namespace
}  // namespace sde::solver

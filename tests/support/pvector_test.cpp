// Unit tests for the persistent structurally-shared sequences backing
// ExecutionState::fork — the O(1)-fork claim at the container level:
// copying shares sealed chunks and the tail (PVector) or the whole
// payload (CowVec), a push clones a shared tail, and the shared-aware
// byte accounting charges
// every block exactly once regardless of traversal order. Sharing is
// checked by chunk and payload pointer identity. pvector_model_test.cpp
// drives the same containers through random operation sequences.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "support/pvector.hpp"

namespace sde::support {
namespace {

using IntSeq = PVector<std::uint64_t>;
constexpr std::size_t kChunk = IntSeq::chunkCapacity();

TEST(PVectorTest, PushIndexAndIterateMatchAReferenceVector) {
  IntSeq seq;
  std::vector<std::uint64_t> reference;
  for (std::uint64_t i = 0; i < 5 * kChunk + 7; ++i) {
    seq.push_back(i * 3 + 1);
    reference.push_back(i * 3 + 1);
  }
  ASSERT_EQ(seq.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i)
    EXPECT_EQ(seq[i], reference[i]) << "index " << i;
  EXPECT_EQ(seq.back(), reference.back());

  std::vector<std::uint64_t> iterated;
  for (const std::uint64_t v : seq) iterated.push_back(v);
  EXPECT_EQ(iterated, reference);
}

TEST(PVectorTest, CopyCostIsTheTailNotTheHistory) {
  IntSeq seq;
  const std::size_t total = 10 * kChunk + 5;
  for (std::uint64_t i = 0; i < total; ++i) seq.push_back(i);
  ASSERT_EQ(seq.tailSize(), 5u);
  ASSERT_EQ(seq.numChunks(), 10u);

  // The advertised cost (used by ExecutionState::forkCopyCost) is the
  // tail size, independent of the 10-chunk history: the elements a copy
  // defers. The copy holds the same spine, hence the same chunks, and
  // the same tail, which the first push on either side clones.
  EXPECT_EQ(seq.copyCostElements(), 5u);
  EXPECT_EQ(seq.sharedChunksOnCopy(), 10u);
  IntSeq copy = seq;
  EXPECT_EQ(copy.spine(), seq.spine());
  EXPECT_EQ(copy.tail(), seq.tail());
  EXPECT_EQ(copy.tail().data(), seq.tail().data());
  EXPECT_EQ(copy.size(), seq.size());
  EXPECT_EQ(copy[3 * kChunk + 1], seq[3 * kChunk + 1]);

  const std::uint64_t* shared = seq.tail().data();
  copy.push_back(1000);
  EXPECT_NE(copy.tail().data(), shared);
  EXPECT_EQ(seq.tail().data(), shared);
  EXPECT_EQ(seq.tailSize(), 5u);
  EXPECT_EQ(copy.tailSize(), 6u);
}

TEST(PVectorTest, CopiesDivergeIndependently) {
  IntSeq parent;
  for (std::uint64_t i = 0; i < 2 * kChunk + 3; ++i) parent.push_back(i);
  IntSeq child = parent;
  child.push_back(1000);
  parent.push_back(2000);
  parent.push_back(2001);
  ASSERT_EQ(child.size(), 2 * kChunk + 4);
  ASSERT_EQ(parent.size(), 2 * kChunk + 5);
  EXPECT_EQ(child.back(), 1000u);
  EXPECT_EQ(parent.back(), 2001u);
  // The shared prefix is untouched by either side.
  for (std::size_t i = 0; i < 2 * kChunk + 3; ++i) {
    EXPECT_EQ(parent[i], i);
    EXPECT_EQ(child[i], i);
  }
}

TEST(PVectorTest, AccountBytesChargesSharedChunksOnce) {
  IntSeq a;
  for (std::uint64_t i = 0; i < 6 * kChunk; ++i) a.push_back(i);
  const IntSeq b = a;  // shares all 6 chunks

  SeenSet seenSolo;
  const std::uint64_t solo = a.accountBytes(seenSolo);

  SeenSet seenBoth;
  const std::uint64_t both =
      a.accountBytes(seenBoth) + b.accountBytes(seenBoth);
  // Two sharers cost one payload plus two (identical) spine overheads —
  // far below twice the solo cost.
  EXPECT_LT(both, 2 * solo);
  EXPECT_EQ(both, solo + 6 * sizeof(void*));

  // Traversal order must not change the total (first visitor pays).
  SeenSet seenReversed;
  const std::uint64_t reversed =
      b.accountBytes(seenReversed) + a.accountBytes(seenReversed);
  EXPECT_EQ(reversed, both);
}

TEST(PVectorTest, AccountBytesNeverExceedsThePerCopySum) {
  IntSeq a;
  for (std::uint64_t i = 0; i < 3 * kChunk + 9; ++i) a.push_back(i);
  const IntSeq b = a;

  SeenSet seenShared;
  const std::uint64_t shared =
      a.accountBytes(seenShared) + b.accountBytes(seenShared);

  // Each copy audited alone pays for every chunk it holds: the bill
  // of copies that share nothing.
  SeenSet seenA;
  SeenSet seenB;
  const std::uint64_t apart = a.accountBytes(seenA) + b.accountBytes(seenB);
  EXPECT_LT(shared, apart);
}

TEST(PVectorTest, SnapshotRoundTripPreservesContentsAndSharing) {
  IntSeq original;
  for (std::uint64_t i = 0; i < 2 * kChunk + 1; ++i) original.push_back(i);

  // Rebuild through the snapshot interface, sharing the original spine
  // (what the checkpoint chunk table does across restore).
  IntSeq restored;
  auto spine = std::make_shared<IntSeq::Spine>(*original.spine());
  restored.restoreSnapshot(std::move(spine), original.tail());
  ASSERT_EQ(restored.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i)
    EXPECT_EQ(restored[i], original[i]);

  SeenSet seen;
  const std::uint64_t first = original.accountBytes(seen);
  const std::uint64_t second = restored.accountBytes(seen);
  EXPECT_LT(second, first);  // chunks already charged to `original`
}

TEST(CowVecTest, CopyIsFreeAndFirstMutationClones) {
  CowVec<std::uint64_t> a;
  for (std::uint64_t i = 0; i < 100; ++i) a.push_back(i);

  CowVec<std::uint64_t> b = a;
  EXPECT_EQ(b.raw(), a.raw());  // O(1) copy: one payload, two holders
  EXPECT_EQ(b.sharedChunksOnCopy(), 1u);

  const auto* shared = a.raw().get();
  b.push_back(500);  // mutation pays for the clone
  EXPECT_NE(b.raw().get(), shared);
  EXPECT_EQ(a.raw().get(), shared);
  EXPECT_EQ(a.size(), 100u);
  EXPECT_EQ(b.size(), 101u);
  EXPECT_EQ(a[99], 99u);
  EXPECT_EQ(b[100], 500u);
}

TEST(CowVecTest, EraseAndEraseIfMatchAReferenceVector) {
  CowVec<std::uint64_t> cow;
  std::vector<std::uint64_t> reference;
  for (std::uint64_t i = 0; i < 20; ++i) {
    cow.push_back(i);
    reference.push_back(i);
  }
  const CowVec<std::uint64_t> frozen = cow;  // must not observe mutations

  cow.erase(cow.begin() + 5);
  reference.erase(reference.begin() + 5);

  const auto odd = [](std::uint64_t v) { return v % 2 == 1; };
  EXPECT_EQ(cow.eraseIf(odd), std::erase_if(reference, odd));
  ASSERT_EQ(cow.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i)
    EXPECT_EQ(cow[i], reference[i]);

  // A no-match predicate must not clone shared storage.
  const CowVec<std::uint64_t> sharer = cow;
  EXPECT_EQ(cow.eraseIf([](std::uint64_t v) { return v > 10000; }), 0u);
  EXPECT_EQ(cow.raw(), sharer.raw());

  EXPECT_EQ(frozen.size(), 20u);
  for (std::size_t i = 0; i < 20; ++i) EXPECT_EQ(frozen[i], i);
}

TEST(CowVecTest, ClearDropsOnlyOurReference) {
  CowVec<std::uint64_t> a;
  a.push_back(7);
  CowVec<std::uint64_t> b = a;
  a.clear();
  EXPECT_TRUE(a.empty());
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0], 7u);
}

TEST(CowVecTest, AccountBytesChargesTheSharedPayloadOnce) {
  CowVec<std::uint64_t> a;
  for (std::uint64_t i = 0; i < 50; ++i) a.push_back(i);
  const CowVec<std::uint64_t> b = a;

  SeenSet seen;
  const std::uint64_t first = a.accountBytes(seen);
  const std::uint64_t second = b.accountBytes(seen);
  EXPECT_EQ(first, 50 * sizeof(std::uint64_t));
  EXPECT_EQ(second, 0u);
}

}  // namespace
}  // namespace sde::support

#include <gtest/gtest.h>

#include "vm/memory.hpp"

namespace sde::vm {
namespace {

class MemoryTest : public ::testing::Test {
 protected:
  expr::Context ctx;
  AddressSpace space;
};

TEST_F(MemoryTest, GlobalsAreObjectZero) {
  space.initGlobals(ctx, 4);
  EXPECT_TRUE(space.hasObject(kGlobalsObject));
  EXPECT_EQ(space.objectSize(kGlobalsObject), 4u);
  EXPECT_EQ(space.load(kGlobalsObject, 0), ctx.constant(0, 64));
}

TEST_F(MemoryTest, AllocReturnsFreshIds) {
  space.initGlobals(ctx, 1);
  const auto a = space.alloc(ctx, 2);
  const auto b = space.alloc(ctx, 3);
  EXPECT_NE(a, b);
  EXPECT_NE(a, kGlobalsObject);
  EXPECT_EQ(space.objectSize(a), 2u);
  EXPECT_EQ(space.objectSize(b), 3u);
}

TEST_F(MemoryTest, StoreLoadRoundTrip) {
  space.initGlobals(ctx, 2);
  expr::Ref v = ctx.variable("v", 64);
  space.store(kGlobalsObject, 1, v);
  EXPECT_EQ(space.load(kGlobalsObject, 1), v);
  EXPECT_EQ(space.load(kGlobalsObject, 0), ctx.constant(0, 64));
}

TEST_F(MemoryTest, AllocFromMaterialisesContent) {
  space.initGlobals(ctx, 1);
  AddressSpace::Cells payload{ctx.constant(7, 64), ctx.constant(9, 64)};
  const auto id = space.allocFrom(payload);
  EXPECT_EQ(space.objectSize(id), 2u);
  EXPECT_EQ(space.load(id, 0), ctx.constant(7, 64));
  EXPECT_EQ(space.load(id, 1), ctx.constant(9, 64));
}

TEST_F(MemoryTest, CopyOnWriteIsolatesForks) {
  space.initGlobals(ctx, 2);
  space.store(kGlobalsObject, 0, ctx.constant(1, 64));
  AddressSpace forked = space;  // shares payloads

  forked.store(kGlobalsObject, 0, ctx.constant(2, 64));
  EXPECT_EQ(space.load(kGlobalsObject, 0), ctx.constant(1, 64));
  EXPECT_EQ(forked.load(kGlobalsObject, 0), ctx.constant(2, 64));

  // And the other direction.
  space.store(kGlobalsObject, 1, ctx.constant(3, 64));
  EXPECT_EQ(forked.load(kGlobalsObject, 1), ctx.constant(0, 64));
}

TEST_F(MemoryTest, SharedBytesAccountedOnce) {
  space.initGlobals(ctx, 8);
  AddressSpace forked = space;
  support::SeenSet seen;
  const auto first = space.accountBytes(seen);
  const auto second = forked.accountBytes(seen);
  EXPECT_GT(first, 0u);
  EXPECT_EQ(second, 0u);  // same payload, already attributed
}

TEST_F(MemoryTest, DivergedForkAccountsSeparately) {
  space.initGlobals(ctx, 8);
  AddressSpace forked = space;
  forked.store(kGlobalsObject, 0, ctx.constant(5, 64));  // triggers COW
  support::SeenSet seen;
  const auto first = space.accountBytes(seen);
  const auto second = forked.accountBytes(seen);
  EXPECT_EQ(first, second);
  EXPECT_GT(second, 0u);
}

TEST_F(MemoryTest, ContentHashTracksContentNotSharing) {
  space.initGlobals(ctx, 2);
  AddressSpace forked = space;
  EXPECT_EQ(space.contentHash(), forked.contentHash());
  forked.store(kGlobalsObject, 0, ctx.constant(9, 64));
  EXPECT_NE(space.contentHash(), forked.contentHash());
  // Writing the same value back restores equality (content-addressed).
  forked.store(kGlobalsObject, 0, ctx.constant(0, 64));
  EXPECT_EQ(space.contentHash(), forked.contentHash());
}

TEST_F(MemoryTest, ReadExtractsPrefix) {
  space.initGlobals(ctx, 1);
  AddressSpace::Cells payload{ctx.constant(1, 64), ctx.constant(2, 64),
                              ctx.constant(3, 64)};
  const auto id = space.allocFrom(payload);
  const auto prefix = space.read(id, 2);
  ASSERT_EQ(prefix.size(), 2u);
  EXPECT_EQ(prefix[1], ctx.constant(2, 64));
}

TEST_F(MemoryTest, OutOfBoundsLoadAborts) {
  space.initGlobals(ctx, 2);
  EXPECT_DEATH((void)space.load(kGlobalsObject, 2), "out of bounds");
  EXPECT_DEATH((void)space.load(99, 0), "unknown object");
}

}  // namespace
}  // namespace sde::vm

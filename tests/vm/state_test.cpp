// ExecutionState: fork semantics and the two configuration fingerprints
// (content vs strict; see duplicates.hpp for why both exist).
#include <gtest/gtest.h>

#include "vm/builder.hpp"
#include "vm/state.hpp"

namespace sde::vm {
namespace {

class StateTest : public ::testing::Test {
 protected:
  StateTest() {
    IRBuilder b("noop");
    b.setGlobals(2);
    b.beginEntry(Entry::kInit);
    b.halt();
    program = b.finish();
  }

  ExecutionState makeState(NodeId node = 1) {
    ExecutionState state(nextId++, node, program);
    state.space.initGlobals(ctx, 2);
    return state;
  }

  expr::Context ctx;
  Program program;
  StateId nextId = 0;
};

TEST_F(StateTest, ForkCopiesEverythingButId) {
  ExecutionState s = makeState();
  s.pc = 7;
  s.clock = 42;
  s.callStack = {1, 2};
  s.constraints.add(ctx.variable("c", 1));
  s.commLog.push_back({true, 2, 10, 0xfeed, 3});
  s.symbolics.push_back(ctx.variable("c", 1));
  s.mutableCold().symbolicCounters["drop"] = 2;
  s.executedInstructions = 99;

  auto clone = s.fork(1234);
  EXPECT_EQ(clone->id(), 1234u);
  EXPECT_NE(clone->id(), s.id());
  EXPECT_EQ(clone->node(), s.node());
  EXPECT_EQ(clone->pc, 7u);
  EXPECT_EQ(clone->clock, 42u);
  EXPECT_EQ(clone->callStack, s.callStack);
  EXPECT_EQ(clone->constraints.size(), 1u);
  EXPECT_EQ(clone->commLog.size(), 1u);
  EXPECT_EQ(clone->symbolics.size(), 1u);
  EXPECT_EQ(clone->cold().symbolicCounters.at("drop"), 2u);
  EXPECT_EQ(clone->executedInstructions, 99u);
  EXPECT_EQ(clone->configHash(), s.configHash());
  EXPECT_EQ(clone->configHashStrict(), s.configHashStrict());
}

TEST_F(StateTest, ForkSharesTablesAndColdFieldsUntilOneSideWrites) {
  ExecutionState s = makeState();
  s.mutableCold().activeTimers[1] = 5;
  s.constraints.add(ctx.variable("c", 1));
  auto clone = s.fork(55);
  EXPECT_EQ(&clone->cold(), &s.cold());
  EXPECT_EQ(&clone->space.objects(), &s.space.objects());
  EXPECT_EQ(clone->constraints.items().tail().data(),
            s.constraints.items().tail().data());

  clone->mutableCold().activeTimers[1] = 9;
  EXPECT_NE(&clone->cold(), &s.cold());
  EXPECT_EQ(s.cold().activeTimers.at(1), 5u);
  clone->space.alloc(ctx, 1);
  EXPECT_NE(&clone->space.objects(), &s.space.objects());
  EXPECT_EQ(s.space.numObjects(), 1u);
  clone->constraints.add(ctx.variable("d", 1));
  EXPECT_EQ(s.constraints.size(), 1u);
  EXPECT_EQ(clone->constraints.size(), 2u);
}

// The object a fork allocates: registers, object table, tails and cold
// fields are blocks it shares, not parts of it (libstdc++ on LP64).
TEST_F(StateTest, TheStateObjectIs360Bytes) {
  EXPECT_EQ(sizeof(ExecutionState), 360u);
}

// The meter bills the state object a fixed kStateObjectBytes (800 B),
// whatever sizeof says, plus its shape terms; a fork pays the same for
// the fields and tails it shares.
TEST_F(StateTest, PrivateBytesAreTheFixedObjectPricePlusTheShape) {
  const ExecutionState fresh(nextId++, 1, program);
  EXPECT_EQ(kStateObjectBytes, 800u);
  EXPECT_EQ(fresh.privateBytes(), 800u);

  ExecutionState s = makeState();
  s.callStack = {1, 2, 3};
  s.mutableCold().failureMessage = "boom";
  s.mutableCold().activeTimers[1] = 5;
  s.mutableCold().symbolicCounters["drop"] = 2;
  for (std::uint64_t i = 0; i < 3; ++i)
    s.constraints.add(
        ctx.ult(ctx.variable("v", 16), ctx.constant(i + 1, 16)));
  const std::uint64_t shape = 3 * sizeof(std::size_t) + 4 +
                              (sizeof(std::uint32_t) + sizeof(std::uint64_t)) +
                              (4 + sizeof(std::uint32_t)) +
                              3 * sizeof(expr::Ref);
  EXPECT_EQ(s.privateBytes(), 800u + shape);
  EXPECT_EQ(s.fork(56)->privateBytes(), s.privateBytes());
}

TEST_F(StateTest, ForkedMemoryIsIndependent) {
  ExecutionState s = makeState();
  auto clone = s.fork(99);
  clone->space.store(kGlobalsObject, 0, ctx.constant(5, 64));
  EXPECT_EQ(s.space.load(kGlobalsObject, 0), ctx.constant(0, 64));
  EXPECT_NE(clone->configHash(), s.configHash());
}

TEST_F(StateTest, ContentHashIgnoresPacketIds) {
  // Two states that exchanged *content-identical* packets with different
  // ids: equal content hash, different strict hash.
  ExecutionState a = makeState();
  ExecutionState b = makeState();
  a.commLog.push_back({false, 2, 10, 0xabc, /*packetId=*/7});
  b.commLog.push_back({false, 2, 10, 0xabc, /*packetId=*/8});
  EXPECT_EQ(a.configHash(), b.configHash());
  EXPECT_NE(a.configHashStrict(), b.configHashStrict());
}

TEST_F(StateTest, StrictHashSeesPendingPacketIdentity) {
  ExecutionState a = makeState();
  ExecutionState b = makeState();
  PendingEvent ea;
  ea.kind = EventKind::kRecv;
  ea.time = 5;
  ea.b = 100;
  PendingEvent eb = ea;
  eb.b = 200;
  a.pendingEvents.push_back(ea);
  b.pendingEvents.push_back(eb);
  EXPECT_EQ(a.configHash(), b.configHash());
  EXPECT_NE(a.configHashStrict(), b.configHashStrict());
}

TEST_F(StateTest, HashCoversStatusClockAndFailure) {
  ExecutionState a = makeState();
  const auto base = a.configHash();
  a.status = StateStatus::kFailed;
  EXPECT_NE(a.configHash(), base);
  a.status = StateStatus::kIdle;
  a.clock = 77;
  EXPECT_NE(a.configHash(), base);
  a.clock = 0;
  a.mutableCold().failureMessage = "boom";
  EXPECT_NE(a.configHash(), base);
}

TEST_F(StateTest, HashCoversRegistersAndConstraints) {
  ExecutionState a = makeState();
  const auto base = a.configHash();
  a.mutableRegs()[5] = ctx.constant(1, 64);
  const auto withReg = a.configHash();
  EXPECT_NE(withReg, base);
  a.constraints.add(ctx.variable("x", 1));
  EXPECT_NE(a.configHash(), withReg);
}

TEST_F(StateTest, TerminalPredicate) {
  ExecutionState s = makeState();
  EXPECT_FALSE(s.isTerminal());
  for (const StateStatus status :
       {StateStatus::kFailed, StateStatus::kInfeasible,
        StateStatus::kKilled}) {
    s.status = status;
    EXPECT_TRUE(s.isTerminal());
  }
  s.status = StateStatus::kRunning;
  EXPECT_FALSE(s.isTerminal());
}

TEST_F(StateTest, NodeIdsDifferentiateHashes) {
  ExecutionState a = makeState(1);
  ExecutionState b = makeState(2);
  EXPECT_NE(a.configHash(), b.configHash());
}

TEST_F(StateTest, ForkCopyCostIsBoundedRegardlessOfHistorySize) {
  // The O(1)-fork claim at the state level: growing every append-only
  // history tenfold must not grow the fork's deep-copy cost — only the
  // bounded sequence tails (< one chunk each) are ever copied.
  const std::size_t chunk = support::PVector<expr::Ref>::chunkCapacity();
  const auto grow = [&](ExecutionState& s, std::uint64_t records) {
    for (std::uint64_t i = 0; i < records; ++i) {
      s.constraints.add(ctx.ult(ctx.variable("v", 16),
                                ctx.constant(i + 1, 16)));
      s.commLog.push_back({true, 2, i, i * 31, i});
      s.decisions.push_back({ctx.variable("d", 1), i % 2 == 0});
      s.symbolics.push_back(ctx.variable("s" + std::to_string(i), 8));
      PendingEvent event;
      event.time = i;
      event.seq = s.nextEventSeq++;
      s.pendingEvents.push_back(std::move(event));
    }
  };

  ExecutionState small = makeState();
  grow(small, 50);
  ExecutionState large = makeState();
  grow(large, 500);

  // Four chunked sequences with tails under one chunk each, plus the
  // CoW event queue at zero.
  EXPECT_LE(small.forkCopyCost(), 4 * (chunk - 1));
  EXPECT_LE(large.forkCopyCost(), 4 * (chunk - 1));
  EXPECT_GT(large.forkSharedChunks(), small.forkSharedChunks());

  // The advertised cost matches what a fork actually does: the clone
  // holds the same spines (hence chunks) and event-queue payload, and
  // shares the tails, which are exactly the forkCopyCost() elements it
  // defers copying.
  const auto clone = large.fork(4242);
  const auto& items = large.constraints.items();
  const auto& records = large.commLog.records();
  EXPECT_EQ(clone->constraints.items().spine(), items.spine());
  EXPECT_EQ(clone->commLog.records().spine(), records.spine());
  EXPECT_EQ(clone->decisions.spine(), large.decisions.spine());
  EXPECT_EQ(clone->symbolics.spine(), large.symbolics.spine());
  EXPECT_EQ(clone->pendingEvents.events().raw(),
            large.pendingEvents.events().raw());
  EXPECT_EQ(large.forkCopyCost(),
            items.tailSize() + records.tailSize() +
                large.decisions.tailSize() + large.symbolics.tailSize());
  EXPECT_EQ(large.forkSharedChunks(),
            items.numChunks() + records.numChunks() +
                large.decisions.numChunks() + large.symbolics.numChunks() + 1);
  EXPECT_EQ(clone->configHash(), large.configHash());
  EXPECT_EQ(clone->configHashStrict(), large.configHashStrict());
}

TEST_F(StateTest, AccountBytesChargesSharedHistoryOnce) {
  ExecutionState s = makeState();
  for (std::uint64_t i = 0; i < 200; ++i) {
    s.constraints.add(ctx.ult(ctx.variable("v", 16), ctx.constant(i + 1, 16)));
    s.commLog.push_back({true, 2, i, i * 31, i});
  }
  support::SeenSet seenSolo;
  const std::uint64_t solo = s.accountBytes(seenSolo);

  const auto clone = s.fork(777);
  support::SeenSet seenPair;
  const std::uint64_t pair =
      s.accountBytes(seenPair) + clone->accountBytes(seenPair);
  // Far from double: the clone re-pays only tails and fixed overhead.
  EXPECT_LT(pair, 2 * solo);

  // Order independence of the seen-set discipline.
  support::SeenSet seenReversed;
  const std::uint64_t reversed =
      clone->accountBytes(seenReversed) + s.accountBytes(seenReversed);
  EXPECT_EQ(reversed, pair);

  // Each state audited alone pays for every block it holds, as if the
  // two shared nothing: the upper bound.
  support::SeenSet seenClone;
  const std::uint64_t apart = solo + clone->accountBytes(seenClone);
  EXPECT_LT(pair, apart);
}

}  // namespace
}  // namespace sde::vm

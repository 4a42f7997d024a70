#include <gtest/gtest.h>

#include "solver/solver.hpp"
#include "os/events.hpp"
#include "os/node.hpp"
#include "os/runtime.hpp"
#include "vm/builder.hpp"

namespace sde::os {
namespace {

class NullSink final : public vm::EffectSink {
 public:
  vm::ExecutionState& forkState(vm::ExecutionState&) override {
    ADD_FAILURE() << "unexpected fork";
    std::abort();
  }
  void onSend(vm::ExecutionState&, vm::NodeId,
              std::vector<expr::Ref>) override {}
};

vm::Program makeRecorderProgram() {
  // Records event arguments into globals so tests can observe dispatch.
  vm::IRBuilder b("recorder");
  b.setGlobals(6);
  b.beginEntry(vm::Entry::kInit);
  b.constant(vm::Reg(3), 1);
  b.storeGlobal(vm::Reg(3), 0);  // booted = 1
  b.halt();
  b.beginEntry(vm::Entry::kTimer);
  b.storeGlobal(vm::Reg(0), 1);  // timer id
  b.halt();
  b.beginEntry(vm::Entry::kRecv);
  b.storeGlobal(vm::Reg(0), 2);  // payload object
  b.storeGlobal(vm::Reg(1), 3);  // source
  b.storeGlobal(vm::Reg(2), 4);  // length
  // Copy first payload cell into globals[5].
  b.constant(vm::Reg(4), 0);
  b.load(vm::Reg(5), vm::Reg(0), vm::Reg(4));
  b.storeGlobal(vm::Reg(5), 5);
  b.halt();
  return b.finish();
}

class OsTest : public ::testing::Test {
 protected:
  OsTest() : program(makeRecorderProgram()), solver(ctx), interp(ctx, solver) {}

  expr::Context ctx;
  vm::Program program;
  solver::Solver solver;
  vm::Interpreter interp;
  NullSink sink;
};

TEST_F(OsTest, EntryForMapsAllKinds) {
  EXPECT_EQ(entryFor(vm::EventKind::kBoot), vm::Entry::kInit);
  EXPECT_EQ(entryFor(vm::EventKind::kTimer), vm::Entry::kTimer);
  EXPECT_EQ(entryFor(vm::EventKind::kRecv), vm::Entry::kRecv);
}

TEST_F(OsTest, SetupBootSchedulesBootEvent) {
  vm::ExecutionState state(0, 1, program);
  setupBoot(ctx, state, 50);
  EXPECT_EQ(state.space.objectSize(vm::kGlobalsObject), 6u);
  ASSERT_EQ(state.pendingEvents.size(), 1u);
  EXPECT_EQ(state.pendingEvents[0].kind, vm::EventKind::kBoot);
  EXPECT_EQ(state.pendingEvents[0].time, 50u);
}

TEST_F(OsTest, DispatchBootRunsInitAndAdvancesClock) {
  vm::ExecutionState state(0, 1, program);
  setupBoot(ctx, state, 7);
  const vm::PendingEvent boot = state.pendingEvents[0];
  state.pendingEvents.clear();
  dispatchEvent(ctx, interp, state, boot, sink);
  EXPECT_EQ(state.clock, 7u);
  EXPECT_EQ(state.space.load(vm::kGlobalsObject, 0), ctx.constant(1, 64));
}

TEST_F(OsTest, DispatchTimerPassesTimerId) {
  vm::ExecutionState state(0, 1, program);
  setupBoot(ctx, state, 0);
  vm::PendingEvent timer;
  timer.time = 100;
  timer.kind = vm::EventKind::kTimer;
  timer.a = 42;
  dispatchEvent(ctx, interp, state, timer, sink);
  EXPECT_EQ(state.space.load(vm::kGlobalsObject, 1), ctx.constant(42, 64));
}

TEST_F(OsTest, DispatchRecvMaterialisesPayload) {
  vm::ExecutionState state(0, 1, program);
  setupBoot(ctx, state, 0);
  vm::PendingEvent recv;
  recv.time = 5;
  recv.kind = vm::EventKind::kRecv;
  recv.a = 9;  // source node
  recv.payload = {ctx.constant(0xbeef, 64), ctx.constant(2, 64)};
  dispatchEvent(ctx, interp, state, recv, sink);
  EXPECT_EQ(state.space.load(vm::kGlobalsObject, 3), ctx.constant(9, 64));
  EXPECT_EQ(state.space.load(vm::kGlobalsObject, 4), ctx.constant(2, 64));
  EXPECT_EQ(state.space.load(vm::kGlobalsObject, 5),
            ctx.constant(0xbeef, 64));
}

TEST_F(OsTest, DispatchIgnoresMissingEntry) {
  vm::IRBuilder b("init-only");
  b.setGlobals(1);
  b.beginEntry(vm::Entry::kInit);
  b.halt();
  const vm::Program initOnly = b.finish();
  vm::ExecutionState state(0, 1, initOnly);
  setupBoot(ctx, state, 0);
  vm::PendingEvent timer;
  timer.time = 10;
  timer.kind = vm::EventKind::kTimer;
  dispatchEvent(ctx, interp, state, timer, sink);  // must not abort
  EXPECT_EQ(state.status, vm::StateStatus::kIdle);
  EXPECT_EQ(state.clock, 10u);
}

TEST_F(OsTest, RebootResetsVolatileState) {
  vm::ExecutionState state(0, 1, program);
  setupBoot(ctx, state, 0);
  state.pendingEvents.clear();
  state.space.store(vm::kGlobalsObject, 0, ctx.constant(99, 64));
  state.mutableCold().activeTimers[1] = 5;
  state.constraints.add(ctx.variable("keep", 1));
  state.commLog.push_back({true, 2, 10, 0xabc, 7});

  reboot(ctx, state, 500);

  // RAM cleared, timers gone, a fresh boot pending at `now`.
  EXPECT_EQ(state.space.load(vm::kGlobalsObject, 0), ctx.constant(0, 64));
  EXPECT_TRUE(state.cold().activeTimers.empty());
  ASSERT_EQ(state.pendingEvents.size(), 1u);
  EXPECT_EQ(state.pendingEvents[0].kind, vm::EventKind::kBoot);
  EXPECT_EQ(state.pendingEvents[0].time, 500u);
  // Path constraints and history describe the explored execution and
  // must survive the reboot.
  EXPECT_EQ(state.constraints.size(), 1u);
  EXPECT_EQ(state.commLog.size(), 1u);
}

TEST_F(OsTest, NetworkPlanAssignments) {
  NetworkPlan plan(net::Topology::line(3));
  EXPECT_FALSE(plan.complete());
  plan.runEverywhere(program);
  EXPECT_TRUE(plan.complete());
  EXPECT_EQ(plan.nodes().size(), 3u);

  // Override one node: still complete, no duplicate entry.
  vm::IRBuilder b("other");
  b.setGlobals(1);
  b.beginEntry(vm::Entry::kInit);
  b.halt();
  const vm::Program other = b.finish();
  plan.runOn(1, other, 25);
  EXPECT_TRUE(plan.complete());
  EXPECT_EQ(plan.nodes().size(), 3u);
  const auto& nodes = plan.nodes();
  const auto it = std::find_if(nodes.begin(), nodes.end(),
                               [](const NodeConfig& c) { return c.id == 1; });
  ASSERT_NE(it, nodes.end());
  EXPECT_EQ(it->program->name(), "other");
  EXPECT_EQ(it->bootTime, 25u);
}

}  // namespace
}  // namespace sde::os

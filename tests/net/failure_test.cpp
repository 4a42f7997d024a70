#include <gtest/gtest.h>

#include "net/failure.hpp"
#include "vm/builder.hpp"

namespace sde::net {
namespace {

class FailureTest : public ::testing::Test {
 protected:
  FailureTest() {
    vm::IRBuilder b("noop");
    b.setGlobals(1);
    b.beginEntry(vm::Entry::kInit);
    b.halt();
    program = b.finish();
  }

  vm::ExecutionState makeState(NodeId node) {
    return vm::ExecutionState(nextId++, node, program);
  }

  vm::Program program;
  vm::StateId nextId = 0;
  Packet packet;
};

TEST_F(FailureTest, NoFailuresNeverInjects) {
  NoFailures model;
  auto state = makeState(3);
  EXPECT_EQ(model.onDelivery(state, packet).kind, FailureKind::kNone);
}

TEST_F(FailureTest, DropModelTargetsConfiguredNodes) {
  SymbolicDropModel model({1, 2}, 1);
  auto inSet = makeState(1);
  auto outside = makeState(5);
  EXPECT_EQ(model.onDelivery(inSet, packet).kind, FailureKind::kDrop);
  EXPECT_EQ(model.onDelivery(inSet, packet).label,
            SymbolicDropModel::kLabel);
  EXPECT_EQ(model.onDelivery(outside, packet).kind, FailureKind::kNone);
}

TEST_F(FailureTest, DropBudgetIsPerNodeViaSymbolicCounters) {
  SymbolicDropModel model({1}, 2);
  auto state = makeState(1);
  EXPECT_EQ(model.onDelivery(state, packet).kind, FailureKind::kDrop);
  // The engine bumps the counter when it materialises the decision.
  state.mutableCold().symbolicCounters[SymbolicDropModel::kLabel] = 1;
  EXPECT_EQ(model.onDelivery(state, packet).kind, FailureKind::kDrop);
  state.mutableCold().symbolicCounters[SymbolicDropModel::kLabel] = 2;
  EXPECT_EQ(model.onDelivery(state, packet).kind, FailureKind::kNone);
}

TEST_F(FailureTest, DuplicateAndRebootModels) {
  SymbolicDuplicateModel dup({4});
  SymbolicRebootModel reboot({4});
  auto state = makeState(4);
  EXPECT_EQ(dup.onDelivery(state, packet).kind, FailureKind::kDuplicate);
  EXPECT_EQ(reboot.onDelivery(state, packet).kind, FailureKind::kReboot);
  // Independent budgets: labels differ.
  state.mutableCold().symbolicCounters[SymbolicDuplicateModel::kLabel] = 1;
  EXPECT_EQ(dup.onDelivery(state, packet).kind, FailureKind::kNone);
  EXPECT_EQ(reboot.onDelivery(state, packet).kind, FailureKind::kReboot);
}

TEST_F(FailureTest, CompositeAppliesFirstMatch) {
  CompositeFailureModel composite;
  composite.add(std::make_unique<SymbolicDropModel>(std::vector<NodeId>{1}));
  composite.add(
      std::make_unique<SymbolicDuplicateModel>(std::vector<NodeId>{1, 2}));
  auto both = makeState(1);
  auto dupOnly = makeState(2);
  auto neither = makeState(3);
  EXPECT_EQ(composite.onDelivery(both, packet).kind, FailureKind::kDrop);
  EXPECT_EQ(composite.onDelivery(dupOnly, packet).kind,
            FailureKind::kDuplicate);
  EXPECT_EQ(composite.onDelivery(neither, packet).kind, FailureKind::kNone);
}

TEST_F(FailureTest, PacketPayloadHashIsContentSensitive) {
  expr::Context ctx;
  Packet a;
  a.payload = {ctx.constant(1, 64), ctx.constant(2, 64)};
  Packet b;
  b.payload = {ctx.constant(1, 64), ctx.constant(3, 64)};
  Packet c;
  c.payload = {ctx.constant(1, 64), ctx.constant(2, 64)};
  EXPECT_NE(a.payloadHash(), b.payloadHash());
  EXPECT_EQ(a.payloadHash(), c.payloadHash());
}

}  // namespace
}  // namespace sde::net

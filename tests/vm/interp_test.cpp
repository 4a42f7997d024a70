// Interpreter semantics: stepping, symbolic forking, intrinsics. The
// flagship test reproduces the paper's Figure 1 (four execution paths
// from one symbolic input, each with a concrete test case).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "expr/eval.hpp"
#include "solver/solver.hpp"
#include "vm/builder.hpp"
#include "vm/interp.hpp"

namespace sde::vm {
namespace {

class TestSink final : public EffectSink {
 public:
  explicit TestSink(StateId firstId) : nextId_(firstId) {}

  ExecutionState& forkState(ExecutionState& original) override {
    owned.push_back(original.fork(nextId_++));
    return *owned.back();
  }

  struct Sent {
    StateId state;
    NodeId dst;
    std::vector<expr::Ref> payload;
  };
  void onSend(ExecutionState& sender, NodeId dst,
              std::vector<expr::Ref> payload) override {
    sent.push_back({sender.id(), dst, std::move(payload)});
  }
  void onLog(ExecutionState&, std::string_view message,
             expr::Ref) override {
    logs.emplace_back(message);
  }

  std::vector<std::unique_ptr<ExecutionState>> owned;
  std::vector<Sent> sent;
  std::vector<std::string> logs;

 private:
  StateId nextId_;
};

class InterpTest : public ::testing::Test {
 protected:
  InterpTest() : solver(ctx), interp(ctx, solver) {}

  // Builds a single-node state for `program` with globals initialised.
  std::unique_ptr<ExecutionState> makeState(const Program& program,
                                            NodeId node = 1) {
    auto state = std::make_unique<ExecutionState>(nextId++, node, program);
    state->space.initGlobals(ctx, program.globalsSize());
    return state;
  }

  // All states involved in the last run: root plus forked siblings.
  static std::vector<ExecutionState*> allStates(ExecutionState& root,
                                                TestSink& sink) {
    std::vector<ExecutionState*> states{&root};
    for (auto& s : sink.owned) states.push_back(s.get());
    return states;
  }

  expr::Context ctx;
  solver::Solver solver;
  Interpreter interp;
  StateId nextId = 1;
};

TEST_F(InterpTest, StraightLineArithmetic) {
  IRBuilder b("arith");
  b.setGlobals(1);
  b.beginEntry(Entry::kInit);
  b.constant(Reg(1), 6);
  b.constant(Reg(2), 7);
  b.alu(Op::kMul, Reg(3), Reg(1), Reg(2));
  b.storeGlobal(Reg(3), 0);
  b.halt();
  const Program p = b.finish();

  auto s = makeState(p);
  TestSink sink(100);
  interp.runEvent(*s, Entry::kInit, {}, sink);
  EXPECT_EQ(s->status, StateStatus::kIdle);
  EXPECT_EQ(s->space.load(kGlobalsObject, 0), ctx.constant(42, 64));
  EXPECT_TRUE(sink.owned.empty());
}

TEST_F(InterpTest, ConcreteBranchDoesNotFork) {
  IRBuilder b("cbr");
  b.setGlobals(1);
  b.beginEntry(Entry::kInit);
  auto yes = b.newLabel();
  auto no = b.newLabel();
  b.constant(Reg(1), 5);
  b.branch(Reg(1), yes, no);
  b.bind(no);
  b.fail("took the zero edge");
  b.bind(yes);
  b.constant(Reg(2), 1);
  b.storeGlobal(Reg(2), 0);
  b.halt();
  const Program p = b.finish();

  auto s = makeState(p);
  TestSink sink(100);
  interp.runEvent(*s, Entry::kInit, {}, sink);
  EXPECT_EQ(s->status, StateStatus::kIdle);
  EXPECT_TRUE(sink.owned.empty());
  EXPECT_EQ(s->space.load(kGlobalsObject, 0), ctx.constant(1, 64));
}

TEST_F(InterpTest, SymbolicBranchForksWithComplementaryConstraints) {
  IRBuilder b("fork");
  b.setGlobals(1);
  b.beginEntry(Entry::kInit);
  auto yes = b.newLabel();
  auto no = b.newLabel();
  b.makeSymbolic(Reg(1), "flag", 1);
  b.branch(Reg(1), yes, no);
  b.bind(yes);
  b.constant(Reg(2), 1);
  b.storeGlobal(Reg(2), 0);
  b.halt();
  b.bind(no);
  b.constant(Reg(2), 2);
  b.storeGlobal(Reg(2), 0);
  b.halt();
  const Program p = b.finish();

  auto s = makeState(p);
  TestSink sink(100);
  interp.runEvent(*s, Entry::kInit, {}, sink);
  ASSERT_EQ(sink.owned.size(), 1u);
  ExecutionState& child = *sink.owned[0];
  EXPECT_EQ(s->status, StateStatus::kIdle);
  EXPECT_EQ(child.status, StateStatus::kIdle);
  // Parent took the true edge, child the false edge.
  EXPECT_EQ(s->space.load(kGlobalsObject, 0), ctx.constant(1, 64));
  EXPECT_EQ(child.space.load(kGlobalsObject, 0), ctx.constant(2, 64));
  EXPECT_EQ(s->constraints.size(), 1u);
  EXPECT_EQ(child.constraints.size(), 1u);
  // Complementary: flag must be 1 in the parent, 0 in the child.
  expr::Ref flag = ctx.variable("n1.flag.0", 1);
  EXPECT_EQ(solver.getValue(s->constraints, ctx.zext(flag, 64)), 1u);
  EXPECT_EQ(solver.getValue(child.constraints, ctx.zext(flag, 64)), 0u);
}

TEST_F(InterpTest, PaperFigure1FourPaths) {
  // int x = symbolic; if (x == 0) P1; else if (x < 50) { if (x > 10) P2;
  // else P3; } else P4;  — regular symbolic execution explores exactly
  // four paths with test cases like {0, 42, 7, 314} (Figure 1).
  IRBuilder b("fig1");
  b.setGlobals(1);
  b.beginEntry(Entry::kInit);
  auto p1 = b.newLabel();
  auto notZero = b.newLabel();
  auto lt50 = b.newLabel();
  auto p4 = b.newLabel();
  auto p2 = b.newLabel();
  auto p3 = b.newLabel();
  b.makeSymbolic(Reg(1), "x", 16);
  b.aluImm(Op::kEq, Reg(2), Reg(1), 0, Reg(15));
  b.branch(Reg(2), p1, notZero);
  b.bind(notZero);
  b.aluImm(Op::kUlt, Reg(2), Reg(1), 50, Reg(15));
  b.branch(Reg(2), lt50, p4);
  b.bind(lt50);
  b.constant(Reg(15), 10);
  b.alu(Op::kUlt, Reg(2), Reg(15), Reg(1));  // 10 < x
  auto join = b.newLabel();
  b.branch(Reg(2), p2, p3);
  b.bind(p1);
  b.constant(Reg(3), 1);
  b.jump(join);
  b.bind(p2);
  b.constant(Reg(3), 2);
  b.jump(join);
  b.bind(p3);
  b.constant(Reg(3), 3);
  b.jump(join);
  b.bind(p4);
  b.constant(Reg(3), 4);
  b.jump(join);
  b.bind(join);
  b.storeGlobal(Reg(3), 0);
  b.halt();
  const Program p = b.finish();

  auto root = makeState(p);
  TestSink sink(100);
  interp.runEvent(*root, Entry::kInit, {}, sink);
  auto states = allStates(*root, sink);
  ASSERT_EQ(states.size(), 4u);

  expr::Ref x = ctx.variable("n1.x.0", 16);
  for (ExecutionState* s : states) {
    EXPECT_EQ(s->status, StateStatus::kIdle);
    const auto path = s->space.load(kGlobalsObject, 0);
    ASSERT_TRUE(path->isConstant());
    const auto xv = solver.getValue(s->constraints, ctx.zext(x, 64));
    ASSERT_TRUE(xv.has_value());
    switch (path->value()) {
      case 1:
        EXPECT_EQ(*xv, 0u);
        break;
      case 2:
        EXPECT_GT(*xv, 10u);
        EXPECT_LT(*xv, 50u);
        break;
      case 3:
        EXPECT_NE(*xv, 0u);
        EXPECT_LE(*xv, 10u);
        break;
      case 4:
        EXPECT_GE(*xv, 50u);
        break;
      default:
        FAIL() << "unexpected path marker " << path->value();
    }
  }
}

TEST_F(InterpTest, AssumeNarrowsAndKillsInfeasible) {
  IRBuilder b("assume");
  b.setGlobals(1);
  b.beginEntry(Entry::kInit);
  b.makeSymbolic(Reg(1), "x", 8);
  b.aluImm(Op::kUlt, Reg(2), Reg(1), 10, Reg(15));
  b.assume(Reg(2));  // x < 10
  b.aluImm(Op::kUlt, Reg(2), Reg(1), 5, Reg(15));
  b.bvNot(Reg(3), Reg(2));  // bitwise not of 0/1 is nonzero either way...
  b.aluImm(Op::kEq, Reg(3), Reg(2), 0, Reg(15));  // x >= 5
  b.assume(Reg(3));
  b.aluImm(Op::kUlt, Reg(2), Reg(1), 3, Reg(15));
  b.assume(Reg(2));  // contradicts x >= 5
  b.fail("unreachable: contradictory assumes");
  const Program p = b.finish();

  auto s = makeState(p);
  TestSink sink(100);
  interp.runEvent(*s, Entry::kInit, {}, sink);
  EXPECT_EQ(s->status, StateStatus::kInfeasible);
}

TEST_F(InterpTest, FailRecordsMessage) {
  IRBuilder b("fail");
  b.setGlobals(1);
  b.beginEntry(Entry::kInit);
  b.fail("invariant violated");
  const Program p = b.finish();

  auto s = makeState(p);
  TestSink sink(100);
  interp.runEvent(*s, Entry::kInit, {}, sink);
  EXPECT_EQ(s->status, StateStatus::kFailed);
  EXPECT_EQ(s->cold().failureMessage, "invariant violated");
}

TEST_F(InterpTest, StepLimitKillsRunawayLoop) {
  IRBuilder b("loop");
  b.setGlobals(1);
  b.beginEntry(Entry::kInit);
  auto top = b.newLabel();
  b.bind(top);
  b.jump(top);
  const Program p = b.finish();

  Interpreter tight(ctx, solver, {.maxStepsPerEvent = 100});
  auto s = makeState(p);
  TestSink sink(100);
  tight.runEvent(*s, Entry::kInit, {}, sink);
  EXPECT_EQ(s->status, StateStatus::kKilled);
  EXPECT_NE(s->cold().failureMessage.find("step limit"), std::string::npos);
}

TEST_F(InterpTest, BoundedLoopComputes) {
  // sum = 0; for (i = 0; i < 10; ++i) sum += i;  => 45
  IRBuilder b("sum");
  b.setGlobals(1);
  b.beginEntry(Entry::kInit);
  auto top = b.newLabel();
  auto done = b.newLabel();
  b.constant(Reg(1), 0);  // i
  b.constant(Reg(2), 0);  // sum
  b.bind(top);
  b.aluImm(Op::kUlt, Reg(3), Reg(1), 10, Reg(15));
  b.branchIfZero(Reg(3), done);
  b.alu(Op::kAdd, Reg(2), Reg(2), Reg(1));
  b.aluImm(Op::kAdd, Reg(1), Reg(1), 1, Reg(15));
  b.jump(top);
  b.bind(done);
  b.storeGlobal(Reg(2), 0);
  b.halt();
  const Program p = b.finish();

  auto s = makeState(p);
  TestSink sink(100);
  interp.runEvent(*s, Entry::kInit, {}, sink);
  EXPECT_EQ(s->space.load(kGlobalsObject, 0), ctx.constant(45, 64));
}

TEST_F(InterpTest, CallAndReturn) {
  IRBuilder b("call");
  b.setGlobals(1);
  b.beginEntry(Entry::kInit);
  b.constant(Reg(1), 20);
  b.call("double");
  b.storeGlobal(Reg(1), 0);
  b.halt();
  b.beginFunction("double");
  b.alu(Op::kAdd, Reg(1), Reg(1), Reg(1));
  b.ret();
  const Program p = b.finish();

  auto s = makeState(p);
  TestSink sink(100);
  interp.runEvent(*s, Entry::kInit, {}, sink);
  EXPECT_EQ(s->status, StateStatus::kIdle);
  EXPECT_EQ(s->space.load(kGlobalsObject, 0), ctx.constant(40, 64));
}

TEST_F(InterpTest, ReturnFromEntryFrameEndsHandler) {
  IRBuilder b("retend");
  b.setGlobals(1);
  b.beginEntry(Entry::kInit);
  b.ret();  // no call frame: ends the event like halt
  const Program p = b.finish();
  auto s = makeState(p);
  TestSink sink(100);
  interp.runEvent(*s, Entry::kInit, {}, sink);
  EXPECT_EQ(s->status, StateStatus::kIdle);
}

TEST_F(InterpTest, TimerArmReplaceCancel) {
  IRBuilder b("timers");
  b.setGlobals(1);
  b.beginEntry(Entry::kInit);
  b.constant(Reg(1), 10);
  b.setTimer(1, Reg(1));
  b.constant(Reg(1), 20);
  b.setTimer(2, Reg(1));
  b.constant(Reg(1), 15);
  b.setTimer(1, Reg(1));  // re-arm timer 1: replaces the 10-tick expiry
  b.stopTimer(2);         // cancel timer 2
  b.halt();
  const Program p = b.finish();

  auto s = makeState(p);
  TestSink sink(100);
  interp.runEvent(*s, Entry::kInit, {}, sink);
  ASSERT_EQ(s->pendingEvents.size(), 1u);
  EXPECT_EQ(s->pendingEvents[0].kind, EventKind::kTimer);
  EXPECT_EQ(s->pendingEvents[0].a, 1u);
  EXPECT_EQ(s->pendingEvents[0].time, 15u);
}

TEST_F(InterpTest, SendDeliversPayloadToSink) {
  IRBuilder b("send");
  b.setGlobals(1);
  b.beginEntry(Entry::kInit);
  b.constant(Reg(1), 2);  // payload size
  b.alloc(Reg(2), Reg(1));
  b.constant(Reg(3), 0xaa);
  b.constant(Reg(4), 0);
  b.store(Reg(3), Reg(2), Reg(4));  // payload[0] = 0xaa
  b.constant(Reg(5), 7);            // dst node
  b.send(Reg(5), Reg(2), Reg(1));
  b.halt();
  const Program p = b.finish();

  auto s = makeState(p);
  TestSink sink(100);
  interp.runEvent(*s, Entry::kInit, {}, sink);
  ASSERT_EQ(sink.sent.size(), 1u);
  EXPECT_EQ(sink.sent[0].dst, 7u);
  ASSERT_EQ(sink.sent[0].payload.size(), 2u);
  EXPECT_EQ(sink.sent[0].payload[0], ctx.constant(0xaa, 64));
  EXPECT_EQ(sink.sent[0].payload[1], ctx.constant(0, 64));
}

TEST_F(InterpTest, EventArgumentsArriveInRegisters) {
  IRBuilder b("args");
  b.setGlobals(3);
  b.beginEntry(Entry::kRecv);
  b.storeGlobal(Reg(0), 0);
  b.storeGlobal(Reg(1), 1);
  b.storeGlobal(Reg(2), 2);
  b.halt();
  const Program p = b.finish();

  auto s = makeState(p);
  TestSink sink(100);
  const std::vector<expr::Ref> args{ctx.constant(11, 64),
                                    ctx.constant(22, 64)};
  interp.runEvent(*s, Entry::kRecv, args, sink);
  EXPECT_EQ(s->space.load(kGlobalsObject, 0), ctx.constant(11, 64));
  EXPECT_EQ(s->space.load(kGlobalsObject, 1), ctx.constant(22, 64));
  // Missing third argument defaults to zero.
  EXPECT_EQ(s->space.load(kGlobalsObject, 2), ctx.constant(0, 64));
}

TEST_F(InterpTest, SelfAndNumNodesIntrinsics) {
  IRBuilder b("ids");
  b.setGlobals(2);
  b.beginEntry(Entry::kInit);
  b.self(Reg(1));
  b.storeGlobal(Reg(1), 0);
  b.numNodes(Reg(1));
  b.storeGlobal(Reg(1), 1);
  b.halt();
  const Program p = b.finish();

  interp.setNumNodes(25);
  auto s = makeState(p, /*node=*/9);
  TestSink sink(100);
  interp.runEvent(*s, Entry::kInit, {}, sink);
  EXPECT_EQ(s->space.load(kGlobalsObject, 0), ctx.constant(9, 64));
  EXPECT_EQ(s->space.load(kGlobalsObject, 1), ctx.constant(25, 64));
}

TEST_F(InterpTest, OutOfBoundsAccessKillsState) {
  IRBuilder b("oob");
  b.setGlobals(2);
  b.beginEntry(Entry::kInit);
  b.constant(Reg(1), 5);
  b.storeGlobal(Reg(1), 0);
  b.constant(Reg(2), 0);
  b.constant(Reg(3), 99);
  b.load(Reg(4), Reg(2), Reg(3));  // globals[99]: out of bounds
  b.halt();
  const Program p = b.finish();

  auto s = makeState(p);
  TestSink sink(100);
  interp.runEvent(*s, Entry::kInit, {}, sink);
  EXPECT_EQ(s->status, StateStatus::kKilled);
  EXPECT_NE(s->cold().failureMessage.find("out-of-bounds"), std::string::npos);
}

TEST_F(InterpTest, SymbolicNamesAreDeterministicPerNodeAndLabel) {
  IRBuilder b("names");
  b.setGlobals(1);
  b.beginEntry(Entry::kInit);
  b.makeSymbolic(Reg(1), "drop", 1);
  b.makeSymbolic(Reg(2), "drop", 1);
  b.makeSymbolic(Reg(3), "seq", 8);
  b.halt();
  const Program p = b.finish();

  auto s = makeState(p, /*node=*/3);
  TestSink sink(100);
  interp.runEvent(*s, Entry::kInit, {}, sink);
  ASSERT_EQ(s->symbolics.size(), 3u);
  EXPECT_EQ(s->symbolics[0]->name(), "n3.drop.0");
  EXPECT_EQ(s->symbolics[1]->name(), "n3.drop.1");
  EXPECT_EQ(s->symbolics[2]->name(), "n3.seq.0");
}

TEST_F(InterpTest, ForkedSiblingInheritsPendingEvents) {
  IRBuilder b("inherit");
  b.setGlobals(1);
  b.beginEntry(Entry::kInit);
  b.constant(Reg(1), 30);
  b.setTimer(5, Reg(1));
  b.makeSymbolic(Reg(2), "flag", 1);
  auto yes = b.newLabel();
  auto no = b.newLabel();
  b.branch(Reg(2), yes, no);
  b.bind(yes);
  b.halt();
  b.bind(no);
  b.halt();
  const Program p = b.finish();

  auto s = makeState(p);
  TestSink sink(100);
  interp.runEvent(*s, Entry::kInit, {}, sink);
  ASSERT_EQ(sink.owned.size(), 1u);
  ASSERT_EQ(s->pendingEvents.size(), 1u);
  ASSERT_EQ(sink.owned[0]->pendingEvents.size(), 1u);
  EXPECT_EQ(sink.owned[0]->pendingEvents[0].time, 30u);
}

TEST_F(InterpTest, ConfigHashEqualForIdenticalForks) {
  IRBuilder b("hash");
  b.setGlobals(1);
  b.beginEntry(Entry::kInit);
  b.halt();
  const Program p = b.finish();

  auto s = makeState(p);
  auto clone = s->fork(999);
  EXPECT_EQ(s->configHash(), clone->configHash());
  clone->constraints.add(ctx.variable("d", 1));
  EXPECT_NE(s->configHash(), clone->configHash());
}

TEST_F(InterpTest, InstructionCountTracked) {
  IRBuilder b("count");
  b.setGlobals(1);
  b.beginEntry(Entry::kInit);
  b.constant(Reg(1), 1);
  b.constant(Reg(2), 2);
  b.halt();
  const Program p = b.finish();
  auto s = makeState(p);
  TestSink sink(100);
  interp.runEvent(*s, Entry::kInit, {}, sink);
  EXPECT_EQ(s->executedInstructions, 3u);
}

// A branch fork leaves both sides holding one register file; whichever
// writes first clones it. The fused path writes through a pointer into
// the file, so it must take the pointer anew after the fork, or the
// parent's writes land in the file its child still holds.
class ForkRegistersTest : public ::testing::TestWithParam<DispatchMode> {};

TEST_P(ForkRegistersTest, EachSideOfABranchKeepsItsOwnRegisters) {
  IRBuilder b("sides");
  b.setGlobals(1);
  b.beginEntry(Entry::kInit);
  auto yes = b.newLabel();
  auto no = b.newLabel();
  b.makeSymbolic(Reg(1), "flag", 1);
  b.constant(Reg(5), 5);
  b.branch(Reg(1), yes, no);
  b.bind(yes);  // the parent's side, run first
  b.constant(Reg(2), 1);
  b.constant(Reg(5), 55);
  b.storeGlobal(Reg(5), 0);
  b.halt();
  b.bind(no);  // the child's side: r5 still holds 5
  b.constant(Reg(2), 2);
  b.storeGlobal(Reg(5), 0);
  b.constant(Reg(6), 66);
  b.halt();
  const Program p = b.finish();

  expr::Context ctx;
  solver::Solver solver(ctx);
  InterpConfig config;
  config.dispatch = GetParam();
  config.opcodeTiming = false;
  Interpreter interp(ctx, solver, config);
  ExecutionState parent(1, 1, p);
  parent.space.initGlobals(ctx, p.globalsSize());
  TestSink sink(100);
  interp.runEvent(parent, Entry::kInit, {}, sink);
  ASSERT_EQ(sink.owned.size(), 1u);
  const ExecutionState& child = *sink.owned[0];

  EXPECT_NE(&parent.regs(), &child.regs());
  EXPECT_EQ(parent.regs()[1], child.regs()[1]);
  EXPECT_EQ(parent.regs()[2], ctx.constant(1, 64));
  EXPECT_EQ(parent.regs()[5], ctx.constant(55, 64));
  EXPECT_EQ(parent.regs()[6], nullptr);
  EXPECT_EQ(parent.space.load(kGlobalsObject, 0), ctx.constant(55, 64));
  EXPECT_EQ(child.regs()[2], ctx.constant(2, 64));
  EXPECT_EQ(child.regs()[5], ctx.constant(5, 64));
  EXPECT_EQ(child.regs()[6], ctx.constant(66, 64));
  EXPECT_EQ(child.space.load(kGlobalsObject, 0), ctx.constant(5, 64));
}

INSTANTIATE_TEST_SUITE_P(
    Dispatch, ForkRegistersTest,
    ::testing::Values(DispatchMode::kSwitch, DispatchMode::kFused),
    [](const ::testing::TestParamInfo<DispatchMode>& info) {
      return std::string(dispatchModeName(info.param));
    });

}  // namespace
}  // namespace sde::vm

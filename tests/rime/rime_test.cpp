// Rime-like stack and applications, validated as concrete simulations
// (no symbolic failures: KleeNet without symbolic input "works as a
// simulator for one particular dscenario", §IV-A).
#include <gtest/gtest.h>

#include "rime/apps.hpp"
#include "rime/stack.hpp"
#include "sde/engine.hpp"

namespace sde::rime {
namespace {

std::unique_ptr<Engine> makeCollectEngine(const net::Topology& topology,
                                          const vm::Program& program,
                                          net::NodeId source,
                                          net::NodeId sink) {
  os::NetworkPlan plan(topology);
  plan.runEverywhere(program);
  auto engine = std::make_unique<Engine>(plan, MapperKind::kSds);
  const net::RoutingTable routing = net::RoutingTable::towards(topology, sink);
  for (const auto& boot :
       collectBootGlobals(topology, routing, source, 1000))
    engine->setBootGlobal(boot.node, boot.slot, boot.value);
  return engine;
}

std::uint64_t globalOf(const Engine& engine, net::NodeId node,
                       std::uint64_t slot) {
  const auto states = engine.statesOfNode(node);
  EXPECT_EQ(states.size(), 1u);  // concrete runs never fork
  const auto value = states[0]->space.load(vm::kGlobalsObject, slot);
  EXPECT_TRUE(value->isConstant());
  return value->value();
}

TEST(RimeStack, ProgramsExposeAllEntries) {
  for (const vm::Program& p :
       {buildCollectApp(), buildFloodApp(), buildPingApp()}) {
    EXPECT_TRUE(p.entry(vm::Entry::kInit).has_value()) << p.name();
    EXPECT_TRUE(p.entry(vm::Entry::kTimer).has_value()) << p.name();
    EXPECT_TRUE(p.entry(vm::Entry::kRecv).has_value()) << p.name();
  }
}

TEST(RimeCollect, LineDeliversEveryPacketToSink) {
  // 3-node line, source at 2, sink at 0; 10 s simulated, 1 packet/s.
  const auto topology = net::Topology::line(3);
  auto engine = makeCollectEngine(topology, buildCollectApp(), 2, 0);
  ASSERT_EQ(engine->run(10000), RunOutcome::kCompleted);
  EXPECT_EQ(engine->numStates(), 3u);  // fully concrete: no forks

  // Packets sent at 1000..10000: 10 of them, two hops each (2 ticks of
  // latency); the packet sent at 10000 arrives at 10002 — still in
  // flight at the horizon.
  EXPECT_EQ(globalOf(*engine, 2, kCollectSeqno), 10u);
  EXPECT_EQ(globalOf(*engine, 1, kCollectFwdCount), 9u);
  EXPECT_EQ(globalOf(*engine, 0, kCollectRecvCount), 9u);
  EXPECT_EQ(globalOf(*engine, 0, kCollectLastSeqPlus1), 9u);
  EXPECT_EQ(globalOf(*engine, 0, kCollectDupCount), 0u);
}

TEST(RimeCollect, GridRoutesAlongStaticPath) {
  const auto topology = net::Topology::grid(3, 3);
  auto engine = makeCollectEngine(topology, buildCollectApp(), 8, 0);
  ASSERT_EQ(engine->run(6000), RunOutcome::kCompleted);

  const net::RoutingTable routing = net::RoutingTable::towards(topology, 0);
  const auto path = routing.path(8);
  // Every intermediate path node forwarded; off-path nodes did not.
  for (net::NodeId node = 0; node < topology.numNodes(); ++node) {
    const bool intermediate =
        std::find(path.begin() + 1, path.end() - 1, node) !=
        path.end() - 1;
    const auto forwarded = globalOf(*engine, node, kCollectFwdCount);
    if (intermediate)
      EXPECT_GT(forwarded, 0u) << "node " << node;
    else
      EXPECT_EQ(forwarded, 0u) << "node " << node;
  }
  EXPECT_GT(globalOf(*engine, 0, kCollectRecvCount), 0u);
}

TEST(RimeCollect, OverhearingNeighborsDoNotForward) {
  // In a star, the hub's broadcast reaches every leaf; only the
  // addressed next hop may act.
  const auto topology = net::Topology::star(4);
  auto engine = makeCollectEngine(topology, buildCollectApp(), 1, 2);
  ASSERT_EQ(engine->run(3000), RunOutcome::kCompleted);
  // Source 1 -> hub 0 -> sink 2. Leaves 3, 4 overhear the hub's
  // broadcast but must not forward. (The packet sent at t=3000 is still
  // in flight at the horizon, so two forwards complete.)
  EXPECT_EQ(globalOf(*engine, 0, kCollectFwdCount), 2u);
  EXPECT_EQ(globalOf(*engine, 3, kCollectFwdCount), 0u);
  EXPECT_EQ(globalOf(*engine, 4, kCollectFwdCount), 0u);
  EXPECT_GT(globalOf(*engine, 2, kCollectRecvCount), 0u);
}

TEST(RimeCollect, DuplicateDetectionAtSink) {
  // Without failure models no duplicates are observed.
  const auto topology = net::Topology::line(2);
  auto engine = makeCollectEngine(topology, buildCollectApp(), 1, 0);
  ASSERT_EQ(engine->run(5000), RunOutcome::kCompleted);
  EXPECT_EQ(globalOf(*engine, 0, kCollectDupCount), 0u);
}

TEST(RimeCollect, FailOnDuplicateAssertsUnderDuplicates) {
  CollectOptions options;
  options.failOnDuplicateSeqno = true;
  const auto topology = net::Topology::line(2);
  os::NetworkPlan plan(topology);
  const vm::Program program = buildCollectApp(options);
  plan.runEverywhere(program);
  Engine engine(plan, MapperKind::kSds);
  const net::RoutingTable routing = net::RoutingTable::towards(topology, 0);
  for (const auto& boot : collectBootGlobals(topology, routing, 1, 1000))
    engine.setBootGlobal(boot.node, boot.slot, boot.value);
  engine.setFailureModel(std::make_unique<net::SymbolicDuplicateModel>(
      std::vector<net::NodeId>{0}, 1));
  engine.run(5000);
  // The duplicated-delivery branch must hit the sink assertion.
  bool sawFailure = false;
  for (const auto& state : engine.states())
    if (state->status == vm::StateStatus::kFailed) {
      sawFailure = true;
      EXPECT_NE(state->cold().failureMessage.find("duplicate"), std::string::npos);
    }
  EXPECT_TRUE(sawFailure);
}

TEST(RimeFlood, FloodReachesEveryNode) {
  const auto topology = net::Topology::grid(3, 3);
  os::NetworkPlan plan(topology);
  const vm::Program program = buildFloodApp();
  plan.runEverywhere(program);
  Engine engine(plan, MapperKind::kSds);
  for (const auto& boot : floodBootGlobals(topology, 8, 1000))
    engine.setBootGlobal(boot.node, boot.slot, boot.value);
  ASSERT_EQ(engine.run(2500), RunOutcome::kCompleted);
  // One flood wave (seq 0 at t=1000, another at 2000): every node other
  // than the source relayed at least once.
  for (net::NodeId node = 0; node < topology.numNodes(); ++node) {
    const auto states = engine.statesOfNode(node);
    ASSERT_EQ(states.size(), 1u);
    const auto seen =
        states[0]->space.load(vm::kGlobalsObject, kFloodSeenMax);
    if (node != 8) {
      EXPECT_GT(seen->value(), 0u) << "node " << node;
      EXPECT_GT(states[0]
                    ->space.load(vm::kGlobalsObject, kFloodRelayed)
                    ->value(),
                0u)
          << "node " << node;
    }
  }
}

TEST(RimeFlood, DuplicateWavesAreSuppressed) {
  // Each node relays a given seqno exactly once even though it hears it
  // from several neighbours.
  const auto topology = net::Topology::fullMesh(4);
  os::NetworkPlan plan(topology);
  const vm::Program program = buildFloodApp();
  plan.runEverywhere(program);
  Engine engine(plan, MapperKind::kSds);
  for (const auto& boot : floodBootGlobals(topology, 3, 1000))
    engine.setBootGlobal(boot.node, boot.slot, boot.value);
  ASSERT_EQ(engine.run(1500), RunOutcome::kCompleted);
  for (net::NodeId node = 0; node < 3; ++node) {
    const auto states = engine.statesOfNode(node);
    EXPECT_EQ(states[0]
                  ->space.load(vm::kGlobalsObject, kFloodRelayed)
                  ->value(),
              1u)
        << "node " << node;
  }
}

TEST(RimeBootGlobals, CollectAssignsRolesAndRoutes) {
  const auto topology = net::Topology::line(3);
  const net::RoutingTable routing = net::RoutingTable::towards(topology, 0);
  const auto boots = collectBootGlobals(topology, routing, 2, 500);
  // Each node gets next hop + interval; source and sink one role each.
  EXPECT_EQ(boots.size(), 3u * 2 + 2);
  bool sourceSeen = false;
  bool sinkSeen = false;
  for (const auto& boot : boots) {
    if (boot.slot == kSlotIsSource && boot.value == 1) {
      EXPECT_EQ(boot.node, 2u);
      sourceSeen = true;
    }
    if (boot.slot == kSlotIsSink && boot.value == 1) {
      EXPECT_EQ(boot.node, 0u);
      sinkSeen = true;
    }
  }
  EXPECT_TRUE(sourceSeen);
  EXPECT_TRUE(sinkSeen);
}

}  // namespace
}  // namespace sde::rime

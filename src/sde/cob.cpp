#include "sde/cob.hpp"

#include "obs/trace_sink.hpp"
#include "snapshot/reader.hpp"
#include "snapshot/writer.hpp"

namespace sde {

using support::statId;

void CobMapper::registerInitialStates(
    std::span<ExecutionState* const> states) {
  SDE_ASSERT(states.size() == numNodes_, "need exactly one state per node");
  Scenario& scenario = scenarios_.emplace_back();
  scenario.id = nextScenarioId_++;
  scenario.byNode.assign(states.begin(), states.end());
  for (ExecutionState* state : states)
    scenarioOf_.slot(state->id()) = &scenario;
}

CobMapper::Scenario& CobMapper::scenarioOf(const ExecutionState& state) {
  Scenario* scenario = scenarioOf_[state.id()];
  SDE_ASSERT(scenario != nullptr, "state not registered with COB");
  return *scenario;
}

const CobMapper::Scenario& CobMapper::scenarioOf(
    const ExecutionState& state) const {
  const Scenario* scenario = scenarioOf_[state.id()];
  SDE_ASSERT(scenario != nullptr, "state not registered with COB");
  return *scenario;
}

namespace {

// Two bystander states (same node, different dscenarios) are
// interchangeable when nothing observable distinguishes them: strict
// configuration (pc, registers, memory, constraints, pending events,
// clock, packet-identity comm history), the symbolic-input list, the
// decision log driving replay and partitioning, and — conservatively —
// an empty merge history on both.
bool bystandersEqual(const ExecutionState& a, const ExecutionState& b) {
  if (&a.program() != &b.program()) return false;
  if (a.status != b.status) return false;
  if (!a.cold().mergeGuards.empty() || !b.cold().mergeGuards.empty())
    return false;
  if (a.symbolics.size() != b.symbolics.size()) return false;
  for (std::size_t i = 0; i < a.symbolics.size(); ++i)
    if (a.symbolics[i] != b.symbolics[i]) return false;
  if (a.decisions.size() != b.decisions.size()) return false;
  for (std::size_t i = 0; i < a.decisions.size(); ++i)
    if (a.decisions[i].var != b.decisions[i].var ||
        a.decisions[i].failed != b.decisions[i].failed)
      return false;
  return a.configHashStrict() == b.configHashStrict();
}

}  // namespace

bool CobMapper::canMerge(const ExecutionState& survivor,
                         const ExecutionState& absorbed) const {
  const Scenario& keep = scenarioOf(survivor);
  const Scenario& drop = scenarioOf(absorbed);
  SDE_ASSERT(&keep != &drop, "one dscenario cannot hold two same-node states");
  for (NodeId node = 0; node < numNodes_; ++node) {
    if (node == survivor.node()) continue;
    if (!bystandersEqual(*keep.byNode[node], *drop.byNode[node])) return false;
  }
  return true;
}

std::vector<ExecutionState*> CobMapper::onStatesMerged(
    ExecutionState& survivor, ExecutionState& absorbed) {
  Scenario& drop = scenarioOf(absorbed);
  SDE_ASSERT(!drop.dead, "absorbed dscenario already dead");
  std::vector<ExecutionState*> casualties;
  casualties.reserve(numNodes_ - 1);
  for (ExecutionState* member : drop.byNode) {
    scenarioOf_.erase(member->id());
    if (member == &absorbed) continue;  // the engine reaps it itself
    SDE_ASSERT(!member->mergedAway, "bystander absorbed twice");
    member->mergedAway = true;
    casualties.push_back(member);
  }
  (void)survivor;
  drop.byNode.clear();
  drop.dead = true;
  ++deadScenarios_;
  return casualties;
}

void CobMapper::onLocalBranch(ExecutionState& original,
                              ExecutionState& sibling,
                              MapperRuntime& runtime) {
  // The dscenario invariant (one state per node) broke: materialise a
  // second dscenario by forking every *other* node's state (Figure 3).
  // (std::deque::emplace_back never invalidates references, so holding
  // `orig` across the emplace is safe.)
  Scenario& orig = scenarioOf(original);
  Scenario& scenario = scenarios_.emplace_back();
  scenario.id = nextScenarioId_++;
  scenario.byNode.resize(numNodes_);
  std::uint64_t copies = 0;
  for (NodeId node = 0; node < numNodes_; ++node) {
    ExecutionState* member = orig.byNode[node];
    if (member == &original) {
      scenario.byNode[node] = &sibling;
      continue;
    }
    // Elements the scenario copy actually deep-copies (sequence tails
    // under the persistent representation): the per-mapper face of the
    // paper's k-1-sibling-copies cost that aborts COB in Table I.
    runtime.stats().add(statId<"map.cob.scenario_copy_elements">(),
                        member->forkCopyCost());
    ExecutionState& copy = runtime.forkState(*member);
    scenario.byNode[node] = &copy;
    runtime.stats().add(statId<"map.cob.scenario_copies">());
    ++copies;
  }
  for (ExecutionState* state : scenario.byNode)
    scenarioOf_.slot(state->id()) = &scenario;
  if (obs::TraceSink* trace = runtime.trace()) {
    obs::TraceEvent event;
    event.kind = obs::TraceEventKind::kGroupFork;
    event.detail =
        static_cast<std::uint8_t>(obs::GroupForkDetail::kScenarioFork);
    event.node = original.node();
    event.stateId = sibling.id();
    event.groupId = scenario.id;
    event.a = orig.id;
    event.b = copies;
    trace->emit(event);
  }
}

std::vector<ExecutionState*> CobMapper::onTransmit(ExecutionState& sender,
                                                   const net::Packet& packet,
                                                   MapperRuntime& runtime) {
  // No conflicts are possible: the receiver is the destination node's
  // single state in the sender's dscenario (constant-time lookup).
  runtime.stats().add(statId<"map.transmissions">());
  Scenario& scenario = scenarioOf(sender);
  SDE_ASSERT(packet.dst < numNodes_, "destination out of range");
  return {scenario.byNode[packet.dst]};
}

std::vector<std::vector<std::vector<ExecutionState*>>>
CobMapper::groupChoices() const {
  std::vector<std::vector<std::vector<ExecutionState*>>> result;
  result.reserve(numGroups());
  for (const Scenario& scenario : scenarios_) {
    if (scenario.dead) continue;
    std::vector<std::vector<ExecutionState*>> group;
    group.reserve(numNodes_);
    for (ExecutionState* state : scenario.byNode) group.push_back({state});
    result.push_back(std::move(group));
  }
  return result;
}

void CobMapper::snapshotSave(snapshot::Writer& out) const {
  out.u64(nextScenarioId_);
  out.u64(numGroups());
  for (const Scenario& scenario : scenarios_) {
    if (scenario.dead) continue;
    out.u64(scenario.id);
    for (const ExecutionState* state : scenario.byNode) out.u64(state->id());
  }
}

void CobMapper::snapshotLoad(snapshot::Reader& in,
                             const StateResolver& resolve) {
  SDE_ASSERT(scenarios_.empty(), "snapshotLoad needs a fresh mapper");
  nextScenarioId_ = in.u64();
  const std::uint64_t count = in.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    Scenario& scenario = scenarios_.emplace_back();
    scenario.id = in.u64();
    scenario.byNode.resize(numNodes_);
    for (NodeId node = 0; node < numNodes_; ++node) {
      ExecutionState* state = resolve(in.u64());
      if (state == nullptr)
        throw snapshot::SnapshotError(
            "COB snapshot references an unknown state");
      scenario.byNode[node] = state;
      scenarioOf_.slot(state->id()) = &scenario;
    }
  }
}

void CobMapper::checkInvariants() const {
  std::size_t dead = 0;
  std::size_t mapped = 0;
  for (const Scenario& scenario : scenarios_) {
    if (scenario.dead) {
      SDE_ASSERT(scenario.byNode.empty(), "dead dscenario keeps members");
      ++dead;
      continue;
    }
    SDE_ASSERT(scenario.byNode.size() == numNodes_,
               "dscenario must span all nodes");
    for (NodeId node = 0; node < numNodes_; ++node) {
      const ExecutionState* state = scenario.byNode[node];
      SDE_ASSERT(state != nullptr && state->node() == node,
                 "dscenario member on the wrong node");
      SDE_ASSERT(!state->mergedAway, "dscenario member was absorbed");
      ++mapped;
      SDE_ASSERT(scenarioOf_[state->id()] == &scenario,
                 "scenarioOf_ out of sync");
    }
  }
  SDE_ASSERT(dead == deadScenarios_, "dead-dscenario count out of sync");
  SDE_ASSERT(mapped == scenarioOf_.count(), "orphan entries in scenarioOf_");
}

}  // namespace sde

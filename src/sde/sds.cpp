#include "sde/sds.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <unordered_set>

#include "obs/trace_sink.hpp"
#include "snapshot/reader.hpp"
#include "snapshot/writer.hpp"

namespace sde {

namespace {

// Erase by value from a small vector (order-preserving).
template <typename T>
void eraseValue(std::vector<T*>& vec, const T* value) {
  const auto it = std::find(vec.begin(), vec.end(), value);
  SDE_ASSERT(it != vec.end(), "value not present");
  vec.erase(it);
}

// Serialized actual/dstate id of a dead (tombstoned) virtual state.
constexpr std::uint64_t kDeadVirtualSentinel = ~std::uint64_t{0};

}  // namespace

SdsMapper::VState& SdsMapper::newVirtual(Actual& actual, VDState& dstate) {
  VState& v = virtualPool_.emplace_back();
  v.id = nextVirtualId_++;
  v.actual = &actual;
  v.dstate = &dstate;
  dstate.byNode[actual.state->node()].push_back(&v);
  actual.virtuals.push_back(&v);
  ++liveVirtuals_;
  return v;
}

SdsMapper::VDState& SdsMapper::newDstate() {
  VDState& dstate = dstates_.emplace_back();
  dstate.id = nextDstateId_++;
  dstate.byNode.resize(numNodes_);
  return dstate;
}

void SdsMapper::removeFromDstate(VState& v) {
  eraseValue(v.dstate->byNode[v.actual->state->node()], &v);
}

void SdsMapper::moveVirtual(VState& v, VDState& dstate) {
  removeFromDstate(v);
  v.dstate = &dstate;
  dstate.byNode[v.actual->state->node()].push_back(&v);
}

SdsMapper::Actual& SdsMapper::actualOf(const ExecutionState& state) {
  const auto it = byActual_.find(&state);
  SDE_ASSERT(it != byActual_.end(), "state not registered with SDS");
  return it->second;
}

SdsMapper::Actual& SdsMapper::actualFor(ExecutionState& state) {
  Actual& actual = byActual_[&state];
  actual.state = &state;
  return actual;
}

void SdsMapper::registerInitialStates(
    std::span<ExecutionState* const> states) {
  SDE_ASSERT(states.size() == numNodes_, "need exactly one state per node");
  VDState& dstate = newDstate();
  for (ExecutionState* state : states) newVirtual(actualFor(*state), dstate);
}

void SdsMapper::onLocalBranch(ExecutionState& original,
                              ExecutionState& sibling, MapperRuntime&) {
  // COW semantics lifted to virtual states: the sibling joins every
  // dstate the original inhabits (they share one communication history).
  const Actual& from = actualOf(original);
  Actual& to = actualFor(sibling);
  to.virtuals.reserve(from.virtuals.size());
  for (const VState* vo : from.virtuals) newVirtual(to, *vo->dstate);
}

std::vector<ExecutionState*> SdsMapper::onTransmit(ExecutionState& sender,
                                                   const net::Packet& packet,
                                                   MapperRuntime& runtime) {
  const NodeId src = sender.node();
  const NodeId dst = packet.dst;
  SDE_ASSERT(dst < numNodes_, "destination out of range");
  // The sender's virtual list is iterated while virtuals of other nodes
  // are created and re-bound; a self-send would alias it.
  SDE_ASSERT(dst != src, "a node never transmits to itself");
  const std::uint64_t epoch = ++epoch_;

  // Phase 1+2 (paper §III-C.1/2): identify the sending virtual states,
  // their dstates, and — per dstate — whether direct rivals exist.
  const std::vector<VState*>& sendingVirtuals = actualOf(sender).virtuals;
  const auto hasDirectRivals = [src](const VDState& dstate) {
    // Any node-src virtual besides the sender's own is a direct rival.
    return dstate.byNode[src].size() > 1;
  };

  // Target actual states: actuals of destination-node virtuals in the
  // sender's dstates (deterministic order: by dstate, then slot order).
  // Those virtuals are exactly the targets' virtuals in sender dstates —
  // the ones a forking target keeps — so they are collected here, each
  // with its target's index.
  struct Kept {
    std::size_t target;
    VState* v;
  };
  std::vector<Actual*> targets;
  std::vector<Kept> kept;
  for (const VState* vs : sendingVirtuals) {
    VDState& dstate = *vs->dstate;
    // Phase 3 counts kept virtuals against list lengths, which is only
    // sound if each sender dstate is walked once.
    SDE_ASSERT(dstate.senderMark != epoch,
               "a dstate may contain at most one virtual per actual state");
    dstate.senderMark = epoch;
    for (VState* vt : dstate.byNode[dst]) {
      Actual& target = *vt->actual;
      if (target.targetMark != epoch) {
        target.targetMark = epoch;
        target.ordinal = targets.size();
        target.nonReceiving = nullptr;
        targets.push_back(&target);
      }
      kept.push_back({target.ordinal, vt});
    }
  }
  SDE_ASSERT(!targets.empty(), "every dstate covers the destination node");
  // Group by target; within a group, by address for binary search.
  std::ranges::sort(kept, [](const Kept& a, const Kept& b) {
    return a.target != b.target ? a.target < b.target
                                : std::less<const VState*>{}(a.v, b.v);
  });

  // Phase 3 (forking condition): a target forks iff any of its virtual
  // states lives in a dstate that either lacks a sending virtual (its
  // node-src members are super-rivals, Figure 7) or has direct rivals.
  // A terminal target never forks: a crashed node absorbs the packet.
  std::uint64_t targetsForked = 0;
  std::uint64_t targetCopyElements = 0;
  std::vector<ExecutionState*> receivers;
  receivers.reserve(targets.size());
  auto group = kept.begin();
  for (std::size_t index = 0; index < targets.size(); ++index) {
    const auto groupEnd =
        std::find_if(group, kept.end(),
                     [index](const Kept& k) { return k.target != index; });
    const std::span<const Kept> targetKept(group, groupEnd);
    group = groupEnd;

    Actual*& target = targets[index];
    ExecutionState& state = *target->state;
    const bool needFork =
        !state.isTerminal() &&
        (targetKept.size() < target->virtuals.size() ||
         std::ranges::any_of(targetKept, [&](const Kept& k) {
           return hasDirectRivals(*k.v->dstate);
         }));
    if (needFork) {
      targetCopyElements += state.forkCopyCost();
      ExecutionState& copyState = runtime.forkState(state);
      ++targetsForked;
      // Phase 4a: virtual states of the target in super-rival dstates
      // (no sending virtual there) migrate to the non-receiving copy —
      // no virtual forking, the dstate itself is untouched (Figure 7).
      // Nearly all of them migrate, so the copy takes over the target's
      // record wholesale — the migrating virtuals keep pointing at it —
      // and the target gets a fresh record for the few it keeps.
      auto handle = byActual_.extract(&state);
      handle.key() = &copyState;
      Actual& copy = byActual_.insert(std::move(handle)).position->second;
      copy.state = &copyState;
      copy.targetMark = 0;  // the scratch was the target's
      Actual& receiving = actualFor(state);
      receiving.targetMark = epoch;
      receiving.nonReceiving = &copy;
      target = &receiving;
      // One order-preserving compaction: lift the kept virtuals out of
      // the copy's list, in list order. Membership is an address search
      // in the sorted group, so migrating virtuals are never touched; the
      // scan stops at the last kept one.
      std::vector<VState*>& list = copy.virtuals;
      std::size_t write = 0;
      std::size_t read = 0;
      for (std::size_t found = 0; found < targetKept.size(); ++read) {
        SDE_ASSERT(read < list.size(), "kept virtual missing from its list");
        VState* v = list[read];
        if (std::ranges::binary_search(targetKept, v,
                                       std::less<const VState*>{}, &Kept::v)) {
          v->actual = &receiving;
          receiving.virtuals.push_back(v);
          ++found;
        } else {
          list[write++] = v;
        }
      }
      list.erase(list.begin() + static_cast<std::ptrdiff_t>(write),
                 list.begin() + static_cast<std::ptrdiff_t>(read));
    }
    receivers.push_back(&state);
  }

  // Phase 4b: per sender-dstate with direct rivals, run COW at the
  // virtual level (Figure 8): the sending virtual moves to a fresh
  // dstate; original virtual targets re-bind to the non-receiving
  // copies; fresh virtual-target copies bind to the receiving states;
  // bystanders just gain a virtual in the fresh dstate — their actual
  // states are never forked (the SDS payoff).
  std::uint64_t conflictResolutions = 0;
  std::uint64_t virtualTargetsForked = 0;
  std::uint64_t virtualBystandersForked = 0;
  for (VState* vs : sendingVirtuals) {
    VDState& old = *vs->dstate;
    if (!hasDirectRivals(old)) continue;  // delivery happens in place
    ++conflictResolutions;

    VDState& fresh = newDstate();
    moveVirtual(*vs, fresh);

    std::uint64_t freshVirtuals = 0;
    for (NodeId node = 0; node < numNodes_; ++node) {
      if (node == src) continue;  // direct rivals stay behind
      const std::vector<VState*>& members = old.byNode[node];
      fresh.byNode[node].reserve(members.size());
      for (VState* v : members) {
        // A bystander just gains a reference; a virtual target's copy
        // binds to the receiving state, and the original stays in `old`,
        // re-bound to the non-receiving copy (if the target forked).
        Actual& actual = *v->actual;
        newVirtual(actual, fresh);
        if (node == dst) {
          SDE_ASSERT(actual.targetMark == epoch,
                     "virtual target missing fork entry");
          if (actual.nonReceiving != nullptr) {
            v->actual = actual.nonReceiving;
            actual.nonReceiving->virtuals.push_back(v);
          }
        }
      }
      freshVirtuals += members.size();
      (node == dst ? virtualTargetsForked : virtualBystandersForked) +=
          members.size();
    }
    if (obs::TraceSink* trace = runtime.trace()) {
      // b counts fresh *virtual* members — SDS never forks actual
      // bystanders, which is exactly what this record shows next to a
      // COW kDstateSplit of the same run.
      obs::TraceEvent split;
      split.kind = obs::TraceEventKind::kGroupFork;
      split.detail =
          static_cast<std::uint8_t>(obs::GroupForkDetail::kVirtualSplit);
      split.node = src;
      split.stateId = sender.id();
      split.groupId = fresh.id;
      split.a = old.id;
      split.b = freshVirtuals;
      trace->emit(split);
    }
  }

  // Drop the virtuals phase 4b re-bound to the non-receiving copies.
  for (Actual* target : targets)
    if (target->nonReceiving != nullptr)
      std::erase_if(target->virtuals, [target](const VState* v) {
        return v->actual != target;
      });

  // One bump per counter and transmission, and only for non-zero counts:
  // a bump creates the key, and the stats map is serialized.
  support::StatsRegistry& stats = runtime.stats();
  const auto bumpIfAny = [&stats](std::string_view name, std::uint64_t n) {
    if (n > 0) stats.bump(name, n);
  };
  stats.bump("map.transmissions");
  if (targetsForked > 0)
    stats.bump("map.sds.target_copy_elements", targetCopyElements);
  bumpIfAny("map.targets_forked", targetsForked);
  bumpIfAny("map.sds.virtual_conflict_resolutions", conflictResolutions);
  bumpIfAny("map.sds.virtual_targets_forked", virtualTargetsForked);
  bumpIfAny("map.sds.virtual_bystanders_forked", virtualBystandersForked);

  if (runtime.trace() != nullptr && targetsForked > 0) {
    obs::TraceEvent invoked;
    invoked.kind = obs::TraceEventKind::kMappingInvoked;
    invoked.node = src;
    invoked.peer = dst;
    invoked.stateId = sender.id();
    invoked.packetId = packet.id;
    invoked.a = targetsForked;
    invoked.b = 0;  // the SDS payoff: bystanders are never forked
    runtime.trace()->emit(invoked);
  }

  return receivers;
}

bool SdsMapper::canMerge(const ExecutionState& survivor,
                         const ExecutionState& absorbed) const {
  const auto keep = byActual_.find(&survivor);
  const auto drop = byActual_.find(&absorbed);
  SDE_ASSERT(keep != byActual_.end() && drop != byActual_.end(),
             "state not registered with SDS");
  const std::vector<VState*>& kept = keep->second.virtuals;
  const std::vector<VState*>& dropped = drop->second.virtuals;
  if (kept.size() != dropped.size()) return false;
  // Each dstate holds at most one virtual per actual state, so the
  // virtual lists visit distinct dstates — set comparison via sorting.
  std::vector<const VDState*> a;
  std::vector<const VDState*> b;
  a.reserve(kept.size());
  b.reserve(dropped.size());
  for (const VState* v : kept) a.push_back(v->dstate);
  for (const VState* v : dropped) b.push_back(v->dstate);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

std::vector<ExecutionState*> SdsMapper::onStatesMerged(
    ExecutionState& survivor, ExecutionState& absorbed) {
  (void)survivor;
  const auto it = byActual_.find(&absorbed);
  SDE_ASSERT(it != byActual_.end(), "state not registered with SDS");
  // The record goes last: removeFromDstate reads the node through it.
  for (VState* v : it->second.virtuals) {
    removeFromDstate(*v);
    v->actual = nullptr;
    v->dstate = nullptr;
    v->dead = true;
    --liveVirtuals_;
  }
  byActual_.erase(it);
  return {};
}

std::vector<std::vector<std::vector<ExecutionState*>>>
SdsMapper::groupChoices() const {
  std::vector<std::vector<std::vector<ExecutionState*>>> result;
  result.reserve(dstates_.size());
  for (const VDState& dstate : dstates_) {
    std::vector<std::vector<ExecutionState*>> group;
    group.reserve(numNodes_);
    for (NodeId node = 0; node < numNodes_; ++node) {
      std::vector<ExecutionState*> choices;
      choices.reserve(dstate.byNode[node].size());
      for (const VState* v : dstate.byNode[node])
        choices.push_back(v->actual->state);
      group.push_back(std::move(choices));
    }
    result.push_back(std::move(group));
  }
  return result;
}

std::size_t SdsMapper::superDstateSize(const ExecutionState& s) const {
  const auto it = byActual_.find(&s);
  return it == byActual_.end() ? 0 : it->second.virtuals.size();
}

void SdsMapper::snapshotSave(snapshot::Writer& out) const {
  // Virtual states and dstates are only ever appended, so their ids
  // equal their container indices — serialized references are ids.
  out.u64(nextVirtualId_);
  out.u64(nextDstateId_);
  out.u64(liveVirtuals_);

  out.u64(virtualPool_.size());
  std::uint64_t poolIndex = 0;
  for (const VState& v : virtualPool_) {
    SDE_ASSERT(v.id == poolIndex++, "virtual pool ids must equal indices");
    if (v.dead) {
      // Tombstone of a merged-away actual: keeps the id == index
      // invariant across the round trip without a resolvable referent.
      out.u64(kDeadVirtualSentinel);
      out.u64(kDeadVirtualSentinel);
      continue;
    }
    out.u64(v.actual->state->id());
    out.u64(v.dstate->id);
  }

  out.u64(dstates_.size());
  std::uint64_t dstateIndex = 0;
  for (const VDState& dstate : dstates_) {
    SDE_ASSERT(dstate.id == dstateIndex++, "dstate ids must equal indices");
    // Per-node slot order determines receiver order on future
    // transmissions — serialized verbatim.
    for (NodeId node = 0; node < numNodes_; ++node) {
      out.u64(dstate.byNode[node].size());
      for (const VState* v : dstate.byNode[node]) out.u64(v->id);
    }
  }

  // byActual_ is an unordered map of ordered vectors; the vector order
  // matters (it drives onTransmit's iteration), the map order does not —
  // serialize keyed by state id, sorted.
  std::map<StateId, const std::vector<VState*>*> byActual;
  for (const auto& [state, actual] : byActual_)
    byActual[state->id()] = &actual.virtuals;
  out.u64(byActual.size());
  for (const auto& [stateId, virtuals] : byActual) {
    out.u64(stateId);
    out.u64(virtuals->size());
    for (const VState* v : *virtuals) out.u64(v->id);
  }
}

void SdsMapper::snapshotLoad(snapshot::Reader& in,
                             const StateResolver& resolve) {
  SDE_ASSERT(dstates_.empty() && virtualPool_.empty(),
             "snapshotLoad needs a fresh mapper");
  nextVirtualId_ = in.u64();
  nextDstateId_ = in.u64();
  liveVirtuals_ = in.u64();

  const std::uint64_t poolSize = in.u64();
  struct PendingVirtual {
    StateId actual = 0;
    std::uint64_t dstate = 0;
  };
  std::vector<PendingVirtual> pending(poolSize);
  for (std::uint64_t i = 0; i < poolSize; ++i) {
    pending[i].actual = in.u64();
    pending[i].dstate = in.u64();
  }

  const std::uint64_t numDstates = in.u64();
  for (std::uint64_t i = 0; i < numDstates; ++i) {
    VDState& dstate = dstates_.emplace_back();
    dstate.id = i;
    dstate.byNode.resize(numNodes_);
  }

  for (std::uint64_t i = 0; i < poolSize; ++i) {
    VState& v = virtualPool_.emplace_back();
    v.id = i;
    if (pending[i].actual == kDeadVirtualSentinel) {
      if (pending[i].dstate != kDeadVirtualSentinel)
        throw snapshot::SnapshotError("SDS snapshot has a half-dead virtual");
      v.dead = true;
      continue;
    }
    ExecutionState* actual = resolve(pending[i].actual);
    if (actual == nullptr || pending[i].dstate >= dstates_.size())
      throw snapshot::SnapshotError(
          "SDS snapshot references an unknown state or dstate");
    v.actual = &actualFor(*actual);
    v.dstate = &dstates_[pending[i].dstate];
  }

  const auto virtualAt = [this](std::uint64_t id) -> VState& {
    if (id >= virtualPool_.size())
      throw snapshot::SnapshotError(
          "SDS snapshot references an unknown virtual state");
    return virtualPool_[id];
  };

  for (VDState& dstate : dstates_) {
    for (NodeId node = 0; node < numNodes_; ++node) {
      const std::uint64_t count = in.u64();
      dstate.byNode[node].reserve(count);
      for (std::uint64_t m = 0; m < count; ++m)
        dstate.byNode[node].push_back(&virtualAt(in.u64()));
    }
  }

  const std::uint64_t numActuals = in.u64();
  for (std::uint64_t i = 0; i < numActuals; ++i) {
    ExecutionState* actual = resolve(in.u64());
    if (actual == nullptr)
      throw snapshot::SnapshotError(
          "SDS snapshot references an unknown state");
    const std::uint64_t count = in.u64();
    std::vector<VState*>& virtuals = actualFor(*actual).virtuals;
    virtuals.reserve(count);
    for (std::uint64_t m = 0; m < count; ++m)
      virtuals.push_back(&virtualAt(in.u64()));
  }
}

void SdsMapper::checkInvariants() const {
  std::size_t totalVirtuals = 0;
  for (const VDState& dstate : dstates_) {
    SDE_ASSERT(dstate.byNode.size() == numNodes_, "dstate shape");
    StateGroup actuals(numNodes_);
    std::unordered_set<const ExecutionState*> distinct;
    for (NodeId node = 0; node < numNodes_; ++node) {
      SDE_ASSERT(!dstate.byNode[node].empty(),
                 "dstate must have >= 1 virtual per node");
      for (const VState* v : dstate.byNode[node]) {
        ++totalVirtuals;
        SDE_ASSERT(v->dstate == &dstate, "virtual's dstate link broken");
        ExecutionState* actual = v->actual->state;
        SDE_ASSERT(actual->node() == node, "virtual on the wrong node");
        SDE_ASSERT(distinct.insert(actual).second,
                   "two virtuals of one dstate share an actual state");
        actuals.add(actual);
        // Cross-check the byActual_ index.
        const auto it = byActual_.find(actual);
        SDE_ASSERT(it != byActual_.end() && &it->second == v->actual &&
                       std::ranges::find(it->second.virtuals, v) !=
                           it->second.virtuals.end(),
                   "byActual_ index out of sync");
      }
    }
    SDE_ASSERT(countConflicts(actuals) == 0,
               "dstate actuals must be pairwise conflict-free");
  }
  SDE_ASSERT(totalVirtuals == liveVirtuals_, "virtual count out of sync");
  for (const VState& v : virtualPool_)
    SDE_ASSERT(v.dead == (v.actual == nullptr && v.dstate == nullptr),
               "dead flag out of sync with virtual links");
  for (const auto& [state, actual] : byActual_) {
    SDE_ASSERT(actual.state == state, "Actual record keyed by another state");
    SDE_ASSERT(!actual.virtuals.empty(),
               "every state must have at least one virtual state");
    for (const VState* v : actual.virtuals)
      SDE_ASSERT(v->actual == &actual, "listed virtual bound elsewhere");
  }
}

}  // namespace sde

// Differential oracle for the SDS mapper. ReferenceSds below is §III-C in
// its plainest form: a set of sender dstates, one virtual re-bound at a
// time by erase-and-append, one counter bump per virtual. SdsMapper must
// produce exactly what it produces — the same receivers, forks and
// counters, and byte-identical serialized state (snapshotSave), which pins
// every list order the optimized transmission path has to preserve: the
// per-node slot orders and each actual state's virtual order drive future
// receiver order and are written into checkpoints.
//
// Both are driven through the same random branch / transmit / crash /
// merge sequences, each on its own universe of execution states whose ids
// advance in lockstep.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>

#include "sde/sds.hpp"
#include "snapshot/writer.hpp"
#include "vm/builder.hpp"

namespace sde {
namespace {

class StubRuntime final : public MapperRuntime {
 public:
  explicit StubRuntime(StateId firstId) : nextId_(firstId) {}

  ExecutionState& forkState(ExecutionState& original) override {
    owned.push_back(original.fork(nextId_++));
    return *owned.back();
  }
  support::StatsRegistry& stats() override { return stats_; }

  std::vector<std::unique_ptr<ExecutionState>> owned;

 private:
  StateId nextId_;
  support::StatsRegistry stats_;
};

class ReferenceSds {
 public:
  explicit ReferenceSds(std::uint32_t numNodes) : numNodes_(numNodes) {}

  void registerInitialStates(std::span<ExecutionState* const> states) {
    dstates_.emplace_back(numNodes_);
    for (ExecutionState* state : states) newVirtual(state, 0);
  }

  void onLocalBranch(const ExecutionState& original, ExecutionState& sibling) {
    const std::vector<std::size_t> mirrored = byActual_.at(&original);
    for (const std::size_t v : mirrored)
      newVirtual(&sibling, virtuals_[v].dstate);
  }

  std::vector<ExecutionState*> onTransmit(const ExecutionState& sender,
                                          NodeId dst, MapperRuntime& runtime) {
    support::StatsRegistry& stats = runtime.stats();
    stats.add(support::statId<"map.transmissions">());
    const NodeId src = sender.node();
    const std::vector<std::size_t> sending = byActual_.at(&sender);
    std::set<std::size_t> senderDstates;
    for (const std::size_t vs : sending)
      senderDstates.insert(virtuals_[vs].dstate);
    const auto rivalled = [&](std::size_t d) {
      return dstates_[d][src].size() > 1;
    };

    std::vector<ExecutionState*> targets;
    for (const std::size_t vs : sending)
      for (const std::size_t vt : dstates_[virtuals_[vs].dstate][dst])
        if (std::ranges::find(targets, virtuals_[vt].actual) == targets.end())
          targets.push_back(virtuals_[vt].actual);

    std::map<const ExecutionState*, ExecutionState*> nonReceiving;
    for (ExecutionState* target : targets) {
      bool needFork = false;
      if (!target->isTerminal())
        for (const std::size_t v : byActual_.at(target))
          needFork = needFork || !senderDstates.contains(virtuals_[v].dstate) ||
                     rivalled(virtuals_[v].dstate);
      if (!needFork) continue;
      stats.add(support::statId<"map.sds.target_copy_elements">(),
                target->forkCopyCost());
      ExecutionState& copy = runtime.forkState(*target);
      stats.add(support::statId<"map.targets_forked">());
      nonReceiving[target] = &copy;
      const std::vector<std::size_t> snapshot = byActual_.at(target);
      for (const std::size_t v : snapshot)
        if (!senderDstates.contains(virtuals_[v].dstate)) rebind(v, &copy);
    }

    for (const std::size_t vs : sending) {
      const std::size_t old = virtuals_[vs].dstate;
      if (!rivalled(old)) continue;
      stats.add(support::statId<"map.sds.virtual_conflict_resolutions">());
      const std::size_t fresh = dstates_.size();
      dstates_.emplace_back(numNodes_);
      std::erase(dstates_[old][src], vs);
      virtuals_[vs].dstate = fresh;
      dstates_[fresh][src].push_back(vs);
      for (NodeId node = 0; node < numNodes_; ++node) {
        if (node == src) continue;
        const std::vector<std::size_t> members = dstates_[old][node];
        for (const std::size_t v : members) {
          ExecutionState* actual = virtuals_[v].actual;
          newVirtual(actual, fresh);
          if (node == dst) {
            if (nonReceiving.contains(actual))
              rebind(v, nonReceiving[actual]);
            stats.add(support::statId<"map.sds.virtual_targets_forked">());
          } else {
            stats.add(support::statId<"map.sds.virtual_bystanders_forked">());
          }
        }
      }
    }
    return targets;
  }

  [[nodiscard]] bool canMerge(const ExecutionState& survivor,
                              const ExecutionState& absorbed) const {
    return dstatesOf(survivor) == dstatesOf(absorbed);
  }

  void onStatesMerged(const ExecutionState& absorbed) {
    for (const std::size_t v : byActual_.at(&absorbed)) {
      Virtual& dead = virtuals_[v];
      std::erase(dstates_[dead.dstate][absorbed.node()], v);
      dead.actual = nullptr;
      --live_;
    }
    byActual_.erase(&absorbed);
  }

  // SdsMapper::snapshotSave's format.
  [[nodiscard]] std::string serialize() const {
    constexpr std::uint64_t kDead = ~std::uint64_t{0};
    std::ostringstream bytes;
    snapshot::Writer out(bytes);
    out.u64(virtuals_.size());
    out.u64(dstates_.size());
    out.u64(live_);
    out.u64(virtuals_.size());
    for (const Virtual& v : virtuals_) {
      out.u64(v.actual == nullptr ? kDead : v.actual->id());
      out.u64(v.actual == nullptr ? kDead : v.dstate);
    }
    out.u64(dstates_.size());
    for (const auto& dstate : dstates_)
      for (const auto& members : dstate) {
        out.u64(members.size());
        for (const std::size_t v : members) out.u64(v);
      }
    std::map<StateId, const std::vector<std::size_t>*> sorted;
    for (const auto& [state, list] : byActual_) sorted[state->id()] = &list;
    out.u64(sorted.size());
    for (const auto& [id, list] : sorted) {
      out.u64(id);
      out.u64(list->size());
      for (const std::size_t v : *list) out.u64(v);
    }
    return bytes.str();
  }

 private:
  struct Virtual {
    ExecutionState* actual = nullptr;  // nullptr: merged away
    std::size_t dstate = 0;
  };

  void newVirtual(ExecutionState* actual, std::size_t dstate) {
    dstates_[dstate][actual->node()].push_back(virtuals_.size());
    byActual_[actual].push_back(virtuals_.size());
    virtuals_.push_back({actual, dstate});
    ++live_;
  }

  void rebind(std::size_t v, ExecutionState* to) {
    std::vector<std::size_t>& from = byActual_.at(virtuals_[v].actual);
    from.erase(std::ranges::find(from, v));
    virtuals_[v].actual = to;
    byActual_[to].push_back(v);
  }

  [[nodiscard]] std::set<std::size_t> dstatesOf(
      const ExecutionState& state) const {
    std::set<std::size_t> result;
    for (const std::size_t v : byActual_.at(&state))
      result.insert(virtuals_[v].dstate);
    return result;
  }

  std::uint32_t numNodes_;
  std::vector<Virtual> virtuals_;  // id == index
  std::vector<std::vector<std::vector<std::size_t>>> dstates_;
  std::map<const ExecutionState*, std::vector<std::size_t>> byActual_;
  std::uint64_t live_ = 0;
};

// One universe: the states one mapper sees, in creation order. Index i
// names the same state id in both universes while the mappers agree.
struct Universe {
  explicit Universe(StateId firstForkId) : runtime(firstForkId) {}

  [[nodiscard]] ExecutionState& at(std::size_t i) const { return *states[i]; }

  std::vector<std::unique_ptr<ExecutionState>> initial;
  StubRuntime runtime;
  std::vector<ExecutionState*> states;
  std::size_t ownedSeen = 0;

  // Appends states the runtime forked since the last call.
  void adoptForks() {
    for (; ownedSeen < runtime.owned.size(); ++ownedSeen)
      states.push_back(runtime.owned[ownedSeen].get());
  }
};

[[nodiscard]] std::string serialized(const SdsMapper& mapper) {
  std::ostringstream bytes;
  snapshot::Writer out(bytes);
  mapper.snapshotSave(out);
  return bytes.str();
}

[[nodiscard]] std::vector<StateId> idsOf(
    const std::vector<ExecutionState*>& states) {
  std::vector<StateId> ids;
  for (const ExecutionState* state : states) ids.push_back(state->id());
  return ids;
}

class SdsReferenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SdsReferenceTest, MatchesTheReferenceStepByStep) {
  std::mt19937_64 rng(GetParam());
  const auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const auto numNodes = static_cast<std::uint32_t>(2 + below(5));

  vm::IRBuilder b("noop");
  b.setGlobals(1);
  b.beginEntry(vm::Entry::kInit);
  b.halt();
  const vm::Program program = b.finish();

  Universe fast(numNodes);
  Universe reference(numNodes);
  for (Universe* u : {&fast, &reference}) {
    for (NodeId node = 0; node < numNodes; ++node) {
      u->initial.push_back(
          std::make_unique<ExecutionState>(node, node, program));
      u->states.push_back(u->initial.back().get());
    }
  }
  SdsMapper sds(numNodes);
  ReferenceSds ref(numNodes);
  sds.registerInitialStates(fast.states);
  ref.registerInitialStates(reference.states);

  // Live senders: not crashed, not merged away.
  std::vector<std::size_t> live(numNodes);
  for (std::size_t i = 0; i < numNodes; ++i) live[i] = i;
  std::uint64_t packetId = 0;
  std::uint64_t forkingTransmits = 0;
  std::uint64_t merges = 0;

  for (int step = 0; step < 160 && fast.states.size() < 600; ++step) {
    const std::size_t pick = below(live.size());
    const std::size_t s = live[pick];
    const std::size_t op = below(20);
    if (op < 6) {  // local branch
      for (Universe* u : {&fast, &reference}) {
        ExecutionState& sibling = u->runtime.forkState(u->at(s));
        if (u == &fast)
          sds.onLocalBranch(u->at(s), sibling, u->runtime);
        else
          ref.onLocalBranch(u->at(s), sibling);
        u->adoptForks();
      }
      live.push_back(fast.states.size() - 1);
    } else if (op < 17) {  // transmit
      const NodeId src = fast.at(s).node();
      const auto dst = static_cast<NodeId>(
          (src + 1 + below(numNodes - 1)) % numNodes);
      net::Packet packet;
      packet.src = src;
      packet.dst = dst;
      packet.id = ++packetId;
      const std::size_t before = fast.states.size();
      const auto got = sds.onTransmit(fast.at(s), packet, fast.runtime);
      const auto want =
          ref.onTransmit(reference.at(s), dst, reference.runtime);
      ASSERT_EQ(idsOf(got), idsOf(want)) << "step " << step;
      for (Universe* u : {&fast, &reference}) u->adoptForks();
      for (std::size_t i = before; i < fast.states.size(); ++i)
        live.push_back(i);
      if (fast.states.size() > before) ++forkingTransmits;
    } else if (op < 18) {  // crash: a terminal target never forks
      for (Universe* u : {&fast, &reference})
        u->at(s).status = vm::StateStatus::kKilled;
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {  // merge `s` into another live state of its node, if allowed
      for (const std::size_t t : live) {
        if (t == s || fast.at(t).node() != fast.at(s).node()) continue;
        const bool allowed = sds.canMerge(fast.at(t), fast.at(s));
        ASSERT_EQ(allowed, ref.canMerge(reference.at(t), reference.at(s)));
        if (!allowed) continue;
        (void)sds.onStatesMerged(fast.at(t), fast.at(s));
        ref.onStatesMerged(reference.at(s));
        for (Universe* u : {&fast, &reference}) u->at(s).mergedAway = true;
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        ++merges;
        break;
      }
    }
    if (live.empty()) break;

    ASSERT_EQ(fast.states.size(), reference.states.size()) << "step " << step;
    ASSERT_EQ(fast.runtime.stats().all(), reference.runtime.stats().all())
        << "step " << step;
    ASSERT_EQ(serialized(sds), ref.serialize()) << "step " << step;
    sds.checkInvariants();
  }
  // Anti-vacuity: the sequence must have forked targets and merged.
  EXPECT_GT(forkingTransmits, 0u) << "seed " << GetParam();
  EXPECT_GT(merges, 0u) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SdsReferenceTest,
                         ::testing::Range<std::uint64_t>(1, 25));

}  // namespace
}  // namespace sde

#include "vm/merge.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "expr/subst.hpp"
#include "support/assert.hpp"

namespace sde::vm {

namespace {

bool samePendingEvent(const PendingEvent& x, const PendingEvent& y) {
  return x.time == y.time && x.kind == y.kind && x.a == y.a && x.b == y.b &&
         x.seq == y.seq && x.payload == y.payload;
}

bool sameDecision(const DecisionRecord& x, const DecisionRecord& y) {
  return x.var == y.var && x.failed == y.failed;
}

}  // namespace

bool Merger::compatible(const ExecutionState& a,
                        const ExecutionState& b) const {
  if (&a == &b) return false;
  if (a.node() != b.node() || &a.program() != &b.program()) return false;
  if (a.mergedAway || b.mergedAway) return false;
  if (a.status != b.status) return false;
  if (a.status == StateStatus::kRunning) {
    // The parking case: both arms arrived at the same join point.
    if (a.pc != b.pc || a.callStack != b.callStack) return false;
  } else if (a.status != StateStatus::kIdle) {
    return false;  // terminal states are never merged
  }
  if (a.cold().failureMessage != b.cold().failureMessage) return false;

  // Event timelines must be identical entry for entry — including
  // packet identity and arming order: the merged state replays both
  // arms' futures as one.
  if (a.nextEventSeq != b.nextEventSeq) return false;
  if (a.cold().activeTimers != b.cold().activeTimers) return false;
  if (a.pendingEvents.size() != b.pendingEvents.size()) return false;
  for (std::size_t i = 0; i < a.pendingEvents.size(); ++i)
    if (!samePendingEvent(a.pendingEvents[i], b.pendingEvents[i]))
      return false;

  // Communication histories must agree under both the content and the
  // packet-identity view (merging arms that communicated differently
  // would change the reachable behaviours).
  if (a.commLog.size() != b.commLog.size() ||
      a.commLog.contentChainHash() != b.commLog.contentChainHash() ||
      a.commLog.strictChainHash() != b.commLog.strictChainHash())
    return false;

  // Same symbolic inputs, pointwise: the merged test case assigns one
  // shared input vector, expanded per guard polarity afterwards.
  if (a.symbolics.size() != b.symbolics.size()) return false;
  if (a.cold().symbolicCounters != b.cold().symbolicCounters) return false;
  {
    auto ia = a.symbolics.begin();
    auto ib = b.symbolics.begin();
    for (; ia != a.symbolics.end(); ++ia, ++ib)
      if (*ia != *ib) return false;
  }

  // Parking tokens must be the very same shared stack (idle sweep: both
  // empty; join parking: the same inherited outer tokens).
  if (a.mergeTokens != b.mergeTokens) return false;

  // Memory objects present in both arms must have equal sizes;
  // one-sided objects (phantoms, e.g. the delivered payload the dropped
  // arm never materialised) are representable as ite(g, cells, 0).
  {
    auto ia = a.space.objects().begin();
    auto ib = b.space.objects().begin();
    while (ia != a.space.objects().end() && ib != b.space.objects().end()) {
      if (ia->first < ib->first) {
        ++ia;
      } else if (ib->first < ia->first) {
        ++ib;
      } else {
        if (ia->second->size() != ib->second->size()) return false;
        ++ia;
        ++ib;
      }
    }
  }
  return true;
}

bool Merger::merge(ExecutionState& s, ExecutionState& a, expr::Ref guard) {
  SDE_ASSERT(guard != nullptr && guard->isVariable() && guard->isBool(),
             "merge guard must be a fresh boolean variable");
  SDE_ASSERT(compatible(s, a), "merge of incompatible states");

  // --- Constraint decomposition: shared prefix + two arm suffixes. ----------
  const std::vector<expr::Ref> sItems = s.constraints.toVector();
  const std::vector<expr::Ref> aItems = a.constraints.toVector();
  std::size_t prefix = 0;
  while (prefix < sItems.size() && prefix < aItems.size() &&
         sItems[prefix] == aItems[prefix])
    ++prefix;
  std::vector<expr::Ref> ifTrue(sItems.begin() +
                                    static_cast<std::ptrdiff_t>(prefix),
                                sItems.end());
  std::vector<expr::Ref> ifFalse(aItems.begin() +
                                     static_cast<std::ptrdiff_t>(prefix),
                                 aItems.end());

  const auto conjunctionOf = [this](const std::vector<expr::Ref>& xs) {
    expr::Ref acc = ctx_.trueExpr();
    for (const expr::Ref x : xs) acc = ctx_.logicalAnd(acc, x);
    return acc;
  };
  expr::Ref conjunct = nullptr;
  if (!ifTrue.empty() || !ifFalse.empty()) {
    conjunct = ctx_.ite(guard, conjunctionOf(ifTrue), conjunctionOf(ifFalse));
    // A constant conjunct means one arm's suffix folded to a constant —
    // degenerate algebra this merge cannot represent invertibly.
    if (conjunct->isConstant()) return false;
  }

  solver::ConstraintSet mergedSet;
  for (std::size_t i = 0; i < prefix; ++i)
    if (mergedSet.add(sItems[i]) != solver::ConstraintSet::AddResult::kAdded)
      return false;  // defensive: prefix items are distinct and non-trivial
  if (conjunct != nullptr &&
      mergedSet.add(conjunct) != solver::ConstraintSet::AddResult::kAdded)
    return false;  // the conjunct collided with a prefix item

  // --- Value merges, staged so a late decline leaves both states intact. ---
  std::size_t rewritten = 0;
  const expr::Ref zero64 = ctx_.constant(0, 64);
  Registers regs = s.regs();
  for (unsigned i = 0; i < kNumRegisters; ++i) {
    const expr::Ref vs = s.regs()[i] != nullptr ? s.regs()[i] : zero64;
    const expr::Ref va = a.regs()[i] != nullptr ? a.regs()[i] : zero64;
    if (vs == va) continue;
    if (vs->width() != va->width()) return false;
    regs[i] = ctx_.ite(guard, vs, va);
    ++rewritten;
  }

  struct StagedStore {
    std::uint64_t obj = 0;
    std::uint64_t index = 0;
    expr::Ref value = nullptr;
  };
  std::vector<StagedStore> stores;
  std::vector<std::pair<std::uint64_t, AddressSpace::Cells>> inserts;
  std::vector<std::uint64_t> objsTrueOnly;
  std::vector<std::uint64_t> objsFalseOnly;
  {
    auto is = s.space.objects().begin();
    auto ia = a.space.objects().begin();
    const auto sEnd = s.space.objects().end();
    const auto aEnd = a.space.objects().end();
    while (is != sEnd || ia != aEnd) {
      if (ia == aEnd || (is != sEnd && is->first < ia->first)) {
        // Survivor-only phantom: merged cells select zero on the false arm.
        objsTrueOnly.push_back(is->first);
        const AddressSpace::Cells& cells = *is->second;
        for (std::size_t idx = 0; idx < cells.size(); ++idx) {
          if (cells[idx] == zero64) continue;
          if (cells[idx]->width() != 64) return false;
          stores.push_back({is->first, idx, ctx_.ite(guard, cells[idx], zero64)});
          ++rewritten;
        }
        ++is;
      } else if (is == sEnd || ia->first < is->first) {
        // Absorbed-only phantom: inserted into the survivor as
        // ite(g, 0, cells).
        objsFalseOnly.push_back(ia->first);
        const AddressSpace::Cells& cells = *ia->second;
        AddressSpace::Cells merged(cells.size(), zero64);
        for (std::size_t idx = 0; idx < cells.size(); ++idx) {
          if (cells[idx] == zero64) continue;
          if (cells[idx]->width() != 64) return false;
          merged[idx] = ctx_.ite(guard, zero64, cells[idx]);
          ++rewritten;
        }
        inserts.emplace_back(ia->first, std::move(merged));
        ++ia;
      } else {
        const AddressSpace::Cells& cs = *is->second;
        const AddressSpace::Cells& ca = *ia->second;
        SDE_ASSERT(cs.size() == ca.size(), "compatible() missed a size clash");
        for (std::size_t idx = 0; idx < cs.size(); ++idx) {
          if (cs[idx] == ca[idx]) continue;
          if (cs[idx]->width() != ca[idx]->width()) return false;
          stores.push_back({is->first, idx, ctx_.ite(guard, cs[idx], ca[idx])});
          ++rewritten;
        }
        ++is;
        ++ia;
      }
    }
  }
  if (rewritten > limits_.maxDifferingCells) return false;

  // --- Decision tails. ------------------------------------------------------
  std::vector<DecisionRecord> sDecs(s.decisions.begin(), s.decisions.end());
  std::vector<DecisionRecord> aDecs(a.decisions.begin(), a.decisions.end());
  std::size_t decPrefix = 0;
  while (decPrefix < sDecs.size() && decPrefix < aDecs.size() &&
         sameDecision(sDecs[decPrefix], aDecs[decPrefix]))
    ++decPrefix;

  // --- Arm merge tables beyond the shared prefix. ---------------------------
  const std::vector<MergeGuard>& sGuards = s.cold().mergeGuards;
  const std::vector<MergeGuard>& aGuards = a.cold().mergeGuards;
  std::size_t tablePrefix = 0;
  while (tablePrefix < sGuards.size() && tablePrefix < aGuards.size() &&
         sGuards[tablePrefix].guard == aGuards[tablePrefix].guard)
    ++tablePrefix;

  // --- Commit. --------------------------------------------------------------
  MergeGuard mg;
  mg.guard = guard;
  mg.conjunct = conjunct;
  mg.ifTrue = std::move(ifTrue);
  mg.ifFalse = std::move(ifFalse);
  mg.decTrue.assign(sDecs.begin() + static_cast<std::ptrdiff_t>(decPrefix),
                    sDecs.end());
  mg.decFalse.assign(aDecs.begin() + static_cast<std::ptrdiff_t>(decPrefix),
                     aDecs.end());
  mg.decSplit = decPrefix;
  mg.objsTrueOnly = std::move(objsTrueOnly);
  mg.objsFalseOnly = std::move(objsFalseOnly);
  mg.subTrue.assign(
      sGuards.begin() + static_cast<std::ptrdiff_t>(tablePrefix),
      sGuards.end());
  mg.subFalse.assign(
      aGuards.begin() + static_cast<std::ptrdiff_t>(tablePrefix),
      aGuards.end());

  s.constraints = mergedSet;
  s.mutableRegs() = regs;
  for (auto& [id, cells] : inserts) s.space.insertObject(id, std::move(cells));
  for (const StagedStore& st : stores) s.space.store(st.obj, st.index, st.value);
  s.space.setNextObjectId(
      std::max(s.space.nextObjectId(), a.space.nextObjectId()));
  for (const DecisionRecord& rec : mg.decFalse) s.decisions.push_back(rec);
  std::vector<MergeGuard>& merged = s.mutableCold().mergeGuards;
  merged.resize(tablePrefix);
  merged.push_back(std::move(mg));
  // The dropped arm's clock can only be *older* (a dropped delivery sets
  // no clock) and is unobservable: the next dispatched event overwrites
  // it before any kNow/send can read it. Same for the fuel counter.
  s.clock = std::max(s.clock, a.clock);
  s.executedInstructions =
      std::max(s.executedInstructions, a.executedInstructions);
  a.mergedAway = true;
  return true;
}

std::pair<bool, bool> Merger::feasiblePolarities(
    const ExecutionState& state) const {
  SDE_ASSERT(!state.cold().mergeGuards.empty(),
             "feasiblePolarities without guards");
  const MergeGuard& g = state.cold().mergeGuards.back();
  const auto feasible = [&](bool v) {
    expr::Substitution subst(ctx_);
    subst.set(g.guard, ctx_.boolConst(v));
    for (const expr::Ref item : state.constraints.items()) {
      if (item == g.conjunct) continue;  // splice is arm-consistent
      if (subst.apply(item)->isFalse()) return false;
    }
    return true;
  };
  return {feasible(true), feasible(false)};
}

void Merger::applyLastGuard(ExecutionState& state, bool value) {
  SDE_ASSERT(!state.cold().mergeGuards.empty(),
             "applyLastGuard without guards");
  MergeGuard g = std::move(state.mutableCold().mergeGuards.back());
  state.mutableCold().mergeGuards.pop_back();

  expr::Substitution subst(ctx_);
  subst.set(g.guard, ctx_.boolConst(value));

  // Constraints: splice the arm suffix back in place of the conjunct;
  // substitute the guard constant through every later item. Items
  // folding to constant true vanish exactly like the interpreter's
  // constant-branch fast path never recorded them; duplicates dedup via
  // add(), matching the unmerged add sequence.
  solver::ConstraintSet rebuilt;
  for (const expr::Ref item : state.constraints.items()) {
    if (item == g.conjunct) {
      for (const expr::Ref armItem : value ? g.ifTrue : g.ifFalse) {
        const auto r = rebuilt.add(armItem);
        SDE_ASSERT(r != solver::ConstraintSet::AddResult::kTriviallyFalse,
                   "arm suffix item folded false");
      }
      continue;
    }
    const auto r = rebuilt.add(subst.apply(item));
    SDE_ASSERT(r != solver::ConstraintSet::AddResult::kTriviallyFalse,
               "applyLastGuard on an infeasible polarity");
  }
  state.constraints = std::move(rebuilt);

  for (expr::Ref& reg : state.mutableRegs())
    if (reg != nullptr) reg = subst.apply(reg);

  // Memory: drop the losing arm's phantoms first (their cells mention
  // the guard), then fold the guard out of every remaining cell.
  for (const std::uint64_t id : value ? g.objsFalseOnly : g.objsTrueOnly)
    state.space.removeObject(id);
  {
    std::vector<std::uint64_t> ids;
    ids.reserve(state.space.numObjects());
    for (const auto& [id, payload] : state.space.objects()) ids.push_back(id);
    for (const std::uint64_t id : ids) {
      const std::uint64_t size = state.space.objectSize(id);
      for (std::uint64_t idx = 0; idx < size; ++idx) {
        const expr::Ref cell = state.space.load(id, idx);
        const expr::Ref folded = subst.apply(cell);
        if (folded != cell) state.space.store(id, idx, folded);
      }
    }
  }

  // Decisions: remove the other arm's tail (a contiguous range whose
  // position was recorded at merge time; later appends land after it).
  const std::size_t cutBegin = g.decSplit + (value ? g.decTrue.size() : 0);
  const std::size_t cutLen = value ? g.decFalse.size() : g.decTrue.size();
  if (cutLen > 0) {
    support::PVector<DecisionRecord> pruned;
    std::size_t i = 0;
    for (const DecisionRecord& rec : state.decisions) {
      if (i < cutBegin || i >= cutBegin + cutLen) pruned.push_back(rec);
      ++i;
    }
    state.decisions = std::move(pruned);
  }

  // Restore the arm's own merge table.
  for (MergeGuard& sub : value ? g.subTrue : g.subFalse)
    state.mutableCold().mergeGuards.push_back(std::move(sub));
}

void MergeExpansion::addTable(const std::vector<MergeGuard>& table) {
  for (const MergeGuard& mg : table) {
    if (!guardIndex_.contains(mg.guard)) {
      guardIndex_.emplace(mg.guard, guards_.size());
      guards_.push_back(mg.guard);
    }
    if (mg.conjunct != nullptr) byConjunct_[mg.conjunct] = &mg;
    addTable(mg.subTrue);
    addTable(mg.subFalse);
  }
}

void MergeExpansion::addState(const ExecutionState& state) {
  addTable(state.cold().mergeGuards);
}

bool MergeExpansion::expandItem(expr::Ref item, expr::Substitution& subst,
                                const std::vector<bool>& assignment,
                                std::vector<expr::Ref>& out) const {
  if (const auto it = byConjunct_.find(item); it != byConjunct_.end()) {
    const MergeGuard& mg = *it->second;
    const bool v = assignment[guardIndex_.at(mg.guard)];
    // Splice the selected arm's suffix; its items may themselves be
    // merge conjuncts of the arm's own earlier merges, so recurse.
    for (const expr::Ref armItem : v ? mg.ifTrue : mg.ifFalse)
      if (!expandItem(armItem, subst, assignment, out)) return false;
    return true;
  }
  const expr::Ref folded = subst.apply(item);
  if (folded->isFalse()) return false;
  if (folded->isTrue()) return true;  // the unmerged fast path never added it
  out.push_back(folded);
  return true;
}

bool MergeExpansion::expandItems(const ExecutionState& state,
                                 const std::vector<bool>& assignment,
                                 std::vector<expr::Ref>& out) const {
  SDE_ASSERT(assignment.size() == guards_.size(),
             "expandItems needs a full guard assignment");
  expr::Substitution subst(ctx_);
  for (std::size_t i = 0; i < guards_.size(); ++i)
    subst.set(guards_[i], ctx_.boolConst(assignment[i]));
  for (const expr::Ref item : state.constraints.items())
    if (!expandItem(item, subst, assignment, out)) return false;
  return true;
}

}  // namespace sde::vm

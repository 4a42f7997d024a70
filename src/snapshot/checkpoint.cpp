#include "snapshot/checkpoint.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "expr/context.hpp"
#include "support/pvector.hpp"
#include "support/stats.hpp"
#include "sde/engine.hpp"
#include "snapshot/reader.hpp"
#include "snapshot/writer.hpp"

// This translation unit implements Engine::checkpoint / Engine::restore
// (member functions, for access to the run's private state) plus the
// reusable pieces declared in checkpoint.hpp. Section order in the file
// format mirrors restore-time data dependencies: expressions before
// anything holding a Ref, memory blobs before states, states before the
// scheduler and the mapper (both reference states by id). Counts come
// from the file, so the decoders size and reserve nothing from them: a
// corrupt count runs into the end of the stream (SnapshotError), not
// into an allocation it cannot make.

namespace sde::snapshot {

namespace {

constexpr std::uint32_t kNullRef = 0xFFFFFFFFu;

// Assignments are unordered maps; serialize entries sorted by variable
// id so identical runs write identical bytes.
void writeAssignment(Writer& out, const expr::Assignment& model) {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> entries;
  entries.reserve(model.size());
  for (const auto& [var, value] : model.entries())
    entries.emplace_back(var->id(), value);
  std::sort(entries.begin(), entries.end());
  out.u64(entries.size());
  for (const auto& [id, value] : entries) {
    out.u32(id);
    out.u64(value);
  }
}

expr::Assignment readAssignment(Reader& in, const expr::Context& ctx) {
  expr::Assignment model;
  const std::uint64_t count = in.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint32_t id = in.u32();
    const std::uint64_t value = in.u64();
    if (id >= ctx.numNodes())
      throw SnapshotError("model references an unknown expression node");
    const expr::Ref var = ctx.nodeAt(id);
    if (!var->isVariable())
      throw SnapshotError("model binds a non-variable expression node");
    model.set(var, value);
  }
  return model;
}

}  // namespace

void writeStats(Writer& out, const support::StatsRegistry& stats,
                std::string_view skip) {
  std::map<std::string, std::uint64_t> counters = stats.all();
  if (!skip.empty()) counters.erase(std::string(skip));
  out.u64(counters.size());
  for (const auto& [name, value] : counters) {
    out.str(name);
    out.u64(value);
  }
}

void readStats(Reader& in, support::StatsRegistry& stats) {
  stats.clear();
  const std::uint64_t count = in.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::string name = in.str();
    stats.set(support::StatsRegistry::id(name), in.u64());
  }
}

void writeRef(Writer& out, expr::Ref ref) {
  out.u32(ref == nullptr ? kNullRef : ref->id());
}

expr::Ref readRef(Reader& in, const expr::Context& ctx) {
  const std::uint32_t id = in.u32();
  if (id == kNullRef) return nullptr;
  if (id >= ctx.numNodes())
    throw SnapshotError("expression reference " + std::to_string(id) +
                        " is out of range (table holds " +
                        std::to_string(ctx.numNodes()) + " nodes)");
  return ctx.nodeAt(id);
}

void writeExprTable(Writer& out, const expr::Context& ctx) {
  out.u64(ctx.numNodes());
  for (std::size_t i = 0; i < ctx.numNodes(); ++i) {
    const expr::Ref node = ctx.nodeAt(i);
    out.u8(static_cast<std::uint8_t>(node->kind()));
    out.u8(static_cast<std::uint8_t>(node->width()));
    switch (node->kind()) {
      case expr::Kind::kConstant:
        out.u64(node->value());
        break;
      case expr::Kind::kVariable:
        // By name, not by name-table index: replaying the log in order
        // reassigns identical indices, and variables hash by name.
        out.str(node->name());
        break;
      default:
        out.u64(node->kind() == expr::Kind::kExtract ? node->extractOffset()
                                                     : 0);
        out.u8(static_cast<std::uint8_t>(node->numOperands()));
        for (const expr::Ref op : node->operands()) out.u32(op->id());
        break;
    }
  }
}

void readExprTable(Reader& in, expr::Context& ctx) {
  // A fresh context holds exactly the pre-interned false/true constants,
  // which every log also starts with (they re-intern onto themselves).
  SDE_ASSERT(ctx.numNodes() == 2,
             "readExprTable needs a freshly constructed context");
  const std::uint64_t count = in.u64();
  if (count < 2)
    throw SnapshotError("expression table too short (corrupt checkpoint)");
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto kind = static_cast<expr::Kind>(in.u8());
    if (kind > expr::Kind::kExtract)
      throw SnapshotError("unknown expression kind in checkpoint");
    const unsigned width = in.u8();
    if (width < 1 || width > 64)
      throw SnapshotError("expression width out of range in checkpoint");

    expr::Ref node = nullptr;
    if (kind == expr::Kind::kConstant) {
      node = ctx.restoreNode(kind, width, in.u64(), {}, {});
    } else if (kind == expr::Kind::kVariable) {
      const std::string name = in.str();
      node = ctx.restoreNode(kind, width, 0, name, {});
    } else {
      const std::uint64_t aux = in.u64();
      const unsigned numOps = in.u8();
      if (numOps < 1 || numOps > 3)
        throw SnapshotError("expression operand count out of range");
      std::array<expr::Ref, 3> ops{};
      for (unsigned op = 0; op < numOps; ++op) {
        const std::uint32_t opId = in.u32();
        if (opId >= i)
          throw SnapshotError(
              "expression table has a forward operand reference");
        ops[op] = ctx.nodeAt(opId);
      }
      node = ctx.restoreNode(kind, width, aux, {}, {ops.data(), numOps});
    }
    if (node->id() != i)
      throw SnapshotError(
          "expression table replay drifted (node " + std::to_string(i) +
          " re-interned as " + std::to_string(node->id()) + ")");
  }
}

CheckpointInfo inspectCheckpointHeader(std::istream& is) {
  Reader in(is);
  in.expectMagic(kCheckpointMagic, "not an SDE checkpoint file");
  CheckpointInfo info;
  info.version = in.u32();
  if (info.version != kCheckpointVersion)
    throw SnapshotError("unsupported checkpoint version " +
                        std::to_string(info.version) + " (this build reads " +
                        std::to_string(kCheckpointVersion) + ")");
  info.numNodes = in.u32();
  info.mapper = in.str();
  info.booted = in.b();
  info.numStates = in.u64();
  info.virtualNow = in.u64();
  info.eventsProcessed = in.u64();
  return info;
}

}  // namespace sde::snapshot

namespace sde {

namespace {

using snapshot::Reader;
using snapshot::readRef;
using snapshot::SnapshotError;
using snapshot::Writer;
using snapshot::writeRef;

// The stats counter excluded from checkpoints (see checkpoint.hpp).
constexpr std::string_view kPeakMemoryCounter = "engine.peak_memory_bytes";

// v3: shared-sequence chunk tables. Sealed PVector chunks and CoW event
// queue payloads serialize exactly like memory blobs — one table entry
// per distinct allocation, registered in first-encounter order (states
// in creation order, sequences in fixed member order), referenced by
// index from the states. Restoring through the table reproduces the
// structural-sharing classes, so forkCopyCost and simulatedMemoryBytes
// of a resumed run match the uninterrupted run byte-for-byte.
constexpr std::uint64_t kNullQueue = 0xFFFFFFFFFFFFFFFFull;

template <typename T>
struct ChunkTable {
  std::unordered_map<const void*, std::uint64_t> indexOf;
  std::vector<const std::vector<T>*> chunks;

  void registerSequence(const support::PVector<T>& seq) {
    if (seq.spine() == nullptr) return;
    for (const auto& chunk : *seq.spine())
      if (indexOf.try_emplace(chunk.get(), chunks.size()).second)
        chunks.push_back(chunk.get());
  }
};

struct QueueTable {
  std::unordered_map<const void*, std::uint64_t> indexOf;
  std::vector<const std::vector<vm::PendingEvent>*> queues;

  void registerQueue(const vm::EventQueue& queue) {
    const auto& payload = queue.events().raw();
    if (payload == nullptr) return;
    if (indexOf.try_emplace(payload.get(), queues.size()).second)
      queues.push_back(payload.get());
  }
};

struct SharedTables {
  ChunkTable<expr::Ref> refs;            // constraints + symbolics
  ChunkTable<vm::CommRecord> comm;
  ChunkTable<ExecutionState::DecisionRecord> decisions;
  QueueTable queues;

  void registerState(const ExecutionState& state) {
    refs.registerSequence(state.constraints.items());
    comm.registerSequence(state.commLog.records());
    decisions.registerSequence(state.decisions);
    refs.registerSequence(state.symbolics);
    queues.registerQueue(state.pendingEvents);
  }
};

void writeCommRecord(Writer& out, const vm::CommRecord& record) {
  out.b(record.sent);
  out.u32(record.peer);
  out.u64(record.time);
  out.u64(record.payloadHash);
  out.u64(record.packetId);
}

vm::CommRecord readCommRecord(Reader& in) {
  vm::CommRecord record;
  record.sent = in.b();
  record.peer = in.u32();
  record.time = in.u64();
  record.payloadHash = in.u64();
  record.packetId = in.u64();
  return record;
}

void writeDecisionRecord(Writer& out,
                         const ExecutionState::DecisionRecord& decision) {
  writeRef(out, decision.var);
  out.b(decision.failed);
}

ExecutionState::DecisionRecord readDecisionRecord(Reader& in,
                                                  const expr::Context& ctx) {
  ExecutionState::DecisionRecord decision;
  decision.var = readRef(in, ctx);
  decision.failed = in.b();
  return decision;
}

// v5: a state's merge side table, recursive (the arms' own sub-tables
// serialize inline). Depth is bounded by the merge nesting the run
// actually performed.
void writeMergeGuard(Writer& out, const vm::MergeGuard& guard) {
  writeRef(out, guard.guard);
  writeRef(out, guard.conjunct);
  const auto writeRefs = [&out](const std::vector<expr::Ref>& refs) {
    out.u64(refs.size());
    for (const expr::Ref& ref : refs) writeRef(out, ref);
  };
  writeRefs(guard.ifTrue);
  writeRefs(guard.ifFalse);
  const auto writeDecisions =
      [&out](const std::vector<vm::DecisionRecord>& decisions) {
        out.u64(decisions.size());
        for (const vm::DecisionRecord& d : decisions)
          writeDecisionRecord(out, d);
      };
  writeDecisions(guard.decTrue);
  writeDecisions(guard.decFalse);
  out.u64(guard.decSplit);
  const auto writeSub = [&out](const std::vector<vm::MergeGuard>& sub) {
    out.u64(sub.size());
    for (const vm::MergeGuard& g : sub) writeMergeGuard(out, g);
  };
  writeSub(guard.subTrue);
  writeSub(guard.subFalse);
  const auto writeObjs = [&out](const std::vector<std::uint64_t>& objs) {
    out.u64(objs.size());
    for (const std::uint64_t id : objs) out.u64(id);
  };
  writeObjs(guard.objsTrueOnly);
  writeObjs(guard.objsFalseOnly);
}

vm::MergeGuard readMergeGuard(Reader& in, const expr::Context& ctx) {
  vm::MergeGuard guard;
  guard.guard = readRef(in, ctx);
  guard.conjunct = readRef(in, ctx);
  const auto readRefs = [&in, &ctx](std::vector<expr::Ref>& refs) {
    const std::uint64_t count = in.u64();
    for (std::uint64_t i = 0; i < count; ++i) refs.push_back(readRef(in, ctx));
  };
  readRefs(guard.ifTrue);
  readRefs(guard.ifFalse);
  const auto readDecisions =
      [&in, &ctx](std::vector<vm::DecisionRecord>& decisions) {
        const std::uint64_t count = in.u64();
        for (std::uint64_t i = 0; i < count; ++i)
          decisions.push_back(readDecisionRecord(in, ctx));
      };
  readDecisions(guard.decTrue);
  readDecisions(guard.decFalse);
  guard.decSplit = in.u64();
  const auto readSub = [&in, &ctx](std::vector<vm::MergeGuard>& sub) {
    const std::uint64_t count = in.u64();
    for (std::uint64_t i = 0; i < count; ++i)
      sub.push_back(readMergeGuard(in, ctx));
  };
  readSub(guard.subTrue);
  readSub(guard.subFalse);
  const auto readObjs = [&in](std::vector<std::uint64_t>& objs) {
    const std::uint64_t count = in.u64();
    for (std::uint64_t i = 0; i < count; ++i) objs.push_back(in.u64());
  };
  readObjs(guard.objsTrueOnly);
  readObjs(guard.objsFalseOnly);
  return guard;
}

void writePendingEvent(Writer& out, const vm::PendingEvent& event) {
  out.u64(event.time);
  out.u8(static_cast<std::uint8_t>(event.kind));
  out.u64(event.a);
  out.u64(event.b);
  out.u64(event.payload.size());
  for (const expr::Ref& cell : event.payload) writeRef(out, cell);
  out.u64(event.seq);
}

vm::PendingEvent readPendingEvent(Reader& in, const expr::Context& ctx) {
  vm::PendingEvent event;
  event.time = in.u64();
  const std::uint8_t kind = in.u8();
  if (kind > static_cast<std::uint8_t>(vm::EventKind::kRecv))
    throw SnapshotError("unknown event kind in checkpoint");
  event.kind = static_cast<vm::EventKind>(kind);
  event.a = in.u64();
  event.b = in.u64();
  const std::uint64_t cells = in.u64();
  for (std::uint64_t c = 0; c < cells; ++c)
    event.payload.push_back(readRef(in, ctx));
  event.seq = in.u64();
  return event;
}

template <typename T, typename WriteElem>
void writeChunkTable(Writer& out, const ChunkTable<T>& table,
                     WriteElem writeElem) {
  out.u64(table.chunks.size());
  for (const std::vector<T>* chunk : table.chunks) {
    out.u64(chunk->size());
    for (const T& item : *chunk) writeElem(item);
  }
}

// Deserialized PVector<T>::Chunk blocks, indexed as the writer numbered
// them (spelled out so readSequence can deduce T).
template <typename T>
using ChunkRefs = std::vector<std::shared_ptr<const support::BilledVector<T>>>;

template <typename T, typename ReadElem>
ChunkRefs<T> readChunkTable(Reader& in, ReadElem readElem) {
  using Chunk = typename support::PVector<T>::Chunk;
  const std::uint64_t count = in.u64();
  ChunkRefs<T> chunks;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t size = in.u64();
    if (size != support::PVector<T>::chunkCapacity())
      throw SnapshotError("sequence chunk has the wrong size "
                          "(corrupt checkpoint)");
    std::vector<T> items;
    for (std::uint64_t c = 0; c < size; ++c) items.push_back(readElem());
    chunks.push_back(std::make_shared<const Chunk>(std::move(items)));
  }
  return chunks;
}

template <typename T, typename WriteElem>
void writeSequence(Writer& out, const support::PVector<T>& seq,
                   const ChunkTable<T>& table, WriteElem writeElem) {
  const auto* spine = seq.spine();
  out.u64(spine == nullptr ? 0 : spine->size());
  if (spine != nullptr)
    for (const auto& chunk : *spine) out.u64(table.indexOf.at(chunk.get()));
  out.u64(seq.tail().size());
  for (const T& item : seq.tail()) writeElem(item);
}

template <typename T, typename ReadElem>
support::PVector<T> readSequence(Reader& in, const ChunkRefs<T>& table,
                                 ReadElem readElem) {
  using Sequence = support::PVector<T>;
  const std::uint64_t numChunks = in.u64();
  std::shared_ptr<const typename Sequence::Spine> spine;
  if (numChunks != 0) {
    auto building = std::make_shared<typename Sequence::Spine>();
    for (std::uint64_t i = 0; i < numChunks; ++i) {
      const std::uint64_t index = in.u64();
      if (index >= table.size())
        throw SnapshotError("state references an unknown sequence chunk");
      building->push_back(table[index]);
    }
    spine = std::move(building);
  }
  const std::uint64_t tailSize = in.u64();
  if (tailSize >= Sequence::chunkCapacity())
    throw SnapshotError("sequence tail over-full (corrupt checkpoint)");
  std::vector<T> tail;
  for (std::uint64_t i = 0; i < tailSize; ++i) tail.push_back(readElem());
  Sequence seq;
  seq.restoreSnapshot(std::move(spine), std::move(tail));
  return seq;
}

void writeState(Writer& out, const ExecutionState& state,
                const std::unordered_map<const void*, std::uint64_t>& blobOf,
                const SharedTables& tables) {
  const vm::ColdFields& cold = state.cold();
  out.u64(state.id());
  out.u32(state.node());
  out.u8(static_cast<std::uint8_t>(state.status));
  out.str(cold.failureMessage);
  out.u64(state.clock);
  out.u64(state.pc);

  out.u64(state.callStack.size());
  for (const std::size_t frame : state.callStack) out.u64(frame);

  for (const expr::Ref reg : state.regs()) writeRef(out, reg);

  out.u64(state.space.nextObjectId());
  out.u64(state.space.objects().size());
  for (const auto& [objectId, cells] : state.space.objects()) {
    out.u64(objectId);
    out.u64(blobOf.at(cells.get()));
  }

  const auto writeRefElem = [&out](const expr::Ref& ref) {
    writeRef(out, ref);
  };
  writeSequence(out, state.constraints.items(), tables.refs, writeRefElem);

  // Event queue: a reference into the queue blob table (or the null
  // sentinel for an empty queue) — its CoW sharing class round-trips
  // like a memory blob's.
  const auto& queuePayload = state.pendingEvents.events().raw();
  out.u64(queuePayload == nullptr ? kNullQueue
                                  : tables.queues.indexOf.at(
                                        queuePayload.get()));
  out.u64(state.nextEventSeq);

  out.u64(cold.activeTimers.size());
  for (const auto& [timer, seq] : cold.activeTimers) {
    out.u32(timer);
    out.u64(seq);
  }

  writeSequence(out, state.commLog.records(), tables.comm,
                [&out](const vm::CommRecord& record) {
                  writeCommRecord(out, record);
                });

  writeSequence(out, state.decisions, tables.decisions,
                [&out](const ExecutionState::DecisionRecord& decision) {
                  writeDecisionRecord(out, decision);
                });

  writeSequence(out, state.symbolics, tables.refs, writeRefElem);

  out.u64(cold.symbolicCounters.size());
  for (const auto& [label, next] : cold.symbolicCounters) {
    out.str(label);
    out.u32(next);
  }

  out.u64(state.executedInstructions);

  // v5: the merge side tables. Merge tokens and the mergedAway flag are
  // transient (checkpoints fire between events, when both are vacuous).
  out.u64(cold.mergeGuards.size());
  for (const vm::MergeGuard& guard : cold.mergeGuards)
    writeMergeGuard(out, guard);
}

// Reader-side counterpart of SharedTables: the deserialized shared
// blocks, indexed as the writer numbered them.
struct RestoredTables {
  ChunkRefs<expr::Ref> refs;
  ChunkRefs<vm::CommRecord> comm;
  ChunkRefs<ExecutionState::DecisionRecord> decisions;
  std::vector<std::shared_ptr<vm::EventQueue::Events::Block>> queues;
};

void readStateBody(
    Reader& in, const expr::Context& ctx, ExecutionState& state,
    const std::vector<std::shared_ptr<vm::AddressSpace::Payload>>& blobs,
    const RestoredTables& tables) {
  const std::uint8_t status = in.u8();
  if (status > static_cast<std::uint8_t>(vm::StateStatus::kKilled))
    throw SnapshotError("unknown state status in checkpoint");
  state.status = static_cast<vm::StateStatus>(status);
  // The cold fields get a block of their own (a restore does not rebuild
  // the sharing between states' blocks).
  vm::ColdFields cold;
  cold.failureMessage = in.str();
  state.clock = in.u64();
  state.pc = in.u64();

  const std::uint64_t frames = in.u64();
  for (std::uint64_t i = 0; i < frames; ++i)
    state.callStack.push_back(static_cast<std::size_t>(in.u64()));

  // A state whose registers are all null gets no register block, as
  // before it first wrote one.
  vm::Registers regs;
  for (expr::Ref& reg : regs) reg = readRef(in, ctx);
  if (std::any_of(regs.begin(), regs.end(),
                  [](expr::Ref reg) { return reg != nullptr; }))
    state.mutableRegs() = regs;

  // The object table: ids strictly ascending (so none repeats) and
  // each below the allocator, which would otherwise hand it out again.
  const std::uint64_t nextObjectId = in.u64();
  const std::uint64_t numObjects = in.u64();
  vm::AddressSpace::Objects objects;
  for (std::uint64_t i = 0; i < numObjects; ++i) {
    const std::uint64_t objectId = in.u64();
    const std::uint64_t blob = in.u64();
    if (!objects.empty() && objectId <= objects.back().first)
      throw SnapshotError("state object ids repeat or are out of order");
    if (objectId >= nextObjectId)
      throw SnapshotError("state object id at or above its next object id");
    if (blob >= blobs.size())
      throw SnapshotError("state references an unknown memory blob");
    objects.emplace_back(objectId, blobs[blob]);
  }
  state.space.restoreSnapshot(std::move(objects), nextObjectId);

  const auto readRefElem = [&in, &ctx]() { return readRef(in, ctx); };
  state.constraints.restoreSnapshot(
      readSequence(in, tables.refs, readRefElem));

  const std::uint64_t queueIndex = in.u64();
  if (queueIndex != kNullQueue) {
    if (queueIndex >= tables.queues.size())
      throw SnapshotError("state references an unknown event queue blob");
    vm::EventQueue::Events events;
    events.restoreSnapshot(tables.queues[queueIndex]);
    state.pendingEvents.restoreSnapshot(std::move(events));
  }
  state.nextEventSeq = in.u64();

  const std::uint64_t timers = in.u64();
  for (std::uint64_t i = 0; i < timers; ++i) {
    const std::uint32_t timer = in.u32();
    cold.activeTimers[timer] = in.u64();
  }

  state.commLog.restoreSnapshot(
      readSequence(in, tables.comm, [&in]() { return readCommRecord(in); }));

  state.decisions = readSequence(in, tables.decisions, [&in, &ctx]() {
    return readDecisionRecord(in, ctx);
  });

  state.symbolics = readSequence(in, tables.refs, readRefElem);

  const std::uint64_t counters = in.u64();
  for (std::uint64_t i = 0; i < counters; ++i) {
    const std::string label = in.str();
    cold.symbolicCounters[label] = in.u32();
  }

  state.executedInstructions = in.u64();

  const std::uint64_t guards = in.u64();
  for (std::uint64_t i = 0; i < guards; ++i)
    cold.mergeGuards.push_back(readMergeGuard(in, ctx));
  state.mutableCold() = std::move(cold);
}

void writeQueryCache(Writer& out, const solver::QueryCache& cache) {
  // The result map is unordered; serialize sorted by key (node-id
  // lexicographic — keys are distinct sets, so this is a total order)
  // for deterministic bytes.
  std::vector<const std::pair<const solver::QueryKey, solver::EnumResult>*>
      entries;
  entries.reserve(cache.results().size());
  for (const auto& entry : cache.results()) entries.push_back(&entry);
  std::sort(entries.begin(), entries.end(), [](const auto* a, const auto* b) {
    return std::lexicographical_compare(
        a->first.begin(), a->first.end(), b->first.begin(), b->first.end(),
        [](expr::Ref x, expr::Ref y) { return x->id() < y->id(); });
  });

  out.u64(entries.size());
  for (const auto* entry : entries) {
    out.u64(entry->first.size());
    for (const expr::Ref c : entry->first) writeRef(out, c);
    out.u8(static_cast<std::uint8_t>(entry->second.status));
    snapshot::writeAssignment(out, entry->second.model);
  }

  out.u64(cache.recentModels().size());
  for (const expr::Assignment& model : cache.recentModels())
    snapshot::writeAssignment(out, model);

  // v4: the subsumption layer's long-lived model pool. Ordered state —
  // pool reuse returns the first satisfying model, so a resumed run
  // must see the identical deque. (The UNSAT-subset index is derived
  // from the result entries and rebuilt on restore.)
  out.u64(cache.poolModels().size());
  for (const expr::Assignment& model : cache.poolModels())
    snapshot::writeAssignment(out, model);
}

void readQueryCache(Reader& in, const expr::Context& ctx,
                    solver::QueryCache& cache) {
  const std::uint64_t numResults = in.u64();
  std::vector<std::pair<solver::QueryKey, solver::EnumResult>> results;
  for (std::uint64_t i = 0; i < numResults; ++i) {
    solver::QueryKey key;
    const std::uint64_t terms = in.u64();
    for (std::uint64_t t = 0; t < terms; ++t) key.push_back(readRef(in, ctx));
    solver::EnumResult result;
    const std::uint8_t status = in.u8();
    if (status > static_cast<std::uint8_t>(solver::EnumStatus::kExhausted))
      throw SnapshotError("unknown solver status in checkpoint");
    result.status = static_cast<solver::EnumStatus>(status);
    result.model = snapshot::readAssignment(in, ctx);
    results.emplace_back(std::move(key), std::move(result));
  }

  std::deque<expr::Assignment> recentModels;
  const std::uint64_t numRecent = in.u64();
  for (std::uint64_t i = 0; i < numRecent; ++i)
    recentModels.push_back(snapshot::readAssignment(in, ctx));

  std::deque<expr::Assignment> poolModels;
  const std::uint64_t numPool = in.u64();
  for (std::uint64_t i = 0; i < numPool; ++i)
    poolModels.push_back(snapshot::readAssignment(in, ctx));

  cache.restoreSnapshot(std::move(results), std::move(recentModels),
                        std::move(poolModels));
}

}  // namespace

void Engine::checkpoint(std::ostream& os) const {
  obs::ScopedPhase scope(profiler_, obs::Phase::kCheckpoint);
  // The suspend record is written *before* the trace-seq scalar below,
  // so the serialized nextSeq points one past it and a resumed run's
  // kCheckpointRestore continues the numbering without a gap.
  if (trace_ != nullptr) {
    trace_->setAmbientTime(virtualNow_);
    obs::TraceEvent event;
    event.kind = obs::TraceEventKind::kCheckpointSuspend;
    event.a = eventsProcessed_;
    trace_->emit(event);
  }

  Writer out(os);
  out.magic(snapshot::kCheckpointMagic);
  out.u32(snapshot::kCheckpointVersion);

  // Run summary (fixed prefix; see inspectCheckpointHeader).
  out.u32(plan_.topology().numNodes());
  out.str(mapper_->name());
  out.b(booted_);
  out.u64(states_.size());
  out.u64(virtualNow_);
  out.u64(eventsProcessed_);

  snapshot::writeExprTable(out, ctx_);

  // Memory payload blob table: one entry per distinct Cells allocation,
  // in first-encounter order (states in creation order, objects in id
  // order). States then reference blobs by index, which preserves the
  // copy-on-write sharing classes — and with them the byte-exact
  // simulated-memory accounting — across the round trip.
  std::unordered_map<const void*, std::uint64_t> blobOf;
  std::vector<const vm::AddressSpace::Cells*> blobs;
  for (const auto& state : states_) {
    for (const auto& [objectId, cells] : state->space.objects()) {
      if (blobOf.try_emplace(cells.get(), blobs.size()).second)
        blobs.push_back(cells.get());
    }
  }
  out.u64(blobs.size());
  for (const vm::AddressSpace::Cells* cells : blobs) {
    out.u64(cells->size());
    for (const expr::Ref& cell : *cells) writeRef(out, cell);
  }

  // v3: shared-sequence chunk tables (same pointer-identity discipline
  // as the memory blobs, extended to the persistent state histories and
  // the CoW event queues).
  SharedTables tables;
  for (const auto& state : states_) tables.registerState(*state);
  writeChunkTable(out, tables.refs,
                  [&out](const expr::Ref& ref) { writeRef(out, ref); });
  writeChunkTable(out, tables.comm, [&out](const vm::CommRecord& record) {
    writeCommRecord(out, record);
  });
  writeChunkTable(out, tables.decisions,
                  [&out](const ExecutionState::DecisionRecord& decision) {
                    writeDecisionRecord(out, decision);
                  });
  out.u64(tables.queues.queues.size());
  for (const std::vector<vm::PendingEvent>* queue : tables.queues.queues) {
    out.u64(queue->size());
    for (const vm::PendingEvent& event : *queue) writePendingEvent(out, event);
  }

  // Engine scalars.
  out.u64(nextStateId_);
  out.u64(nextPacketId_);
  out.u64(nextMergeGuard_);  // v5
  out.f64(wallSecondsAccumulated_);
  // Trace continuity (v2): where the suspended run's event numbering
  // stops. 0 when the run was not traced — a traced resume of an
  // untraced run simply starts a fresh stream.
  out.u64(trace_ != nullptr ? trace_->nextSeq() : 0);

  // Decision filter (sorted: the member is an unordered map).
  std::vector<std::pair<std::string, bool>> filter(decisionFilter_.begin(),
                                                   decisionFilter_.end());
  std::sort(filter.begin(), filter.end());
  out.u64(filter.size());
  for (const auto& [name, value] : filter) {
    out.str(name);
    out.b(value);
  }

  // Stats registries (all three feed the fingerprint digest). The
  // peak-memory counter is deliberately dropped — checkpoint.hpp
  // explains why.
  snapshot::writeStats(out, stats_, kPeakMemoryCounter);
  snapshot::writeStats(out, interp_.stats());
  snapshot::writeStats(out, solver_.stats());

  writeQueryCache(out, solver_.cache());

  out.u64(states_.size());
  for (const auto& state : states_) writeState(out, *state, blobOf, tables);

  // Scheduler heap (ascending pop order) and its stale-drop counter.
  out.u64(scheduler_.staleDrops());
  const std::vector<Scheduler::Entry> entries = scheduler_.snapshotEntries();
  out.u64(entries.size());
  for (const Scheduler::Entry& entry : entries) {
    out.u64(entry.time);
    out.u32(entry.node);
    out.u8(entry.kind);
    out.u64(entry.seq);
    out.u64(entry.state);
  }

  // v5: the loop-summary detector (per state+timer observation streaks).
  // std::map iterates in key order — deterministic bytes for free.
  out.u64(loopDetector_.size());
  for (const auto& [key, entry] : loopDetector_) {
    out.u64(key.first);
    out.u32(key.second);
    out.u64(entry.signature);
    out.u64(entry.period);
    out.u64(entry.instructions);
    out.u32(entry.streak);
    out.b(entry.armed);
  }

  mapper_->snapshotSave(out);

  out.magic(snapshot::kCheckpointTrailer);
  SDE_ASSERT(out.ok(), "checkpoint stream write failed");
}

void Engine::restore(std::istream& is) {
  obs::ScopedPhase scope(profiler_, obs::Phase::kCheckpoint);
  // The restored blocks bill this engine's ledger, as the originals did.
  const support::MemoryLedger::Scope ledgerScope(ledger_.get());
  SDE_ASSERT(!booted_ && states_.empty() && eventsProcessed_ == 0,
             "restore needs a freshly constructed engine");
  Reader in(is);
  in.expectMagic(snapshot::kCheckpointMagic, "not an SDE checkpoint file");
  const std::uint32_t version = in.u32();
  if (version != snapshot::kCheckpointVersion)
    throw SnapshotError("unsupported checkpoint version " +
                        std::to_string(version) + " (this build reads " +
                        std::to_string(snapshot::kCheckpointVersion) + ")");

  const std::uint32_t numNodes = in.u32();
  if (numNodes != plan_.topology().numNodes())
    throw SnapshotError(
        "checkpoint is for a " + std::to_string(numNodes) +
        "-node network, this engine has " +
        std::to_string(plan_.topology().numNodes()) + " nodes");
  const std::string mapperName = in.str();
  if (mapperName != mapper_->name())
    throw SnapshotError("checkpoint was written under mapper " + mapperName +
                        ", this engine runs " + std::string(mapper_->name()));
  const bool booted = in.b();
  const std::uint64_t numStatesHeader = in.u64();
  virtualNow_ = in.u64();
  eventsProcessed_ = in.u64();

  snapshot::readExprTable(in, ctx_);

  std::vector<std::shared_ptr<vm::AddressSpace::Payload>> blobs;
  const std::uint64_t numBlobs = in.u64();
  for (std::uint64_t i = 0; i < numBlobs; ++i) {
    vm::AddressSpace::Cells cells;
    const std::uint64_t size = in.u64();
    for (std::uint64_t c = 0; c < size; ++c) cells.push_back(readRef(in, ctx_));
    blobs.push_back(
        std::make_shared<vm::AddressSpace::Payload>(std::move(cells)));
  }

  RestoredTables tables;
  tables.refs = readChunkTable<expr::Ref>(
      in, [&in, this]() { return readRef(in, ctx_); });
  tables.comm = readChunkTable<vm::CommRecord>(
      in, [&in]() { return readCommRecord(in); });
  tables.decisions = readChunkTable<ExecutionState::DecisionRecord>(
      in, [&in, this]() { return readDecisionRecord(in, ctx_); });
  const std::uint64_t numQueues = in.u64();
  for (std::uint64_t i = 0; i < numQueues; ++i) {
    std::vector<vm::PendingEvent> queue;
    const std::uint64_t size = in.u64();
    for (std::uint64_t e = 0; e < size; ++e)
      queue.push_back(readPendingEvent(in, ctx_));
    tables.queues.push_back(
        std::make_shared<vm::EventQueue::Events::Block>(std::move(queue)));
  }

  nextStateId_ = in.u64();
  nextPacketId_ = in.u64();
  nextMergeGuard_ = in.u64();  // v5
  wallSecondsAccumulated_ = in.f64();
  const std::uint64_t traceSeq = in.u64();

  decisionFilter_.clear();
  const std::uint64_t filterSize = in.u64();
  for (std::uint64_t i = 0; i < filterSize; ++i) {
    const std::string name = in.str();
    decisionFilter_[name] = in.b();
  }

  snapshot::readStats(in, stats_);
  snapshot::readStats(in, interp_.stats());
  snapshot::readStats(in, solver_.stats());
  // boot and cloneInternal are the only places that allocate state ids,
  // and each counts what it allocates, so the allocator equals those
  // counts. One that does not is corrupt: the next fork would size the
  // dense per-state tables from it.
  const std::uint64_t allocated =
      stats_.get(support::statId<"engine.initial_states">()) +
      stats_.get(support::statId<"engine.forks_total">());
  if (nextStateId_ != allocated)
    throw SnapshotError("checkpoint state-id allocator " +
                        std::to_string(nextStateId_) + " disagrees with the " +
                        std::to_string(allocated) + " states it counts");

  readQueryCache(in, ctx_, solver_.cache());

  // Programs come from the plan, not the checkpoint: the caller
  // guarantees an identically configured engine.
  std::unordered_map<NodeId, const vm::Program*> programOf;
  for (const os::NodeConfig& node : plan_.nodes())
    programOf[node.id] = node.program.get();

  const std::uint64_t numStates = in.u64();
  if (numStates != numStatesHeader)
    throw SnapshotError("checkpoint header/body state counts disagree");
  for (std::uint64_t i = 0; i < numStates; ++i) {
    const StateId id = in.u64();
    // Ids index the engine's and the mapper's dense per-state tables
    // (byId_, notePriceChange, sde/state_table.hpp).
    if (id >= nextStateId_)
      throw SnapshotError("checkpoint state id " + std::to_string(id) +
                          " was never allocated");
    const NodeId node = in.u32();
    const auto programIt = programOf.find(node);
    if (programIt == programOf.end())
      throw SnapshotError("checkpoint state lives on node " +
                          std::to_string(node) +
                          ", which this plan does not define");
    auto state =
        std::make_unique<ExecutionState>(id, node, *programIt->second);
    readStateBody(in, ctx_, *state, blobs, tables);
    ExecutionState*& slot = byId_.slot(id);
    if (slot != nullptr)
      throw SnapshotError("checkpoint contains duplicate state ids");
    slot = state.get();
    notePriceChange(*state);
    states_.push_back(std::move(state));
  }
  booted_ = booted;

  const std::uint64_t staleDrops = in.u64();
  const std::uint64_t numEntries = in.u64();
  std::vector<Scheduler::Entry> entries;
  for (std::uint64_t i = 0; i < numEntries; ++i) {
    Scheduler::Entry entry;
    entry.time = in.u64();
    entry.node = in.u32();
    entry.kind = in.u8();
    entry.seq = in.u64();
    entry.state = in.u64();
    entries.push_back(entry);
  }
  scheduler_.restoreSnapshot(entries, staleDrops);

  const std::uint64_t loopEntries = in.u64();
  for (std::uint64_t i = 0; i < loopEntries; ++i) {
    const StateId stateId = in.u64();
    const std::uint32_t timerId = in.u32();
    LoopEntry entry;
    entry.signature = in.u64();
    entry.period = in.u64();
    entry.instructions = in.u64();
    entry.streak = in.u32();
    entry.armed = in.b();
    loopDetector_[{stateId, timerId}] = entry;
  }

  mapper_->snapshotLoad(in, [this](StateId id) { return byId_[id]; });

  in.expectMagic(snapshot::kCheckpointTrailer,
                 "checkpoint trailer missing (truncated file?)");

  // Trace continuity: a sink installed before restore() picks up the
  // suspended run's numbering and marks the resumption. Installed
  // after? The stream starts at seq 0 and the validator treats it as a
  // fresh (non-resumed) stream — consistent either way.
  if (trace_ != nullptr) {
    trace_->setNextSeq(traceSeq);
    trace_->setAmbientTime(virtualNow_);
    obs::TraceEvent event;
    event.kind = obs::TraceEventKind::kCheckpointRestore;
    event.a = eventsProcessed_;
    trace_->emit(event);
  }
}

}  // namespace sde

#include "obs/summary.hpp"

#include <algorithm>
#include <cstddef>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

namespace sde::obs {

namespace {

constexpr std::size_t kMaxReportedViolations = 100;

bool validForkCause(std::uint8_t detail) {
  return detail >= static_cast<std::uint8_t>(ForkCause::kBranch) &&
         detail <= static_cast<std::uint8_t>(ForkCause::kMapping);
}

bool validGroupForkDetail(std::uint8_t detail) {
  return detail >= static_cast<std::uint8_t>(GroupForkDetail::kScenarioFork) &&
         detail <= static_cast<std::uint8_t>(GroupForkDetail::kVirtualSplit);
}

bool validSolverLayerDetail(std::uint8_t detail) {
  return detail >= static_cast<std::uint8_t>(SolverLayerDetail::kConstant) &&
         detail <= static_cast<std::uint8_t>(SolverLayerDetail::kSharedCache);
}

std::string at(std::size_t index, const TraceEvent& event) {
  return "event #" + std::to_string(index) + " (" +
         std::string(traceEventKindName(event.kind)) + ", stream " +
         std::to_string(event.stream) + ", seq " + std::to_string(event.seq) +
         ")";
}

}  // namespace

TraceSummary summarizeTrace(const TraceFile& trace) {
  TraceSummary summary;
  // Keyed by packet id so a transmission's fork bill aggregates even if
  // a mapper reports it in several invocations (COW conflict rounds).
  std::unordered_map<std::uint64_t, std::size_t> txIndex;
  const auto transmission =
      [&](const TraceEvent& event) -> TransmissionForks& {
    const auto [it, inserted] = txIndex.try_emplace(
        event.packetId, summary.forkingTransmissions.size());
    if (inserted) {
      TransmissionForks tx;
      tx.packetId = event.packetId;
      tx.src = event.node;
      tx.dst = event.peer;
      tx.time = event.time;
      summary.forkingTransmissions.push_back(tx);
    }
    return summary.forkingTransmissions[it->second];
  };
  if (!trace.events.empty()) {
    summary.firstTime = trace.events.front().time;
    summary.lastTime = trace.events.back().time;
  }

  for (const TraceEvent& event : trace.events) {
    const auto kindIndex = static_cast<std::size_t>(event.kind);
    if (kindIndex < summary.countsByKind.size())
      ++summary.countsByKind[kindIndex];
    ++summary.eventsByStream[event.stream];

    switch (event.kind) {
      case TraceEventKind::kStateFork:
        ++summary.forksByNode[event.node];
        switch (static_cast<ForkCause>(event.detail)) {
          case ForkCause::kBranch: ++summary.forksBranch; break;
          case ForkCause::kFailure: ++summary.forksFailure; break;
          case ForkCause::kMapping: ++summary.forksMapping; break;
        }
        break;
      case TraceEventKind::kPacketTransmit:
        (void)transmission(event);
        break;
      case TraceEventKind::kMappingInvoked: {
        summary.targetsForked += event.a;
        summary.bystandersForked += event.b;
        TransmissionForks& tx = transmission(event);
        tx.targetsForked += event.a;
        tx.bystandersForked += event.b;
        break;
      }
      case TraceEventKind::kGroupFork:
        ++summary.groupForks;
        if (static_cast<GroupForkDetail>(event.detail) ==
            GroupForkDetail::kScenarioFork)
          summary.scenarioCopies += event.b;
        break;
      case TraceEventKind::kStateMerge:
        summary.mergeRemovedStates += event.a;
        ++summary.mergesByNode[event.node];
        break;
      case TraceEventKind::kSolverQuery:
        ++summary.solverQueries;
        switch (static_cast<SolverLayerDetail>(event.detail)) {
          case SolverLayerDetail::kConstant: ++summary.solverConstant; break;
          case SolverLayerDetail::kCacheHit: ++summary.solverCacheHits; break;
          case SolverLayerDetail::kModelReuse:
            ++summary.solverModelReuse;
            break;
          case SolverLayerDetail::kInterval:
            ++summary.solverIntervalRefuted;
            break;
          case SolverLayerDetail::kEnumerated:
            ++summary.solverEnumerated;
            break;
          case SolverLayerDetail::kSubsumption:
            ++summary.solverSubsumption;
            break;
          case SolverLayerDetail::kSharedCache:
            ++summary.solverSharedCache;
            break;
        }
        break;
      default:
        break;
    }
  }

  // Only transmissions that actually charged forks rank; heaviest
  // first, equal bills by earlier packet id (deterministic).
  std::erase_if(summary.forkingTransmissions,
                [](const TransmissionForks& tx) { return tx.total() == 0; });
  std::sort(summary.forkingTransmissions.begin(),
            summary.forkingTransmissions.end(),
            [](const TransmissionForks& a, const TransmissionForks& b) {
              if (a.total() != b.total()) return a.total() > b.total();
              return a.packetId < b.packetId;
            });
  return summary;
}

std::vector<std::string> validateTrace(const TraceFile& trace) {
  std::vector<std::string> violations;
  const auto flag = [&](std::string message) {
    if (violations.size() < kMaxReportedViolations)
      violations.push_back(std::move(message));
  };

  // Per-stream bookkeeping. Lineage is only enforceable for streams we
  // saw from the beginning (first seq == 0); a trace resumed from a
  // checkpoint starts mid-history and its pre-existing states are
  // legitimately unknown.
  struct StreamState {
    bool seen = false;
    bool fromStart = false;
    std::uint64_t nextSeq = 0;
    std::unordered_set<std::uint64_t> liveStates;
  };
  std::map<std::uint32_t, StreamState> streams;

  std::uint64_t lastTime = 0;
  std::uint64_t mappingForks = 0;
  std::uint64_t claimedTargets = 0;
  std::uint64_t claimedBystanders = 0;
  std::uint64_t claimedScenarioCopies = 0;
  bool allStreamsFromStart = true;

  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const TraceEvent& event = trace.events[i];

    if (i > 0 && event.time < lastTime)
      flag(at(i, event) + ": virtual time " + std::to_string(event.time) +
           " regresses below " + std::to_string(lastTime));
    lastTime = std::max(lastTime, event.time);

    StreamState& stream = streams[event.stream];
    if (!stream.seen) {
      stream.seen = true;
      stream.fromStart = event.seq == 0;
      stream.nextSeq = event.seq + 1;
      if (!stream.fromStart) allStreamsFromStart = false;
    } else {
      if (event.seq != stream.nextSeq)
        flag(at(i, event) + ": sequence gap (expected seq " +
             std::to_string(stream.nextSeq) + ")");
      stream.nextSeq = event.seq + 1;
    }

    if (trace.header.numNodes > 0) {
      if (event.node >= trace.header.numNodes)
        flag(at(i, event) + ": node " + std::to_string(event.node) +
             " outside the " + std::to_string(trace.header.numNodes) +
             "-node network");
      if (event.peer >= trace.header.numNodes)
        flag(at(i, event) + ": peer " + std::to_string(event.peer) +
             " outside the " + std::to_string(trace.header.numNodes) +
             "-node network");
    }

    switch (event.kind) {
      case TraceEventKind::kStateCreate:
        if (stream.fromStart &&
            !stream.liveStates.insert(event.stateId).second)
          flag(at(i, event) + ": state " + std::to_string(event.stateId) +
               " created twice");
        break;
      case TraceEventKind::kStateFork:
        if (!validForkCause(event.detail))
          flag(at(i, event) + ": invalid fork cause " +
               std::to_string(event.detail));
        else if (static_cast<ForkCause>(event.detail) == ForkCause::kMapping)
          ++mappingForks;
        if (stream.fromStart) {
          if (stream.liveStates.count(event.parentStateId) == 0)
            flag(at(i, event) + ": fork parent " +
                 std::to_string(event.parentStateId) + " was never created");
          if (!stream.liveStates.insert(event.stateId).second)
            flag(at(i, event) + ": fork child " +
                 std::to_string(event.stateId) + " already exists");
        }
        break;
      case TraceEventKind::kStateTerminate:
        if (stream.fromStart && stream.liveStates.erase(event.stateId) == 0)
          flag(at(i, event) + ": terminating unknown state " +
               std::to_string(event.stateId));
        break;
      case TraceEventKind::kPacketTransmit:
      case TraceEventKind::kPacketDeliver:
        if (stream.fromStart &&
            stream.liveStates.count(event.stateId) == 0)
          flag(at(i, event) + ": packet event on unknown state " +
               std::to_string(event.stateId));
        break;
      case TraceEventKind::kMappingInvoked:
        claimedTargets += event.a;
        claimedBystanders += event.b;
        break;
      case TraceEventKind::kGroupFork:
        if (!validGroupForkDetail(event.detail))
          flag(at(i, event) + ": invalid group-fork detail " +
               std::to_string(event.detail));
        else if (static_cast<GroupForkDetail>(event.detail) ==
                 GroupForkDetail::kScenarioFork)
          claimedScenarioCopies += event.b;
        break;
      case TraceEventKind::kSolverQuery:
        if (!validSolverLayerDetail(event.detail))
          flag(at(i, event) + ": invalid solver-query detail " +
               std::to_string(event.detail));
        break;
      case TraceEventKind::kStateMerge:
        // stateId survives, parentStateId was absorbed into it; the
        // absorbed state is reaped without a kStateTerminate of its own.
        // Mapper-repair casualties counted in `a` beyond the absorbed
        // state carry no ids, so only the named pair is checked.
        if (event.a < 1)
          flag(at(i, event) + ": merge removed " + std::to_string(event.a) +
               " states (must remove at least the absorbed one)");
        if (event.stateId == event.parentStateId)
          flag(at(i, event) + ": state " + std::to_string(event.stateId) +
               " merged into itself");
        if (stream.fromStart) {
          if (stream.liveStates.count(event.stateId) == 0)
            flag(at(i, event) + ": merge survivor " +
                 std::to_string(event.stateId) + " was never created");
          if (stream.liveStates.erase(event.parentStateId) == 0)
            flag(at(i, event) + ": merge absorbed unknown state " +
                 std::to_string(event.parentStateId));
        }
        break;
      case TraceEventKind::kLoopSummary:
        if (stream.fromStart && stream.liveStates.count(event.stateId) == 0)
          flag(at(i, event) + ": loop summary on unknown state " +
               std::to_string(event.stateId));
        break;
      default:
        break;
    }
  }

  // The fork-attribution ledger: every mapping-caused state fork must
  // be claimed by exactly one mapping-layer record (a kMappingInvoked
  // target/bystander or a COB scenario materialisation), and vice
  // versa. Only meaningful when no stream resumed mid-history.
  if (allStreamsFromStart) {
    const std::uint64_t claimed =
        claimedTargets + claimedBystanders + claimedScenarioCopies;
    if (mappingForks != claimed)
      flag("fork-attribution mismatch: " + std::to_string(mappingForks) +
           " mapping-caused state forks vs " + std::to_string(claimed) +
           " claimed by the mapping layer (" + std::to_string(claimedTargets) +
           " targets + " + std::to_string(claimedBystanders) +
           " bystanders + " + std::to_string(claimedScenarioCopies) +
           " scenario copies)");
  }
  return violations;
}

}  // namespace sde::obs

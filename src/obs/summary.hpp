// Trace analysis: structural validation and the aggregate summary the
// `sde_trace` CLI prints (and tests compare against engine counters).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace_io.hpp"

namespace sde::obs {

// One transmission's fork bill: how many states (targets + bystanders)
// the mapping algorithm forked to resolve it. The "top-K forking
// transmissions" ranking — the paper's Table I blame, per packet.
struct TransmissionForks {
  std::uint64_t packetId = 0;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint64_t time = 0;
  std::uint64_t targetsForked = 0;
  std::uint64_t bystandersForked = 0;
  [[nodiscard]] std::uint64_t total() const {
    return targetsForked + bystandersForked;
  }
};

struct TraceSummary {
  // Indexed by the TraceEventKind numeric value.
  std::array<std::uint64_t, kNumTraceEventKinds> countsByKind{};

  // Fork attribution by cause; matches the engine's StatsRegistry:
  // forksBranch + forksFailure == engine.forks_local,
  // forksMapping == engine.forks_mapping, total == engine.forks_total.
  std::uint64_t forksBranch = 0;
  std::uint64_t forksFailure = 0;
  std::uint64_t forksMapping = 0;
  [[nodiscard]] std::uint64_t forksLocal() const {
    return forksBranch + forksFailure;
  }
  [[nodiscard]] std::uint64_t forksTotal() const {
    return forksLocal() + forksMapping;
  }

  std::map<std::uint32_t, std::uint64_t> forksByNode;
  std::map<std::uint32_t, std::uint64_t> eventsByStream;

  // Mapping-layer totals (sums over kMappingInvoked / kGroupFork).
  std::uint64_t targetsForked = 0;
  std::uint64_t bystandersForked = 0;
  std::uint64_t scenarioCopies = 0;  // COB local-branch materialisation
  std::uint64_t groupForks = 0;

  // State-merging totals (sums over kStateMerge): every merge reclaims
  // states an earlier fork created — the fork-attribution credit side
  // of the ledger. mergeRemovedStates counts the absorbed states plus
  // any mapper-repair casualties each merge reaped.
  std::uint64_t mergeRemovedStates = 0;
  std::map<std::uint32_t, std::uint64_t> mergesByNode;

  // Solver query outcomes by answering pipeline layer.
  std::uint64_t solverQueries = 0;
  std::uint64_t solverCacheHits = 0;
  std::uint64_t solverModelReuse = 0;
  std::uint64_t solverIntervalRefuted = 0;
  std::uint64_t solverEnumerated = 0;
  std::uint64_t solverConstant = 0;
  std::uint64_t solverSubsumption = 0;
  std::uint64_t solverSharedCache = 0;

  std::uint64_t firstTime = 0;
  std::uint64_t lastTime = 0;

  // All fork-charging transmissions, heaviest first (ties: earlier
  // packet id first). Callers truncate to their K.
  std::vector<TransmissionForks> forkingTransmissions;

  [[nodiscard]] std::uint64_t count(TraceEventKind kind) const {
    return countsByKind[static_cast<std::size_t>(kind)];
  }
};

[[nodiscard]] TraceSummary summarizeTrace(const TraceFile& trace);

// Structural validation. Checks framing-independent invariants (the
// reader already rejected torn framing): per-stream sequence numbers
// strictly consecutive, virtual time non-decreasing in file order,
// node/peer ids inside the network, causal lineage (a fork's parent
// must exist before it — skipped for streams that resume mid-run, i.e.
// whose first sequence number is nonzero), and the fork-attribution
// ledger (mapping fork events == targets + bystanders + scenario
// copies claimed by the mapping layer). Returns human-readable
// violations; empty means the trace is well-formed.
[[nodiscard]] std::vector<std::string> validateTrace(const TraceFile& trace);

}  // namespace sde::obs

// Engine checkpoint format (the snapshot subsystem's core).
//
// A checkpoint is the *semantically lossless* serialization of one
// Engine mid-run: the expression DAG as its interning log (so
// hash-consing and node ids reproduce exactly), memory payloads as a
// pointer-identity blob table (so copy-on-write sharing classes — and
// therefore the simulated-memory meter — reproduce exactly), every
// execution state, the path constraints, the solver's query cache and
// stats, the scheduler heap including stale entries, and the mapper's
// grouping structure. A run resumed from any checkpoint produces the
// byte-identical merged fingerprint digest of the uninterrupted run.
//
// Versioning policy: kCheckpointVersion is bumped on ANY layout change;
// readers reject other versions outright (no migration — checkpoints
// are working files of one code revision, not archives). The one
// deliberate exception to "serialize everything" is the
// engine.peak_memory_bytes counter, which the engine records only at
// the end of run(): a suspended run would latch an intermediate
// footprint the uninterrupted run never observes, so the counter is
// dropped and the resumed run recomputes it at its own end — matching
// the uninterrupted run (see DESIGN.md §12).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "expr/expr.hpp"

namespace sde::expr {
class Context;
}
namespace sde::support {
class StatsRegistry;
}

namespace sde::snapshot {

class Writer;
class Reader;

inline constexpr std::string_view kCheckpointMagic = "SDECKPT";
inline constexpr std::string_view kCheckpointTrailer = "SDEEND";
// v2: appended the trace-sequence scalar (obs/ trace continuity across
// suspend/resume) to the engine-scalars section.
// v3: state histories (constraints, comm log, decisions, symbolics) are
// persistent chunked sequences and the pending-event queue is CoW;
// their shared blocks serialize through pointer-identity chunk tables
// (like the memory blob table) so structural sharing — and the
// all-component simulated-memory accounting — survives restore.
// v4: the query-cache section gains the subsumption layer's model pool
// (after the recent-model deque), and a partitioned run's warm shared
// query store persists as a shared_cache.bin sidecar in the checkpoint
// directory (see snapshot/shared_cache_io.hpp).
// v5: state merging and loop summarization. Each state carries its
// recursive MergeGuard side tables (after executedInstructions), the
// engine scalars gain the merge-guard allocator, the loop-summary
// detector table serializes after the scheduler heap, and the SDS
// virtual pool may contain tombstoned entries (sentinel ids).
inline constexpr std::uint32_t kCheckpointVersion = 5;

// --- Expression DAG (exposed for the round-trip fuzz test) -------------------
// Serializes the whole interning log of `ctx` in creation order; a Ref
// anywhere else in the checkpoint is a u32 index into this log.
void writeExprTable(Writer& out, const expr::Context& ctx);
// Replays the log into `ctx`, which must be freshly constructed (only
// the pre-interned boolean constants present). Throws SnapshotError on
// forward references or index drift.
void readExprTable(Reader& in, expr::Context& ctx);

// Nullable Ref as a u32 node id (null = sentinel).
void writeRef(Writer& out, expr::Ref ref);
[[nodiscard]] expr::Ref readRef(Reader& in, const expr::Context& ctx);

// --- Stats section (checkpoints and .done files) -----------------------------
// A u64 count, then every written series as a name/u64 pair, sorted by
// name; `skip` names one series to leave out. readStats replaces the
// registry's contents with what it reads.
void writeStats(Writer& out, const support::StatsRegistry& stats,
                std::string_view skip = {});
void readStats(Reader& in, support::StatsRegistry& stats);

// --- Header sniffing (CLI inspect / validate) --------------------------------
// Reads only the fixed-size prefix of a checkpoint stream: framing tag,
// version (rejected unless kCheckpointVersion) and the run summary.
struct CheckpointInfo {
  std::uint32_t version = 0;
  std::uint32_t numNodes = 0;   // network size
  std::string mapper;           // mapping algorithm name
  bool booted = false;
  std::uint64_t numStates = 0;
  std::uint64_t virtualNow = 0;
  std::uint64_t eventsProcessed = 0;
};
[[nodiscard]] CheckpointInfo inspectCheckpointHeader(std::istream& in);

}  // namespace sde::snapshot

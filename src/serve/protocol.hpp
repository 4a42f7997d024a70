// Message vocabulary of the exploration service, one layer above the
// byte frames of wire.hpp.
//
// Every frame payload is `u8 message tag | fields`, encoded with the
// same snapshot::Writer primitives as every durable SDE file — the wire
// and the disk speak one dialect. Decoding is total: a malformed
// payload (unknown tag, truncated fields, implausible string length)
// raises ServeError with a message the daemon ships back verbatim in an
// ErrorReply, so a confused client learns *what* was wrong instead of
// getting a dropped connection.
//
// Request/reply pairing:
//   SubmitRequest   -> SubmitReply | ErrorReply
//   StatusRequest   -> StatusReply | ErrorReply
//   WatchRequest    -> ProgressFrame... (last one has final=true)
//   CancelRequest   -> CancelReply | ErrorReply
//   ListArtifacts   -> ArtifactList | ErrorReply
//   FetchRequest    -> ArtifactReply | ErrorReply
//   MetricsRequest  -> MetricsReply | ErrorReply
//   ShutdownRequest -> ShutdownReply (then the daemon drains and exits)
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "serve/wire.hpp"

namespace sde::serve {

// Lifecycle of a job. Queued and Suspended are both runnable (Suspended
// additionally holds fleet checkpoints); Done/Failed/Cancelled are
// terminal.
enum class JobState : std::uint8_t {
  kQueued = 1,
  kRunning,
  kSuspended,
  kDone,
  kFailed,
  kCancelled,
};
[[nodiscard]] std::string_view jobStateName(JobState state);
[[nodiscard]] bool terminalJobState(JobState state);

struct SubmitRequest {
  std::string tenant;
  std::uint32_t priority = 0;   // higher runs first, may preempt lower
  std::uint32_t processes = 1;  // fleet worker slots the job occupies
  std::string scenarioSpec;     // trace::encodeCollectScenarioSpec output
  bool collectTestcases = false;
};

struct SubmitReply {
  std::uint64_t jobId = 0;
};

struct ErrorReply {
  std::string message;
};

struct StatusRequest {
  std::uint64_t jobId = 0;  // 0: all jobs
};

struct JobStatus {
  std::uint64_t jobId = 0;
  std::string tenant;
  std::uint32_t priority = 0;
  std::uint32_t processes = 1;
  JobState state = JobState::kQueued;
  std::uint32_t partsDone = 0;   // fleet partition jobs completed
  std::uint32_t partsTotal = 0;  // 2^partitionVariables
  // Progress in the engine's own counts: engine.events and
  // engine.initial_states + engine.forks_total, from the job's live
  // metrics plane while it runs and from its metrics.sde once done, so
  // a done job reports its stats.txt totals.
  std::uint64_t eventsSeen = 0;
  std::uint64_t statesSeen = 0;
  std::uint64_t digest = 0;  // fingerprint digest once done, else 0
  std::string error;         // failure reason once failed
};

struct StatusReply {
  std::vector<JobStatus> jobs;
};

struct WatchRequest {
  std::uint64_t jobId = 0;
};

struct ProgressFrame {
  JobStatus status;
  bool final = false;  // terminal state reached; stream ends here
};

struct CancelRequest {
  std::uint64_t jobId = 0;
};

struct CancelReply {
  JobState state = JobState::kCancelled;  // state after the cancel
};

struct ListArtifactsRequest {
  std::uint64_t jobId = 0;
};

struct ArtifactList {
  std::vector<std::string> names;
};

struct FetchRequest {
  std::uint64_t jobId = 0;
  std::string name;
};

struct ArtifactReply {
  std::string name;
  std::string bytes;
};

struct ShutdownRequest {};
struct ShutdownReply {};

// Live telemetry fetch. jobId 0 asks for the whole service (daemon
// accounting merged with the live shm planes of every running fleet);
// a specific id returns that job's metrics — its durable metrics.sde
// for completed jobs (bit-exact against the post-run merged
// StatsRegistry), its live plane while running.
struct MetricsRequest {
  std::uint64_t jobId = 0;
};

struct MetricsReply {
  // Prometheus text exposition (obs::renderPrometheus).
  std::string prometheus;
  // The same snapshot in the binary snapshot dialect
  // (obs::encodeMetricsSnapshot) for programmatic consumers.
  std::string snapshot;
};

using Message =
    std::variant<SubmitRequest, SubmitReply, ErrorReply, StatusRequest,
                 StatusReply, WatchRequest, ProgressFrame, CancelRequest,
                 CancelReply, ListArtifactsRequest, ArtifactList, FetchRequest,
                 ArtifactReply, ShutdownRequest, ShutdownReply, MetricsRequest,
                 MetricsReply>;

[[nodiscard]] std::string encodeMessage(const Message& message);
// Throws ServeError on any malformed payload.
[[nodiscard]] Message decodeMessage(const std::string& payload);

}  // namespace sde::serve

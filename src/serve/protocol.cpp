#include "serve/protocol.hpp"

#include <sstream>

#include "snapshot/error.hpp"
#include "snapshot/reader.hpp"
#include "snapshot/writer.hpp"

namespace sde::serve {

namespace {

enum class Tag : std::uint8_t {
  kSubmitRequest = 1,
  kSubmitReply,
  kErrorReply,
  kStatusRequest,
  kStatusReply,
  kWatchRequest,
  kProgressFrame,
  kCancelRequest,
  kCancelReply,
  kListArtifactsRequest,
  kArtifactList,
  kFetchRequest,
  kArtifactReply,
  kShutdownRequest,
  kShutdownReply,
  kMetricsRequest,
  kMetricsReply,
};

JobState decodeJobState(std::uint8_t raw) {
  if (raw < static_cast<std::uint8_t>(JobState::kQueued) ||
      raw > static_cast<std::uint8_t>(JobState::kCancelled))
    throw ServeError("invalid job state " + std::to_string(raw) +
                     " on the wire");
  return static_cast<JobState>(raw);
}

void writeJobStatus(snapshot::Writer& out, const JobStatus& status) {
  out.u64(status.jobId);
  out.str(status.tenant);
  out.u32(status.priority);
  out.u32(status.processes);
  out.u8(static_cast<std::uint8_t>(status.state));
  out.u32(status.partsDone);
  out.u32(status.partsTotal);
  out.u64(status.eventsSeen);
  out.u64(status.statesSeen);
  out.u64(status.digest);
  out.str(status.error);
}

JobStatus readJobStatus(snapshot::Reader& in) {
  JobStatus status;
  status.jobId = in.u64();
  status.tenant = in.str();
  status.priority = in.u32();
  status.processes = in.u32();
  status.state = decodeJobState(in.u8());
  status.partsDone = in.u32();
  status.partsTotal = in.u32();
  status.eventsSeen = in.u64();
  status.statesSeen = in.u64();
  status.digest = in.u64();
  status.error = in.str();
  return status;
}

struct Encoder {
  snapshot::Writer& out;

  void operator()(const SubmitRequest& m) {
    out.u8(static_cast<std::uint8_t>(Tag::kSubmitRequest));
    out.str(m.tenant);
    out.u32(m.priority);
    out.u32(m.processes);
    out.str(m.scenarioSpec);
    out.b(m.collectTestcases);
  }
  void operator()(const SubmitReply& m) {
    out.u8(static_cast<std::uint8_t>(Tag::kSubmitReply));
    out.u64(m.jobId);
  }
  void operator()(const ErrorReply& m) {
    out.u8(static_cast<std::uint8_t>(Tag::kErrorReply));
    out.str(m.message);
  }
  void operator()(const StatusRequest& m) {
    out.u8(static_cast<std::uint8_t>(Tag::kStatusRequest));
    out.u64(m.jobId);
  }
  void operator()(const StatusReply& m) {
    out.u8(static_cast<std::uint8_t>(Tag::kStatusReply));
    out.u64(m.jobs.size());
    for (const JobStatus& status : m.jobs) writeJobStatus(out, status);
  }
  void operator()(const WatchRequest& m) {
    out.u8(static_cast<std::uint8_t>(Tag::kWatchRequest));
    out.u64(m.jobId);
  }
  void operator()(const ProgressFrame& m) {
    out.u8(static_cast<std::uint8_t>(Tag::kProgressFrame));
    writeJobStatus(out, m.status);
    out.b(m.final);
  }
  void operator()(const CancelRequest& m) {
    out.u8(static_cast<std::uint8_t>(Tag::kCancelRequest));
    out.u64(m.jobId);
  }
  void operator()(const CancelReply& m) {
    out.u8(static_cast<std::uint8_t>(Tag::kCancelReply));
    out.u8(static_cast<std::uint8_t>(m.state));
  }
  void operator()(const ListArtifactsRequest& m) {
    out.u8(static_cast<std::uint8_t>(Tag::kListArtifactsRequest));
    out.u64(m.jobId);
  }
  void operator()(const ArtifactList& m) {
    out.u8(static_cast<std::uint8_t>(Tag::kArtifactList));
    out.u64(m.names.size());
    for (const std::string& name : m.names) out.str(name);
  }
  void operator()(const FetchRequest& m) {
    out.u8(static_cast<std::uint8_t>(Tag::kFetchRequest));
    out.u64(m.jobId);
    out.str(m.name);
  }
  void operator()(const ArtifactReply& m) {
    out.u8(static_cast<std::uint8_t>(Tag::kArtifactReply));
    out.str(m.name);
    out.str(m.bytes);
  }
  void operator()(const ShutdownRequest&) {
    out.u8(static_cast<std::uint8_t>(Tag::kShutdownRequest));
  }
  void operator()(const ShutdownReply&) {
    out.u8(static_cast<std::uint8_t>(Tag::kShutdownReply));
  }
  void operator()(const MetricsRequest& m) {
    out.u8(static_cast<std::uint8_t>(Tag::kMetricsRequest));
    out.u64(m.jobId);
  }
  void operator()(const MetricsReply& m) {
    out.u8(static_cast<std::uint8_t>(Tag::kMetricsReply));
    out.str(m.prometheus);
    out.str(m.snapshot);
  }
};

}  // namespace

std::string_view jobStateName(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kSuspended: return "suspended";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "unknown";
}

bool terminalJobState(JobState state) {
  return state == JobState::kDone || state == JobState::kFailed ||
         state == JobState::kCancelled;
}

std::string encodeMessage(const Message& message) {
  std::ostringstream buffer;
  snapshot::Writer out(buffer);
  std::visit(Encoder{out}, message);
  return std::move(buffer).str();
}

Message decodeMessage(const std::string& payload) {
  std::istringstream buffer(payload);
  snapshot::Reader in(buffer);
  try {
    const std::uint8_t rawTag = in.u8();
    switch (static_cast<Tag>(rawTag)) {
      case Tag::kSubmitRequest: {
        SubmitRequest m;
        m.tenant = in.str();
        m.priority = in.u32();
        m.processes = in.u32();
        m.scenarioSpec = in.str();
        m.collectTestcases = in.b();
        return m;
      }
      case Tag::kSubmitReply: {
        SubmitReply m;
        m.jobId = in.u64();
        return m;
      }
      case Tag::kErrorReply: {
        ErrorReply m;
        m.message = in.str();
        return m;
      }
      case Tag::kStatusRequest: {
        StatusRequest m;
        m.jobId = in.u64();
        return m;
      }
      case Tag::kStatusReply: {
        StatusReply m;
        // Counts come from the peer, so nothing is reserved from them: a
        // count the payload cannot back runs into its end (ServeError).
        const std::uint64_t n = in.u64();
        if (n > 1u << 20) throw ServeError("implausible job count on the wire");
        for (std::uint64_t i = 0; i < n; ++i)
          m.jobs.push_back(readJobStatus(in));
        return m;
      }
      case Tag::kWatchRequest: {
        WatchRequest m;
        m.jobId = in.u64();
        return m;
      }
      case Tag::kProgressFrame: {
        ProgressFrame m;
        m.status = readJobStatus(in);
        m.final = in.b();
        return m;
      }
      case Tag::kCancelRequest: {
        CancelRequest m;
        m.jobId = in.u64();
        return m;
      }
      case Tag::kCancelReply: {
        CancelReply m;
        m.state = decodeJobState(in.u8());
        return m;
      }
      case Tag::kListArtifactsRequest: {
        ListArtifactsRequest m;
        m.jobId = in.u64();
        return m;
      }
      case Tag::kArtifactList: {
        ArtifactList m;
        const std::uint64_t n = in.u64();
        if (n > 1u << 16)
          throw ServeError("implausible artifact count on the wire");
        for (std::uint64_t i = 0; i < n; ++i) m.names.push_back(in.str());
        return m;
      }
      case Tag::kFetchRequest: {
        FetchRequest m;
        m.jobId = in.u64();
        m.name = in.str();
        return m;
      }
      case Tag::kArtifactReply: {
        ArtifactReply m;
        m.name = in.str();
        m.bytes = in.str(kMaxFrameBytes);
        return m;
      }
      case Tag::kShutdownRequest: return ShutdownRequest{};
      case Tag::kShutdownReply: return ShutdownReply{};
      case Tag::kMetricsRequest: {
        MetricsRequest m;
        m.jobId = in.u64();
        return m;
      }
      case Tag::kMetricsReply: {
        MetricsReply m;
        m.prometheus = in.str(kMaxFrameBytes);
        m.snapshot = in.str(kMaxFrameBytes);
        return m;
      }
    }
    throw ServeError("unknown message tag " + std::to_string(rawTag) +
                     " on the wire");
  } catch (const snapshot::SnapshotError& e) {
    throw ServeError(std::string("malformed message payload: ") + e.what());
  }
}

}  // namespace sde::serve

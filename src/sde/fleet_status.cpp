#include "sde/fleet_status.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "snapshot/checkpoint.hpp"

namespace sde {

namespace fs = std::filesystem;

std::string_view fleetJobStateName(FleetJobState state) {
  switch (state) {
    case FleetJobState::kDone: return "done";
    case FleetJobState::kSuspended: return "suspended";
    case FleetJobState::kPending: return "pending";
    case FleetJobState::kBroken: return "broken";
  }
  return "unknown";
}

FleetRunStatus inspectFleetRun(const fs::path& dir) {
  FleetRunStatus status;
  status.dir = dir;
  status.manifest = snapshot::readManifest(dir);
  for (const PartitionJob& job : status.manifest.plan.jobs) {
    FleetJobStatus row;
    row.id = job.id;
    const fs::path donePath = snapshot::jobDonePath(dir, job.id);
    const fs::path ckptPath = snapshot::jobCheckpointPath(dir, job.id);
    if (fs::exists(donePath)) {
      try {
        const JobResult result = snapshot::readJobResultFile(donePath);
        row.state = FleetJobState::kDone;
        row.states = result.states;
        ++status.done;
      } catch (const snapshot::SnapshotError&) {
        row.state = FleetJobState::kBroken;
        ++status.broken;
      }
    } else if (fs::exists(ckptPath)) {
      try {
        std::ifstream is(ckptPath, std::ios::binary);
        const snapshot::CheckpointInfo info =
            snapshot::inspectCheckpointHeader(is);
        row.state = FleetJobState::kSuspended;
        row.states = info.numStates;
        row.virtualNow = info.virtualNow;
        ++status.suspended;
      } catch (const snapshot::SnapshotError&) {
        row.state = FleetJobState::kBroken;
        ++status.broken;
      }
    } else {
      row.state = FleetJobState::kPending;
      ++status.pending;
    }
    status.jobs.push_back(row);
  }
  const fs::path metricsPath = snapshot::metricsSnapshotPath(dir);
  if (fs::exists(metricsPath)) {
    try {
      std::ifstream is(metricsPath, std::ios::binary);
      std::ostringstream bytes;
      bytes << is.rdbuf();
      status.metrics = obs::decodeMetricsSnapshot(std::move(bytes).str());
      status.hasMetrics = true;
    } catch (const snapshot::SnapshotError&) {
      // A torn sidecar is a diagnostics loss; the run status stands.
    }
  }
  return status;
}

std::string jsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string fleetStatusJson(const FleetRunStatus& status) {
  std::ostringstream out;
  out << "{\"dir\":\"" << jsonEscape(status.dir.string()) << "\""
      << ",\"horizon\":" << status.manifest.horizon;
  if (!status.manifest.scenarioSpec.empty())
    out << ",\"scenario\":\"" << jsonEscape(status.manifest.scenarioSpec)
        << "\"";
  out << ",\"jobsTotal\":" << status.manifest.plan.jobs.size()
      << ",\"done\":" << status.done << ",\"suspended\":" << status.suspended
      << ",\"pending\":" << status.pending << ",\"broken\":" << status.broken
      << ",\"jobs\":[";
  bool firstJob = true;
  for (const FleetJobStatus& job : status.jobs) {
    if (!firstJob) out << ",";
    firstJob = false;
    out << "{\"id\":" << job.id << ",\"state\":\""
        << fleetJobStateName(job.state) << "\"";
    // Omit-empty: a pending or broken job HAS no state count, and a
    // done job has no virtual clock — emitting zeros would make them
    // indistinguishable from real values.
    if (job.state == FleetJobState::kDone ||
        job.state == FleetJobState::kSuspended)
      out << ",\"states\":" << job.states;
    if (job.state == FleetJobState::kSuspended)
      out << ",\"virtualNow\":" << job.virtualNow;
    out << "}";
  }
  out << "]";
  if (status.hasMetrics && !status.metrics.empty()) {
    out << ",\"metrics\":{";
    bool firstPoint = true;
    for (const auto& [name, point] : status.metrics.points) {
      if (!firstPoint) out << ",";
      firstPoint = false;
      out << "\"" << jsonEscape(name) << "\":";
      if (point.kind == obs::MetricKind::kHistogram) {
        out << "{\"count\":" << point.histogram.count
            << ",\"sum\":" << point.histogram.sum
            << ",\"p50\":" << obs::histogramQuantile(point, 0.5)
            << ",\"p99\":" << obs::histogramQuantile(point, 0.99) << "}";
      } else {
        out << point.value;
      }
    }
    out << "}";
  }
  out << "}";
  return std::move(out).str();
}

}  // namespace sde

// sde_top — live terminal view of an sde_serve exploration service.
//
//   sde_top <socket> [--interval MS] [--once]
//
// Polls StatusRequest + MetricsRequest(0) each round and renders
// tenants (slot occupancy, accumulated run slot-seconds, preemptions,
// queue-wait p50/p99), jobs (state, parts, live event/state counters
// and an events/s rate computed between polls), and the hottest
// engine/solver series (fork totals, per-layer solve latency p50/p99).
// --once prints a single frame without clearing the screen — that mode
// is what scripts and the verify smoke stage consume.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/client.hpp"

namespace {

using namespace sde;

struct TenantRow {
  std::uint64_t slotsInUse = 0;
  std::uint64_t runSlotMs = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t jobsSubmitted = 0;
  std::uint64_t queueWaitP50 = 0;
  std::uint64_t queueWaitP99 = 0;
};

void renderFrame(const std::vector<serve::JobStatus>& jobs,
                 const obs::MetricsSnapshot& snap,
                 const std::map<std::uint64_t, std::uint64_t>& lastEvents,
                 double intervalSeconds) {
  std::printf("sde_top — slots %llu/%llu, %llu jobs running\n",
              static_cast<unsigned long long>(snap.value("serve.slots_in_use")),
              static_cast<unsigned long long>(snap.value("serve.slots_total")),
              static_cast<unsigned long long>(snap.value("serve.jobs_running")));

  std::map<std::string, TenantRow> tenants;
  for (const auto& [name, point] : snap.points) {
    std::string_view tenant;
    std::string_view series;
    if (!obs::splitTenantSeries(name, tenant, series)) continue;
    TenantRow& row = tenants[std::string(tenant)];
    if (series == "slots_in_use") {
      row.slotsInUse = point.value;
    } else if (series == "run_slot_ms") {
      row.runSlotMs = point.value;
    } else if (series == "preemptions") {
      row.preemptions = point.value;
    } else if (series == "jobs_submitted") {
      row.jobsSubmitted = point.value;
    } else if (series == "queue_wait_ms") {
      row.queueWaitP50 = obs::histogramQuantile(point, 0.5);
      row.queueWaitP99 = obs::histogramQuantile(point, 0.99);
    }
  }
  if (!tenants.empty()) {
    std::printf("\n%-16s %6s %10s %8s %8s %10s %10s\n", "TENANT", "SLOTS",
                "RUN_SLOT_S", "SUBMITS", "PREEMPT", "QWAIT_P50", "QWAIT_P99");
    for (const auto& [tenant, row] : tenants)
      std::printf("%-16s %6llu %10.1f %8llu %8llu %8llums %8llums\n",
                  tenant.c_str(),
                  static_cast<unsigned long long>(row.slotsInUse),
                  static_cast<double>(row.runSlotMs) / 1000.0,
                  static_cast<unsigned long long>(row.jobsSubmitted),
                  static_cast<unsigned long long>(row.preemptions),
                  static_cast<unsigned long long>(row.queueWaitP50),
                  static_cast<unsigned long long>(row.queueWaitP99));
  }

  std::printf("\n%-6s %-12s %-10s %9s %12s %12s %10s\n", "JOB", "TENANT",
              "STATE", "PARTS", "EVENTS", "STATES", "EV/S");
  for (const serve::JobStatus& job : jobs) {
    double rate = 0;
    const auto last = lastEvents.find(job.jobId);
    if (last != lastEvents.end() && intervalSeconds > 0 &&
        job.eventsSeen >= last->second)
      rate = static_cast<double>(job.eventsSeen - last->second) /
             intervalSeconds;
    std::printf("%-6llu %-12s %-10s %5u/%-3u %12llu %12llu %10.0f\n",
                static_cast<unsigned long long>(job.jobId),
                job.tenant.c_str(),
                std::string(serve::jobStateName(job.state)).c_str(),
                job.partsDone, job.partsTotal,
                static_cast<unsigned long long>(job.eventsSeen),
                static_cast<unsigned long long>(job.statesSeen), rate);
  }

  // The engine/solver pulse across every running fleet, live from the
  // shm planes the daemon merged into this snapshot.
  const std::uint64_t forks = snap.value("engine.forks_total");
  const std::uint64_t events = snap.value("engine.events");
  if (forks != 0 || events != 0)
    std::printf("\nengine: %llu forks, %llu events, %llu packets, "
                "peak %llu states\n",
                static_cast<unsigned long long>(forks),
                static_cast<unsigned long long>(events),
                static_cast<unsigned long long>(snap.value("engine.packets")),
                static_cast<unsigned long long>(
                    snap.value("engine.peak_states")));
  bool solverHeader = false;
  for (const auto& [name, point] : snap.points) {
    if (name.rfind("solver.layer.", 0) != 0 ||
        point.kind != obs::MetricKind::kHistogram ||
        point.histogram.count == 0)
      continue;
    if (!solverHeader) {
      std::printf("%-44s %10s %10s %10s\n", "SOLVER LAYER", "CALLS",
                  "P50_NS", "P99_NS");
      solverHeader = true;
    }
    std::printf("%-44s %10llu %10llu %10llu\n", name.c_str(),
                static_cast<unsigned long long>(point.histogram.count),
                static_cast<unsigned long long>(
                    obs::histogramQuantile(point, 0.5)),
                static_cast<unsigned long long>(
                    obs::histogramQuantile(point, 0.99)));
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: sde_top <socket> [--interval MS] [--once]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string socket = argv[1];
  unsigned intervalMs = 1000;
  bool once = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--interval") == 0 && i + 1 < argc) {
      intervalMs = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
      if (intervalMs == 0) intervalMs = 1;
    } else if (std::strcmp(argv[i], "--once") == 0) {
      once = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return usage();
    }
  }

  std::map<std::uint64_t, std::uint64_t> lastEvents;
  double intervalSeconds = 0;
  while (true) {
    try {
      serve::Client client(socket);
      const std::vector<serve::JobStatus> jobs = client.status();
      const serve::MetricsReply metrics = client.metrics();
      const obs::MetricsSnapshot snap =
          obs::decodeMetricsSnapshot(metrics.snapshot);
      if (!once) std::fputs("\x1b[H\x1b[2J", stdout);  // home + clear
      renderFrame(jobs, snap, lastEvents, intervalSeconds);
      std::fflush(stdout);
      lastEvents.clear();
      for (const serve::JobStatus& job : jobs)
        lastEvents[job.jobId] = job.eventsSeen;
    } catch (const std::exception& e) {
      if (once) {
        std::fprintf(stderr, "sde_top: %s\n", e.what());
        return 1;
      }
      std::printf("sde_top: %s (retrying)\n", e.what());
      std::fflush(stdout);
    }
    if (once) return 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(intervalMs));
    intervalSeconds = static_cast<double>(intervalMs) / 1000.0;
  }
}

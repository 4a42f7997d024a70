// A mid-job fleet suspend without a race, shared by the suspend and
// live-metrics batteries.
#pragma once

#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include "sde/fleet.hpp"

namespace sde {

// Trips a suspend from inside the run, at the first checkpoint a worker
// writes: the chaos hook (in the worker process) drops a sentinel in
// `dir` that the coordinator's stop hook reads, then waits, up to 30 s,
// until the stop hook has requested the suspend. The job is therefore
// still running when kSuspendFleet arrives, however late the
// coordinator's poll fires.
inline void suspendAtFirstCheckpoint(FleetConfig& fleet,
                                     const std::filesystem::path& dir) {
  namespace fs = std::filesystem;
  const fs::path sentinel = dir / "suspend_now";
  const fs::path requested = dir / "suspend_requested";
  fleet.chaos.onCheckpoint = [sentinel, requested](unsigned, std::uint32_t) {
    std::ofstream(sentinel).put('x');
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!fs::exists(requested) &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  fleet.stopRequested = [sentinel, requested] {
    if (!fs::exists(sentinel)) return false;
    std::ofstream(requested).put('x');
    return true;
  };
}

}  // namespace sde

// sde_fleet — launch, inspect and resume multi-process fleet runs.
//
//   sde_fleet launch <dir> [--processes N] [--vars B] [--nodes W*H]
//                          [--time T] [--mapper cow|sds|cob]
//                          [--no-shm-cache]
//                          [--trace-dir D] [--testcases]
//                          [--merge] [--loop-summarize]
//                    starts a fresh fleet of the collect scenario with
//                    <dir> as the durable job queue and prints the
//                    merged summary + fingerprint digest
//   sde_fleet status <dir> [--json]
//                    per-job progress of the durable queue (done /
//                    suspended / pending), without running anything;
//                    --json emits one machine-readable object (the
//                    sde_serve status endpoint and scripts consume it)
//   sde_fleet resume <dir> [--processes N] [--no-shm-cache]
//                    rebuilds the fleet from the recorded scenario spec
//                    (test generation included) and finishes the run
//                    (completed jobs load from their .done files,
//                    suspended jobs continue from their checkpoints, the
//                    shm cache seeds from the shared_cache.bin sidecar)
//
// `resume` needs a manifest whose scenario spec this build can decode
// (runs started by `launch`, trace::runCollectFleet or
// trace::runCollectPartitioned); foreign runs resume from the program
// that owns the engine factory.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "sde/fleet.hpp"
#include "sde/fleet_status.hpp"
#include "snapshot/manifest.hpp"
#include "trace/scenario.hpp"

namespace {

namespace fs = std::filesystem;
using namespace sde;

struct Options {
  unsigned processes = 4;
  std::size_t vars = 2;
  std::uint32_t gridWidth = 5;
  std::uint32_t gridHeight = 5;
  std::uint64_t time = 5000;
  MapperKind mapper = MapperKind::kSds;
  bool shmCache = true;
  std::string traceDir;
  bool testcases = false;
  bool merge = false;          // state merging at post-dominator joins
  bool loopSummarize = false;  // bounded loop summarization
};

bool parseCommon(int argc, char** argv, int first, Options& options) {
  for (int i = first; i < argc; ++i) {
    const auto needValue = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--processes") == 0) {
      const char* v = needValue("--processes");
      if (v == nullptr) return false;
      options.processes = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    } else if (std::strcmp(argv[i], "--vars") == 0) {
      const char* v = needValue("--vars");
      if (v == nullptr) return false;
      options.vars = std::strtoul(v, nullptr, 10);
    } else if (std::strcmp(argv[i], "--nodes") == 0) {
      const char* v = needValue("--nodes");
      if (v == nullptr) return false;
      const char* star = std::strchr(v, '*');
      if (star == nullptr) {
        std::fprintf(stderr, "--nodes wants W*H (e.g. 5*5)\n");
        return false;
      }
      options.gridWidth =
          static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
      options.gridHeight =
          static_cast<std::uint32_t>(std::strtoul(star + 1, nullptr, 10));
    } else if (std::strcmp(argv[i], "--time") == 0) {
      const char* v = needValue("--time");
      if (v == nullptr) return false;
      options.time = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(argv[i], "--mapper") == 0) {
      const char* v = needValue("--mapper");
      if (v == nullptr) return false;
      if (std::strcmp(v, "cow") == 0)
        options.mapper = MapperKind::kCow;
      else if (std::strcmp(v, "sds") == 0)
        options.mapper = MapperKind::kSds;
      else if (std::strcmp(v, "cob") == 0)
        options.mapper = MapperKind::kCob;
      else {
        std::fprintf(stderr, "unknown mapper %s\n", v);
        return false;
      }
    } else if (std::strcmp(argv[i], "--no-shm-cache") == 0) {
      options.shmCache = false;
    } else if (std::strcmp(argv[i], "--trace-dir") == 0) {
      const char* v = needValue("--trace-dir");
      if (v == nullptr) return false;
      options.traceDir = v;
    } else if (std::strcmp(argv[i], "--testcases") == 0) {
      options.testcases = true;
    } else if (std::strcmp(argv[i], "--merge") == 0) {
      options.merge = true;
    } else if (std::strcmp(argv[i], "--loop-summarize") == 0) {
      options.loopSummarize = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return false;
    }
  }
  return true;
}

void printFleetResult(const FleetResult& fleet, bool sharing) {
  const ParallelResult& result = fleet.result;
  std::printf("outcome            %s\n",
              std::string(runOutcomeName(result.outcome)).c_str());
  std::printf("processes          %u\n", fleet.processes);
  std::printf("total states       %llu\n",
              static_cast<unsigned long long>(result.totalStates));
  std::printf("total events       %llu\n",
              static_cast<unsigned long long>(result.totalEvents));
  std::printf("owned scenarios    %llu\n",
              static_cast<unsigned long long>(result.totalScenariosOwned));
  std::printf("steals             %llu\n",
              static_cast<unsigned long long>(fleet.steals));
  std::printf("worker deaths      %llu (respawns %llu)\n",
              static_cast<unsigned long long>(fleet.workerDeaths),
              static_cast<unsigned long long>(fleet.respawns));
  // This run's shared-store traffic, from the solvers' own counters
  // (the store counts only its entries).
  const std::uint64_t sharedQueries =
      result.stats.get("solver.layer.shared_cache.queries");
  const std::uint64_t sharedHits =
      result.stats.get("solver.layer.shared_cache.hits");
  if (sharing)
    std::printf("shm cache          entries %llu, hits %llu, misses %llu\n",
                static_cast<unsigned long long>(fleet.shmEntries),
                static_cast<unsigned long long>(sharedHits),
                static_cast<unsigned long long>(sharedQueries - sharedHits));
  else
    std::printf("shm cache          off\n");
  std::printf("wall seconds       %.3f\n", result.wallSeconds);
  std::printf("fingerprint digest %016llx\n",
              static_cast<unsigned long long>(result.fingerprintDigest()));
  if (!result.testcases.empty()) {
    // FNV-1a over the sorted-distinct union; the merge verify stage
    // compares this line between a merged and an unmerged launch.
    std::uint64_t digest = 14695981039346656037ull;
    for (const std::string& testcase : result.testcases) {
      for (const char c : testcase) {
        digest ^= static_cast<unsigned char>(c);
        digest *= 1099511628211ull;
      }
      digest *= 1099511628211ull;  // record separator
    }
    std::printf("testcases          %zu\n", result.testcases.size());
    std::printf("testcase digest    %016llx\n",
                static_cast<unsigned long long>(digest));
  }
}

int launch(const fs::path& dir, const Options& options, bool resume) {
  trace::CollectScenarioConfig scenario;
  scenario.gridWidth = options.gridWidth;
  scenario.gridHeight = options.gridHeight;
  scenario.simulationTime = options.time;
  scenario.mapper = options.mapper;
  scenario.engine.mergeStates = options.merge;
  scenario.engine.loopSummarize = options.loopSummarize;

  std::size_t vars = options.vars;
  bool testcases = options.testcases;
  if (resume) {
    // The run directory is authoritative: rebuild the identical fleet
    // from the recorded spec.
    const snapshot::RunManifest manifest = snapshot::readManifest(dir);
    const auto decoded = trace::decodeCollectScenarioSpec(manifest.scenarioSpec);
    if (!decoded) {
      std::fprintf(stderr,
                   "manifest has no decodable scenario spec (\"%s\"); resume "
                   "this run from the program that started it\n",
                   manifest.scenarioSpec.c_str());
      return 1;
    }
    scenario = decoded->config;
    vars = decoded->numPartitionVariables;
    // --testcases on a run without test cases changes the spec, and the
    // resume refuses the directory.
    testcases = testcases || decoded->collectTestcases;
  }

  FleetConfig fleet;
  fleet.processes = options.processes;
  fleet.checkpointDir = dir.string();
  fleet.resume = resume;
  fleet.shmQueryCache = options.shmCache;
  fleet.traceDir = options.traceDir;
  fleet.collectTestcases = testcases;

  // SIGTERM means "checkpoint and yield", matching what a managing
  // daemon (sde_serve) sends to preempt the run.
  fleet.installSigtermSuspend = true;

  const FleetResult result = trace::runCollectFleet(scenario, fleet, vars);
  if (result.suspended) {
    std::printf("suspended          %u jobs done, %u checkpointed mid-run\n",
                result.jobsDone, result.jobsSuspendedMidRun);
    std::printf("resume with        sde_fleet resume %s\n",
                dir.string().c_str());
    return 3;
  }
  printFleetResult(result, options.shmCache);
  return result.result.outcome == RunOutcome::kCompleted ? 0 : 2;
}

int statusText(const FleetRunStatus& status) {
  std::printf("run directory    %s\n", status.dir.string().c_str());
  std::printf("horizon          %llu\n",
              static_cast<unsigned long long>(status.manifest.horizon));
  std::printf("jobs             %zu\n", status.manifest.plan.jobs.size());
  std::printf("scenario spec    %s\n\n",
              status.manifest.scenarioSpec.empty()
                  ? "<none>"
                  : status.manifest.scenarioSpec.c_str());
  for (const FleetJobStatus& row : status.jobs) {
    std::string state;
    if (row.state == FleetJobState::kDone) {
      state = "done      (" + std::to_string(row.states) + " states)";
    } else if (row.state == FleetJobState::kSuspended) {
      state = "suspended (" + std::to_string(row.states) + " states at t=" +
              std::to_string(row.virtualNow) + ")";
    } else if (row.state == FleetJobState::kBroken) {
      state = "BROKEN file";
    } else {
      state = "pending";
    }
    std::printf("job %-4u %s\n", row.id, state.c_str());
  }
  std::printf("\n%zu done, %zu suspended, %zu pending", status.done,
              status.suspended, status.pending);
  if (status.broken != 0) std::printf(", %zu BROKEN", status.broken);
  std::printf("\n");
  if (status.hasMetrics) {
    std::printf("\nmerged metrics (metrics.sde):\n");
    for (const auto& [name, point] : status.metrics.points) {
      if (point.kind == sde::obs::MetricKind::kHistogram) {
        std::printf("  %-40s count %llu p50 %llu p99 %llu\n", name.c_str(),
                    static_cast<unsigned long long>(point.histogram.count),
                    static_cast<unsigned long long>(
                        sde::obs::histogramQuantile(point, 0.5)),
                    static_cast<unsigned long long>(
                        sde::obs::histogramQuantile(point, 0.99)));
      } else {
        std::printf("  %-40s %llu\n", name.c_str(),
                    static_cast<unsigned long long>(point.value));
      }
    }
  }
  return status.broken == 0 ? 0 : 1;
}

int statusCommand(const fs::path& dir, bool json) {
  const FleetRunStatus status = inspectFleetRun(dir);
  if (json) {
    std::printf("%s\n", fleetStatusJson(status).c_str());
    return status.broken == 0 ? 0 : 1;
  }
  return statusText(status);
}

int usage() {
  std::fprintf(
      stderr,
      "usage: sde_fleet launch <dir> [--processes N] [--vars B]\n"
      "                 [--nodes W*H] [--time T] [--mapper cow|sds|cob]\n"
      "                 [--no-shm-cache]\n"
      "                 [--trace-dir D] [--testcases]\n"
      "       sde_fleet status <dir> [--json]\n"
      "       sde_fleet resume <dir> [--processes N] [--no-shm-cache]\n");
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string command = argv[1];
  const fs::path dir = argv[2];
  Options options;
  try {
    if (command == "launch") {
      if (!parseCommon(argc, argv, 3, options)) return usage();
      return launch(dir, options, /*resume=*/false);
    }
    if (command == "resume") {
      if (!parseCommon(argc, argv, 3, options)) return usage();
      return launch(dir, options, /*resume=*/true);
    }
    if (command == "status") {
      bool json = false;
      for (int i = 3; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
          json = true;
        } else {
          std::fprintf(stderr, "unknown flag %s\n", argv[i]);
          return usage();
        }
      }
      return statusCommand(dir, json);
    }
  } catch (const sde::snapshot::SnapshotError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const sde::FleetError& e) {
    std::fprintf(stderr, "fleet error: %s\n", e.what());
    return 1;
  }
  return usage();
}

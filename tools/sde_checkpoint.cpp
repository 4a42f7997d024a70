// sde_checkpoint — inspect, validate and resume durable SDE runs.
//
//   sde_checkpoint inspect  <file.ckpt>   header of one engine checkpoint
//   sde_checkpoint inspect  <dir>         run manifest + per-job progress
//   sde_checkpoint validate <dir>         parse every file; nonzero exit on
//                                         any torn/foreign/version-mismatched
//                                         artifact
//   sde_checkpoint resume   <dir> [--workers N] [--testcases]
//                                         rebuild the fleet from the recorded
//                                         scenario spec (test generation
//                                         included) and finish the run
//
// `resume` only works for runs whose manifest carries a scenario spec this
// build can decode (runs started through trace::runCollectPartitioned); for
// other runs, resume from the embedding program that owns the engine factory.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "snapshot/checkpoint.hpp"
#include "snapshot/manifest.hpp"
#include "trace/scenario.hpp"

namespace {

namespace fs = std::filesystem;
using namespace sde;

int inspectCheckpointFile(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    std::fprintf(stderr, "cannot open %s\n", path.string().c_str());
    return 1;
  }
  const snapshot::CheckpointInfo info = snapshot::inspectCheckpointHeader(is);
  std::printf("checkpoint       %s\n", path.string().c_str());
  std::printf("format version   %u\n", info.version);
  std::printf("network nodes    %u\n", info.numNodes);
  std::printf("mapper           %s\n", info.mapper.c_str());
  std::printf("booted           %s\n", info.booted ? "yes" : "no");
  std::printf("states           %llu\n",
              static_cast<unsigned long long>(info.numStates));
  std::printf("virtual time     %llu\n",
              static_cast<unsigned long long>(info.virtualNow));
  std::printf("events processed %llu\n",
              static_cast<unsigned long long>(info.eventsProcessed));
  return 0;
}

// Shared by inspect (report) and validate (report + strictness): walks the
// run directory and returns the number of broken artifacts.
int surveyRunDir(const fs::path& dir, bool verbose) {
  const snapshot::RunManifest manifest = snapshot::readManifest(dir);
  if (verbose) {
    std::printf("run directory    %s\n", dir.string().c_str());
    std::printf("horizon          %llu\n",
                static_cast<unsigned long long>(manifest.horizon));
    std::printf("partition vars   %zu\n", manifest.plan.variables.size());
    std::printf("jobs             %zu\n", manifest.plan.jobs.size());
    std::printf("scenario spec    %s\n", manifest.scenarioSpec.empty()
                                             ? "<none>"
                                             : manifest.scenarioSpec.c_str());
    std::printf("\n");
  }

  int broken = 0;
  std::size_t done = 0, suspended = 0, pending = 0;
  for (const PartitionJob& job : manifest.plan.jobs) {
    const fs::path donePath = snapshot::jobDonePath(dir, job.id);
    const fs::path ckptPath = snapshot::jobCheckpointPath(dir, job.id);
    std::string status;
    if (fs::exists(donePath)) {
      try {
        const JobResult result = snapshot::readJobResultFile(donePath);
        status = "done (" + std::to_string(result.states) + " states, " +
                 std::to_string(result.scenariosOwned) + " owned scenarios)";
        ++done;
      } catch (const snapshot::SnapshotError& e) {
        status = std::string("BROKEN done file: ") + e.what();
        ++broken;
      }
    } else if (fs::exists(ckptPath)) {
      try {
        std::ifstream is(ckptPath, std::ios::binary);
        const snapshot::CheckpointInfo info =
            snapshot::inspectCheckpointHeader(is);
        status = "suspended (" + std::to_string(info.numStates) +
                 " states at virtual time " + std::to_string(info.virtualNow) +
                 ")";
        ++suspended;
      } catch (const snapshot::SnapshotError& e) {
        status = std::string("BROKEN checkpoint: ") + e.what();
        ++broken;
      }
    } else {
      status = "pending (no checkpoint yet)";
      ++pending;
    }
    if (verbose) std::printf("job %-4u %s\n", job.id, status.c_str());
  }
  if (verbose) {
    std::printf("\n%zu done, %zu suspended, %zu pending", done, suspended,
                pending);
    if (broken != 0) std::printf(", %d BROKEN", broken);
    std::printf("\n");
  }
  return broken;
}

int resumeRun(const fs::path& dir, unsigned workers, bool testcases) {
  const snapshot::RunManifest manifest = snapshot::readManifest(dir);
  const auto decoded =
      trace::decodeCollectScenarioSpec(manifest.scenarioSpec);
  if (!decoded) {
    std::fprintf(stderr,
                 "manifest has no decodable scenario spec (\"%s\"); resume "
                 "this run from the program that started it\n",
                 manifest.scenarioSpec.c_str());
    return 1;
  }
  ParallelConfig parallel;
  parallel.workers = workers;
  parallel.horizon = manifest.horizon;
  // The recorded spec says whether the run generates test cases;
  // --testcases on a run without them changes the spec, and the resume
  // refuses the directory.
  parallel.collectTestcases = testcases || decoded->collectTestcases;
  parallel.checkpointDir = dir.string();
  parallel.resume = true;
  const trace::PartitionedCollectResult outcome = trace::runCollectPartitioned(
      decoded->config, parallel, decoded->numPartitionVariables);
  std::printf("outcome            %s\n",
              std::string(runOutcomeName(outcome.result.outcome)).c_str());
  std::printf("total states       %llu\n",
              static_cast<unsigned long long>(outcome.result.totalStates));
  std::printf("total events       %llu\n",
              static_cast<unsigned long long>(outcome.result.totalEvents));
  std::printf(
      "owned scenarios    %llu\n",
      static_cast<unsigned long long>(outcome.result.totalScenariosOwned));
  std::printf("fingerprint digest %016llx\n",
              static_cast<unsigned long long>(
                  outcome.result.fingerprintDigest()));
  return outcome.result.outcome == RunOutcome::kCompleted ? 0 : 2;
}

int usage() {
  std::fprintf(stderr,
               "usage: sde_checkpoint inspect  <file.ckpt | dir>\n"
               "       sde_checkpoint validate <dir>\n"
               "       sde_checkpoint resume   <dir> [--workers N] "
               "[--testcases]\n");
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string command = argv[1];
  const fs::path target = argv[2];

  try {
    if (command == "inspect") {
      if (fs::is_directory(target)) return surveyRunDir(target, true) ? 1 : 0;
      return inspectCheckpointFile(target);
    }
    if (command == "validate") {
      const int broken = surveyRunDir(target, false);
      if (broken != 0) {
        std::fprintf(stderr, "%d broken artifact(s) in %s\n", broken,
                     target.string().c_str());
        return 1;
      }
      std::printf("ok: manifest and all job files of %s parse cleanly\n",
                  target.string().c_str());
      return 0;
    }
    if (command == "resume") {
      unsigned workers = 1;
      bool testcases = false;
      for (int i = 3; i < argc; ++i) {
        if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc)
          workers = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
        else if (std::strcmp(argv[i], "--testcases") == 0)
          testcases = true;
        else
          return usage();
      }
      return resumeRun(target, workers, testcases);
    }
  } catch (const sde::snapshot::SnapshotError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}

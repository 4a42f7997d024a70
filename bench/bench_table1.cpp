// E1 — Table I: the 100-node (10x10 grid) scenario with symbolic packet
// drops, one row per state-mapping algorithm: runtime, number of states,
// RAM (the simulated meter, with the real resident memory beside it).
// As in the paper, COB does not finish — it is aborted at a resource cap
// and reported as such ("9h:39m (aborted)" in the paper). Each row runs
// in a forked child process of its own, so its Peak RSS is that row's
// high-water mark alone.
//
// Absolute numbers are testbed-specific (the paper used a 3.33 GHz Xeon
// with 64 GB RAM and real Contiki images under KLEE); the reproduced
// claims are the row *ordering* and the rough factors: COB aborted,
// COW finishing with an order of magnitude fewer states, SDS with yet
// another order less and the shortest runtime.
//
// Usage: bench_table1 [--width W] [--height H] [--time T]
//                     [--cob-state-cap N] [--cob-wall-cap SECONDS]
//                     [--paper]   (full 10-second simulation; slow)
//                     [--checkpoint-dir DIR] [--resume] [--trace-out DIR]
//                     [--merge] [--loop-summarize]  (state merging at
//                                     post-dominator joins / bounded loop
//                                     summarization on top; E22)
//
// With --checkpoint-dir, each algorithm's run periodically checkpoints
// (and checkpoints once more when a cap aborts it — the paper's COB
// abort suspends instead of discarding); --resume continues from the
// recorded checkpoints. With --trace-out, each algorithm's run streams
// a structured event trace to DIR/table1_<alg>.trc and prints a phase
// profile (where the wall-clock went) next to its table row.
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_args.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_io.hpp"
#include "sde/explode.hpp"
#include "trace/scenario.hpp"
#include "trace/table.hpp"

namespace {

constexpr const char* kUsage =
    "bench_table1 [--width W] [--height H] [--time T] [--cob-state-cap N] "
    "[--cob-wall-cap SECONDS] [--paper] [--checkpoint-dir DIR] [--resume] "
    "[--trace-out DIR] [--merge] [--loop-summarize]";

const std::vector<std::string> kColumns = {
    "State mapping algorithm", "Runtime", "States", "RAM", "Peak RAM",
    "RSS", "Peak RSS", "dstates/dscenarios", "dup (strict)",
    "dup (content)", "Merges"};

struct Options {
  std::uint32_t width = 10;
  std::uint32_t height = 10;
  std::uint64_t simulationTime = 5000;
  std::uint64_t cobStateCap = 1'100'000;
  double cobWallCap = 120.0;
  std::string checkpointDir;
  bool resume = false;
  std::string traceDir;
  bool merge = false;          // state merging at post-dominator joins
  bool loopSummarize = false;  // bounded loop summarization
};

Options parseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&] {
      return sde::bench::flagNumber(argc, argv, i, kUsage);
    };
    const auto text = [&] {
      return sde::bench::flagValue(argc, argv, i, kUsage);
    };
    if (arg == "--width") options.width = static_cast<std::uint32_t>(next());
    else if (arg == "--height")
      options.height = static_cast<std::uint32_t>(next());
    else if (arg == "--time") options.simulationTime = next();
    else if (arg == "--cob-state-cap") options.cobStateCap = next();
    else if (arg == "--cob-wall-cap")
      options.cobWallCap = static_cast<double>(next());
    else if (arg == "--paper")
      options.simulationTime = 10000;
    else if (arg == "--checkpoint-dir")
      options.checkpointDir = text();
    else if (arg == "--resume")
      options.resume = true;
    else if (arg == "--trace-out")
      options.traceDir = text();
    else if (arg == "--merge")
      options.merge = true;
    else if (arg == "--loop-summarize")
      options.loopSummarize = true;
    else
      sde::bench::usageError(kUsage, arg.c_str());
  }
  return options;
}

// Runs one mapper's row in this process and returns its cells.
std::vector<std::string> runRow(const Options& options, sde::MapperKind kind) {
  using namespace sde;
  trace::CollectScenarioConfig config;
  config.gridWidth = options.width;
  config.gridHeight = options.height;
  config.simulationTime = options.simulationTime;
  config.mapper = kind;
  if (kind == MapperKind::kCob) {
    // Emulates the paper's physical-memory abort of COB.
    config.engine.maxStates = options.cobStateCap;
    config.engine.maxWallSeconds = options.cobWallCap;
  }
  config.engine.mergeStates = options.merge;
  config.engine.loopSummarize = options.loopSummarize;
  trace::CollectScenario scenario(config);

  // Tracing + profiling attach before any checkpoint restore so a
  // resumed run continues its event stream (see Engine docs).
  std::ofstream traceStream;
  std::unique_ptr<obs::StreamTraceSink> traceSink;
  obs::PhaseProfiler profiler;
  std::filesystem::path tracePath;
  if (!options.traceDir.empty()) {
    std::filesystem::create_directories(options.traceDir);
    tracePath = std::filesystem::path(options.traceDir) /
                ("table1_" + std::string(mapperKindName(kind)) + ".trc");
    traceStream.open(tracePath, std::ios::binary | std::ios::trunc);
    obs::TraceHeader header;
    header.numNodes = options.width * options.height;
    header.mapper = std::string(mapperKindName(kind));
    header.scenario = "table1 grid " + std::to_string(options.width) + "x" +
                      std::to_string(options.height);
    traceSink = std::make_unique<obs::StreamTraceSink>(traceStream, header);
    scenario.engine().setTraceSink(traceSink.get());
    scenario.engine().setProfiler(&profiler);
  }

  std::filesystem::path ckpt;
  if (!options.checkpointDir.empty()) {
    ckpt = std::filesystem::path(options.checkpointDir) /
           ("table1_" + std::string(mapperKindName(kind)) + ".ckpt");
    if (trace::attachCheckpointing(scenario.engine(), ckpt, options.resume))
      std::fprintf(stderr, "[resume] %s from %s\n",
                   mapperKindName(kind).data(), ckpt.string().c_str());
  }

  const trace::ScenarioResult result = scenario.run();
  if (!ckpt.empty() && result.outcome == RunOutcome::kCompleted) {
    std::error_code ec;
    std::filesystem::remove(ckpt, ec);  // run finished: nothing to resume
  }

  std::string runtime = trace::formatDuration(result.wallSeconds);
  if (result.outcome != RunOutcome::kCompleted) runtime += " (aborted)";
  const std::vector<std::string> row = {
      std::string(mapperKindName(kind)), runtime,
      trace::formatCount(result.states),
      trace::formatBytes(result.memoryBytes),
      trace::formatBytes(result.peakMemoryBytes),
      trace::formatBytes(result.residentBytes),
      trace::formatBytes(result.peakResidentBytes),
      trace::formatCount(result.groups),
      trace::formatCount(result.duplicatesStrict.duplicateStates),
      trace::formatCount(result.duplicatesContent.duplicateStates),
      trace::formatCount(result.merges)};
  std::fprintf(stderr, "[done] %s: %s, %llu states\n",
               mapperKindName(kind).data(),
               runOutcomeName(result.outcome).data(),
               static_cast<unsigned long long>(result.states));

  if (traceSink != nullptr) {
    scenario.engine().setTraceSink(nullptr);
    scenario.engine().setProfiler(nullptr);
    traceSink->setProfile(profiler.profile());
    traceSink->close();
    std::fprintf(stderr, "[trace] %s -> %s\n", mapperKindName(kind).data(),
                 tracePath.string().c_str());
    std::printf("%s phase profile:\n%s", mapperKindName(kind).data(),
                profiler.profile().report().c_str());
  }
  return row;
}

// Runs one mapper's row in a forked child, which sends its cells back
// one per line, so the row's Peak RSS is its own high-water mark and not
// that of the rows before it. A child that dies leaves a row saying so.
std::vector<std::string> runRowInChild(const Options& options,
                                       sde::MapperKind kind) {
  int fds[2];
  if (::pipe(fds) != 0) {
    std::perror("pipe");
    std::exit(1);
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    std::exit(1);
  }
  if (pid == 0) {
    ::close(fds[0]);
    std::string cells;
    for (const std::string& cell : runRow(options, kind))
      cells += cell + "\n";
    std::fflush(stdout);
    std::fflush(stderr);
    const bool sent = ::write(fds[1], cells.data(), cells.size()) ==
                      static_cast<ssize_t>(cells.size());
    ::_exit(sent ? 0 : 1);
  }
  ::close(fds[1]);
  std::string cells;
  char buffer[4096];
  for (ssize_t n; (n = ::read(fds[0], buffer, sizeof(buffer))) != 0;) {
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) break;
    cells.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  std::vector<std::string> row;
  std::istringstream lines(cells);
  for (std::string cell; std::getline(lines, cell);) row.push_back(cell);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      row.size() != kColumns.size()) {
    row.assign(kColumns.size(), "-");
    row[0] = std::string(sde::mapperKindName(kind));
    row[1] = "(row process failed)";
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sde;
  const Options options = parseArgs(argc, argv);

  std::printf(
      "Table I — %ux%u grid (%u nodes), source->sink collect, symbolic "
      "packet drops, %llu time units simulated\n\n",
      options.width, options.height, options.width * options.height,
      static_cast<unsigned long long>(options.simulationTime));

  trace::TextTable table(kColumns);
  for (const MapperKind kind :
       {MapperKind::kCob, MapperKind::kCow, MapperKind::kSds})
    table.addRow(runRowInChild(options, kind));

  std::printf("%s", table.render().c_str());
  std::printf(
      "\nRAM and Peak RAM are the simulated meter; RSS and Peak RSS are the "
      "real resident memory at the end of each run and its high-water "
      "mark. Each row runs in a process of its own, so a row's Peak RSS "
      "is its own.\n");
  std::printf(
      "\nPaper reference (their testbed): COB 9h:39m aborted / 1,025,700 "
      "states / 38.1 GB; COW 1h:38m / 30,464 / 3.4 GB; SDS 19m / 4,159 / "
      "1.6 GB.\n");
  return 0;
}

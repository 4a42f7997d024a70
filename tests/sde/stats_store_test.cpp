// The counter store across the engine's surfaces: histograms stay out of
// checkpoints and .done files, the decoders of both accept series this
// binary never wrote, and engines on pool threads intern shared and
// fresh names at the same time (the last runs under ThreadSanitizer in
// scripts/verify.sh).
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "sde/parallel.hpp"
#include "snapshot/manifest.hpp"
#include "support/stats.hpp"
#include "support/thread_pool.hpp"
#include "trace/scenario.hpp"

namespace sde {
namespace {

using support::StatsRegistry;

trace::CollectScenarioConfig smallGrid() {
  trace::CollectScenarioConfig config;
  config.gridWidth = 3;
  config.gridHeight = 3;
  config.simulationTime = 3000;
  config.mapper = MapperKind::kSds;
  return config;
}

std::string checkpointBytes(const Engine& engine) {
  std::ostringstream out(std::ios::binary);
  engine.checkpoint(out);
  return out.str();
}

std::string doneBytes(const JobResult& result) {
  std::ostringstream out(std::ios::binary);
  snapshot::writeJobResult(out, result);
  return out.str();
}

// Replaces the one occurrence of `from` in `bytes` by `to` (same length,
// so every length prefix stays valid).
std::string renamed(std::string bytes, const std::string& from,
                    const std::string& to) {
  EXPECT_EQ(from.size(), to.size());
  const std::size_t at = bytes.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  EXPECT_EQ(bytes.find(from, at + 1), std::string::npos) << from;
  if (at != std::string::npos) bytes.replace(at, from.size(), to);
  return bytes;
}

TEST(StatsStore, HistogramsNeverReachCheckpointsOrDoneFiles) {
  trace::CollectScenario scenario(smallGrid());
  const RunOutcome outcome = scenario.run().outcome;
  ASSERT_EQ(outcome, RunOutcome::kCompleted);
  Engine& engine = scenario.engine();
  // Test-case generation is what queries the solver on this scenario.
  ParallelConfig withTestcases;
  withTestcases.collectTestcases = true;
  const JobResult result =
      collectJobResult(engine, PartitionJob{}, withTestcases, outcome);
  ASSERT_FALSE(result.testcases.empty());

  // The solver's per-layer latency histograms are populated...
  std::size_t histograms = 0;
  for (const auto& series : engine.solverStats().series())
    if (series.histogram != nullptr && series.histogram->count > 0)
      ++histograms;
  ASSERT_GT(histograms, 0u);

  // ...but only scalars are serialized.
  const std::string checkpoint = checkpointBytes(engine);
  EXPECT_EQ(checkpoint.find("latency_ns"), std::string::npos);
  EXPECT_NE(checkpoint.find("solver.layer.enumerate.nanos"),
            std::string::npos);

  const std::string done = doneBytes(result);
  EXPECT_NE(done.find("solver.layer.enumerate.nanos"), std::string::npos);
  EXPECT_EQ(done.find("latency_ns"), std::string::npos);
  std::istringstream in(done, std::ios::binary);
  const JobResult back = snapshot::readJobResult(in);
  EXPECT_EQ(back.stats.all(), result.stats.all());
  for (const auto& series : back.stats.series())
    EXPECT_EQ(series.histogram, nullptr) << series.name;
}

TEST(StatsStore, DecodersAcceptSeriesThisBinaryNeverWrote) {
  // .done files: a name nothing in this process interned before decoding
  // (the bytes are renamed after encoding), one of them counted by 0.
  JobResult written;
  written.stats.set(StatsRegistry::id("stats_store.done.aaaa"), 7);
  written.stats.add(StatsRegistry::id("stats_store.done.zero_aaaa"), 0);
  std::string bytes = renamed(doneBytes(written), "stats_store.done.aaaa",
                              "stats_store.done.bbbb");
  bytes = renamed(bytes, "stats_store.done.zero_aaaa",
                  "stats_store.done.zero_bbbb");
  std::istringstream in(bytes, std::ios::binary);
  const JobResult read = snapshot::readJobResult(in);
  EXPECT_EQ(read.stats.all(), (std::map<std::string, std::uint64_t>{
                                  {"stats_store.done.bbbb", 7},
                                  {"stats_store.done.zero_bbbb", 0}}));

  // Checkpoints: rename an engine counter in the stats section; the
  // restored engine carries it under the new name.
  trace::CollectScenario scenario(smallGrid());
  ASSERT_EQ(scenario.run().outcome, RunOutcome::kCompleted);
  const std::uint64_t packets =
      scenario.engine().stats().get("engine.packets");
  ASSERT_GT(packets, 0u);
  const std::string checkpoint = renamed(checkpointBytes(scenario.engine()),
                                         "engine.packets", "engine.packetz");
  trace::CollectScenario resumed(smallGrid());
  std::istringstream ckptIn(checkpoint, std::ios::binary);
  resumed.engine().restore(ckptIn);
  EXPECT_EQ(resumed.engine().stats().get("engine.packetz"), packets);
  EXPECT_EQ(resumed.engine().stats().all().count("engine.packets"), 0u);
}

// Eight engines on eight pool threads: their first writes intern the
// engine's series concurrently (each statId site initialises once),
// while every thread's sampler also interns names no other thread uses.
TEST(StatsStore, EnginesOnEightPoolThreadsInternSharedAndFreshNames) {
  constexpr unsigned kThreads = 8;
  trace::CollectScenario scenario(smallGrid());
  const EngineFactory factory = scenario.engineFactory();
  std::vector<std::map<std::string, std::uint64_t>> engineStats(kThreads);
  std::vector<StatsRegistry> samplerStats(kThreads);
  {
    support::ThreadPool pool(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
      pool.submit([&, t] {
        std::unique_ptr<Engine> engine = factory(PartitionJob{});
        unsigned samples = 0;
        engine->setSampler([&, t](const Engine&) {
          samplerStats[t].add(StatsRegistry::id(
              "stats_store.thread" + std::to_string(t) + ".sample" +
              std::to_string(samples++ % 16)));
        });
        EXPECT_EQ(engine->run(smallGrid().simulationTime),
                  RunOutcome::kCompleted);
        engineStats[t] = engine->stats().all();
      });
    }
    pool.wait();
  }
  ASSERT_FALSE(engineStats[0].empty());
  for (unsigned t = 0; t < kThreads; ++t) {
    EXPECT_EQ(engineStats[t], engineStats[0]) << "thread " << t;
    const auto fresh = samplerStats[t].all();
    ASSERT_FALSE(fresh.empty());
    for (const auto& [name, value] : fresh)
      EXPECT_EQ(name.rfind("stats_store.thread" + std::to_string(t) + ".", 0),
                0u)
          << name;
  }
}

}  // namespace
}  // namespace sde

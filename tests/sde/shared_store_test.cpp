// The durable files of a run, seen from both runners (the thread runner
// and the fleet run every job through one job runner and open, seed and
// persist the shared query store through one path,
// snapshot/shared_cache_io.hpp):
//  - a run resumed from a finished run's manifest and sidecar alone
//    re-runs every job against the seeded store, and its own stats show
//    shared hits and no shared-layer miss;
//  - a resume over a corrupt sidecar — a count that overruns the file,
//    or a flipped model value — starts cold and still reaches the
//    uninterrupted run's digest;
//  - a resume over a .done file with a corrupt count re-runs that job,
//    and one over a checkpoint with a corrupt count restarts that job,
//    and both reach the uninterrupted run's digest;
//  - the sidecar, .done and manifest decoders meet every truncation and
//    every single-bit flip of a real file by decoding or by throwing
//    SnapshotError, and the sidecar's checksum rejects every flip; the
//    checkpoint decoder meets every truncation and every byte's top-bit
//    flip of each mapper's real checkpoint the same way, and rejects a
//    checkpoint whose state-id allocator has its top bit set.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>

#include "expr/context.hpp"
#include "mutation_battery.hpp"
#include "sde/fleet.hpp"
#include "snapshot/checkpoint.hpp"
#include "snapshot/error.hpp"
#include "snapshot/manifest.hpp"
#include "snapshot/reader.hpp"
#include "snapshot/shared_cache_io.hpp"
#include "snapshot/writer.hpp"
#include "trace/scenario.hpp"

namespace sde {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kVars = 3;

enum class Runner { kThreads, kFleet };

std::string runnerName(const ::testing::TestParamInfo<Runner>& info) {
  return info.param == Runner::kThreads ? "Threads" : "Fleet";
}

trace::CollectScenarioConfig smallGrid() {
  trace::CollectScenarioConfig config;
  config.gridWidth = 5;
  config.gridHeight = 5;
  config.simulationTime = 2500;
  config.mapper = MapperKind::kSds;
  return config;
}

// One directory per process: ctest runs each instance of a
// parameterized test in its own process, concurrently.
fs::path freshDir(const std::string& name) {
  const fs::path dir =
      fs::path(::testing::TempDir()) /
      ("sde_" + name + "_" + std::to_string(static_cast<long>(::getpid())));
  fs::remove_all(dir);
  return dir;
}

// smallGrid with a per-engine state cap far below a job's total, so
// every job stops early and leaves a checkpoint.
trace::CollectScenarioConfig cappedGrid() {
  trace::CollectScenarioConfig config = smallGrid();
  config.engine.maxStates = 20;
  return config;
}

// A durable run of smallGrid with test-case generation (the traffic that
// reaches the shared store) over `dir`, its engines built from `engines`.
// The manifest always records smallGrid, so a resume of a cappedGrid run
// is the same run with the cap lifted.
ParallelResult runDurable(
    Runner runner, const fs::path& dir, bool resume,
    const trace::CollectScenarioConfig& engines = smallGrid()) {
  const std::string spec = trace::encodeCollectScenarioSpec(smallGrid(), kVars);
  if (runner == Runner::kThreads) {
    ParallelConfig threads;
    threads.workers = 2;
    threads.collectTestcases = true;
    threads.checkpointDir = dir.string();
    threads.resume = resume;
    threads.scenarioSpec = spec;
    return trace::runCollectPartitioned(engines, threads, kVars).result;
  }
  FleetConfig fleet;
  fleet.processes = 2;
  fleet.collectTestcases = true;
  fleet.checkpointDir = dir.string();
  fleet.resume = resume;
  fleet.scenarioSpec = spec;
  return trace::runCollectFleet(engines, fleet, kVars).result;
}

// Leaves only the manifest and the sidecar: every job of a resume then
// runs fresh.
void keepManifestAndSidecar(const fs::path& dir) {
  const fs::path manifest = snapshot::manifestPath(dir);
  const fs::path sidecar = snapshot::sharedCachePath(dir.string());
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.path() != manifest && entry.path() != sidecar)
      fs::remove_all(entry.path());
}

std::string readBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void writeBytes(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class SharedStoreResumeTest : public ::testing::TestWithParam<Runner> {};

TEST_P(SharedStoreResumeTest, WarmResumeHitsTheSeededStoreOnEveryQuery) {
  const fs::path dir = freshDir("shared_store_warm");
  const ParallelResult cold = runDurable(GetParam(), dir, /*resume=*/false);
  ASSERT_EQ(cold.outcome, RunOutcome::kCompleted);
  ASSERT_TRUE(fs::exists(snapshot::sharedCachePath(dir.string())))
      << "the run returned without writing its sidecar";

  keepManifestAndSidecar(dir);
  const ParallelResult warm = runDurable(GetParam(), dir, /*resume=*/true);
  ASSERT_EQ(warm.outcome, RunOutcome::kCompleted);
  EXPECT_EQ(warm.fingerprintDigest(), cold.fingerprintDigest());
  EXPECT_EQ(warm.testcases, cold.testcases);
  // Every job ran again (no .done was left), so these counts are the
  // resumed run's own: each shared-layer query found what the first run
  // published.
  const auto& stats = warm.stats;
  EXPECT_GT(stats.get("solver.layer.shared_cache.hits"), 0u);
  EXPECT_EQ(stats.get("solver.layer.shared_cache.queries"),
            stats.get("solver.layer.shared_cache.hits"))
      << "the seeded store missed a query the first run published";
  EXPECT_EQ(stats.get("solver.enum_runs"), 0u);
  fs::remove_all(dir);
}

// Byte offset of the first model value in a sidecar (see
// writeSharedCacheEntries for the layout); 0 when no entry has one.
std::size_t firstModelValueOffset(const std::string& sidecar) {
  std::istringstream in(sidecar);
  std::size_t offset = 8 + 4 + 8;  // magic, format, entry count
  for (const auto& [key, result] : snapshot::readSharedCacheEntries(in)) {
    offset += 8 + 8 * key.size() + 1 + 8;  // terms, key, status, bindings
    if (!result.model.empty())
      return offset + 8 + result.model.front().name.size() + 4;
    for (const solver::SharedBinding& binding : result.model)
      offset += 8 + binding.name.size() + 4 + 8;
  }
  return 0;
}

TEST_P(SharedStoreResumeTest, CorruptSidecarResumesColdToTheSameDigest) {
  const fs::path dir = freshDir("shared_store_corrupt");
  const ParallelResult cold = runDurable(GetParam(), dir, /*resume=*/false);
  ASSERT_EQ(cold.outcome, RunOutcome::kCompleted);
  const fs::path sidecar = snapshot::sharedCachePath(dir.string());
  const std::string intact = readBytes(sidecar);
  ASSERT_GT(intact.size(), 20u);

  // Two corruptions: the top byte of the entry count (a u64 after the
  // 8-byte magic and the u32 format) flipped, so the count promises
  // entries the file does not hold; and bit 0 of a model value flipped,
  // which decodes to a wrong model unless the checksum catches it.
  std::string badCount = intact;
  badCount[19] = static_cast<char>(badCount[19] ^ 0xff);
  std::string badValue = intact;
  const std::size_t value = firstModelValueOffset(intact);
  ASSERT_NE(value, 0u) << "no entry carries a model";
  badValue[value] = static_cast<char>(badValue[value] ^ 1);

  for (const std::string& corrupt : {badCount, badValue}) {
    keepManifestAndSidecar(dir);
    writeBytes(sidecar, corrupt);
    const ParallelResult resumed =
        runDurable(GetParam(), dir, /*resume=*/true);
    ASSERT_EQ(resumed.outcome, RunOutcome::kCompleted);
    EXPECT_EQ(resumed.fingerprintDigest(), cold.fingerprintDigest());
    EXPECT_EQ(resumed.testcases, cold.testcases);
    // Cold: the store had to be filled again.
    EXPECT_GT(resumed.stats.get("solver.enum_runs"), 0u);
  }
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Runners, SharedStoreResumeTest,
                         ::testing::Values(Runner::kThreads, Runner::kFleet),
                         runnerName);

class DoneFileResumeTest : public ::testing::TestWithParam<Runner> {};

TEST_P(DoneFileResumeTest, CorruptCountReRunsTheJobToTheSameDigest) {
  const fs::path dir = freshDir("done_corrupt_count");
  const ParallelResult cold = runDurable(GetParam(), dir, /*resume=*/false);
  ASSERT_EQ(cold.outcome, RunOutcome::kCompleted);

  // Flip the top byte of job 1's scenario-fingerprint count, the u64 at
  // byte 73 (after the 8-byte magic, the u32 version, the u32 job id,
  // the u8 outcome and seven 8-byte fields): the count now promises far
  // more fingerprints than the file holds.
  const fs::path done = snapshot::jobDonePath(dir, 1);
  std::string bytes = readBytes(done);
  ASSERT_GT(bytes.size(), 81u);
  bytes[80] = static_cast<char>(bytes[80] ^ 0x01);
  writeBytes(done, bytes);
  EXPECT_THROW((void)snapshot::readJobResultFile(done),
               snapshot::SnapshotError);

  const ParallelResult resumed = runDurable(GetParam(), dir, /*resume=*/true);
  ASSERT_EQ(resumed.outcome, RunOutcome::kCompleted);
  EXPECT_EQ(resumed.fingerprintDigest(), cold.fingerprintDigest());
  EXPECT_EQ(resumed.testcases, cold.testcases);
  // The job ran again and left a .done file that decodes.
  EXPECT_EQ(snapshot::readJobResultFile(done).scenarioFingerprints,
            cold.jobs[1].scenarioFingerprints);
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Runners, DoneFileResumeTest,
                         ::testing::Values(Runner::kThreads, Runner::kFleet),
                         runnerName);

// Byte offset of a checkpoint's memory-blob count, the u64 that follows
// the header and the expression table.
std::size_t blobCountOffset(const std::string& checkpoint) {
  std::istringstream is(checkpoint, std::ios::binary);
  (void)snapshot::inspectCheckpointHeader(is);
  snapshot::Reader in(is);
  expr::Context ctx;
  snapshot::readExprTable(in, ctx);
  return static_cast<std::size_t>(is.tellg());
}

// Restores `bytes` into an engine built like a smallGrid job's.
void restoreSmallGridJob(const std::string& bytes) {
  const trace::CollectScenario scenario(smallGrid());
  const std::unique_ptr<Engine> engine = scenario.engineFactory()({});
  std::istringstream in(bytes, std::ios::binary);
  engine->restore(in);
}

class CheckpointResumeTest : public ::testing::TestWithParam<Runner> {};

TEST_P(CheckpointResumeTest, CorruptCountRestartsTheJobToTheSameDigest) {
  const fs::path reference = freshDir("ckpt_corrupt_reference");
  const ParallelResult cold =
      runDurable(GetParam(), reference, /*resume=*/false);
  ASSERT_EQ(cold.outcome, RunOutcome::kCompleted);
  fs::remove_all(reference);

  const fs::path dir = freshDir("ckpt_corrupt_count");
  (void)runDurable(GetParam(), dir, /*resume=*/false, cappedGrid());
  const fs::path checkpoint = snapshot::jobCheckpointPath(dir, 1);
  ASSERT_TRUE(fs::exists(checkpoint)) << "the capped run left no checkpoint";

  // Set the top bit of job 1's memory-blob count: the count now promises
  // far more blobs than the file holds.
  std::string bytes = readBytes(checkpoint);
  ASSERT_NO_THROW(restoreSmallGridJob(bytes));
  const std::size_t count = blobCountOffset(bytes);
  ASSERT_LT(count + 8, bytes.size());
  bytes[count + 7] = static_cast<char>(bytes[count + 7] ^ 0x80);
  writeBytes(checkpoint, bytes);
  EXPECT_THROW(restoreSmallGridJob(bytes), snapshot::SnapshotError);

  const ParallelResult resumed = runDurable(GetParam(), dir, /*resume=*/true);
  ASSERT_EQ(resumed.outcome, RunOutcome::kCompleted);
  EXPECT_EQ(resumed.fingerprintDigest(), cold.fingerprintDigest());
  EXPECT_EQ(resumed.testcases, cold.testcases);
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Runners, CheckpointResumeTest,
                         ::testing::Values(Runner::kThreads, Runner::kFleet),
                         runnerName);

void decodeSidecar(const std::string& bytes) {
  std::istringstream in(bytes);
  (void)snapshot::readSharedCacheEntries(in);
}

TEST(SharedCacheSidecarTest, EveryTruncationAndBitFlipDecodesOrIsRejected) {
  const fs::path dir = freshDir("shared_store_fuzz");
  ASSERT_EQ(runDurable(Runner::kThreads, dir, /*resume=*/false).outcome,
            RunOutcome::kCompleted);
  const std::string sidecar =
      readBytes(snapshot::sharedCachePath(dir.string()));
  fs::remove_all(dir);
  {
    std::istringstream in(sidecar);
    ASSERT_FALSE(snapshot::readSharedCacheEntries(in).empty())
        << "the run published nothing; the battery would be vacuous";
  }
  test::expectEveryMutantDecodesOrIsRejected<snapshot::SnapshotError>(
      sidecar, decodeSidecar);

  // The checksum leaves no flip to decode: every one is rejected before
  // an entry could reach a store.
  std::string flipped = sidecar;
  for (std::size_t bit = 0; bit < 8 * sidecar.size(); ++bit) {
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    EXPECT_THROW(decodeSidecar(flipped), snapshot::SnapshotError)
        << "bit " << bit << " flipped";
    flipped[bit / 8] = sidecar[bit / 8];
  }
}

// The .done and manifest batteries run over a small real run: a 3x3 grid
// with one partition variable, test cases on.
fs::path smallDurableRun(const std::string& name) {
  trace::CollectScenarioConfig config;
  config.gridWidth = 3;
  config.gridHeight = 3;
  config.simulationTime = 2000;
  ParallelConfig durable;
  durable.collectTestcases = true;
  const fs::path dir = freshDir(name);
  durable.checkpointDir = dir.string();
  EXPECT_EQ(trace::runCollectPartitioned(config, durable, /*vars=*/1)
                .result.outcome,
            RunOutcome::kCompleted);
  return dir;
}

TEST(DoneFileDecoderTest, EveryTruncationAndBitFlipDecodesOrIsRejected) {
  const fs::path dir = smallDurableRun("done_fuzz");
  const std::string done = readBytes(snapshot::jobDonePath(dir, 0));
  fs::remove_all(dir);
  {
    std::istringstream in(done);
    const JobResult result = snapshot::readJobResult(in);
    ASSERT_FALSE(result.scenarioFingerprints.empty());
    ASSERT_FALSE(result.testcases.empty());
  }
  test::expectEveryMutantDecodesOrIsRejected<snapshot::SnapshotError>(
      done, [](const std::string& bytes) {
        std::istringstream in(bytes);
        (void)snapshot::readJobResult(in);
      });
}

// The merge barrier folds a job's fingerprint and test-case vectors as
// sorted-distinct sequences, so a .done file holding one that is not is
// corrupt: its job re-runs instead of breaking the union.
TEST(DoneFileDecoderTest, UnsortedOrRepeatedSetsAreRejected) {
  const auto roundTrip = [](const JobResult& result) {
    std::ostringstream out(std::ios::binary);
    snapshot::writeJobResult(out, result);
    std::istringstream in(out.str(), std::ios::binary);
    return snapshot::readJobResult(in);
  };
  JobResult sorted;
  sorted.scenarioFingerprints = {1, 2};
  sorted.stateFingerprints = {3, 4};
  sorted.testcases = {"a", "b"};
  EXPECT_EQ(roundTrip(sorted).testcases, sorted.testcases);

  JobResult unsortedCases = sorted;
  unsortedCases.testcases = {"b", "a"};
  EXPECT_THROW((void)roundTrip(unsortedCases), snapshot::SnapshotError);
  JobResult repeatedPrints = sorted;
  repeatedPrints.scenarioFingerprints = {2, 2};
  EXPECT_THROW((void)roundTrip(repeatedPrints), snapshot::SnapshotError);
  JobResult unsortedStates = sorted;
  unsortedStates.stateFingerprints = {4, 3};
  EXPECT_THROW((void)roundTrip(unsortedStates), snapshot::SnapshotError);
}

// The checkpoint batteries run over each mapper's engine checkpointed
// mid-run on a 2x2 grid with state merging on, after its first merges,
// so the merge side tables are in the file too.
class CheckpointDecoderTest : public ::testing::TestWithParam<MapperKind> {
 protected:
  void SetUp() override {
    trace::CollectScenarioConfig config;
    config.gridWidth = 2;
    config.gridHeight = 2;
    config.simulationTime = 4000;
    config.mapper = GetParam();
    config.engine.mergeStates = true;
    scenario_ = std::make_unique<trace::CollectScenario>(config);
    ASSERT_EQ(scenario_->engine().run(1500), RunOutcome::kCompleted);
    ASSERT_GT(scenario_->engine().stats().get("engine.merges"), 0u);
    std::ostringstream out(std::ios::binary);
    scenario_->engine().checkpoint(out);
    checkpoint_ = out.str();
    factory_ = scenario_->engineFactory();
  }

  // Restores `bytes` into a fresh engine of the scenario.
  void restore(const std::string& bytes) const {
    const std::unique_ptr<Engine> engine = factory_({});
    std::istringstream in(bytes, std::ios::binary);
    engine->restore(in);
  }

  // Expects `bytes` to be rejected with a SnapshotError that says `why`.
  void expectRejected(const std::string& bytes, const std::string& why) const {
    try {
      restore(bytes);
      ADD_FAILURE() << "a checkpoint whose error is \"" << why
                    << "\" restored";
    } catch (const snapshot::SnapshotError& error) {
      EXPECT_NE(std::string(error.what()).find(why), std::string::npos)
          << error.what();
    }
  }

  // The offset of `state`'s record. Each record starts with its id,
  // node, status, failure message, clock and pc; those bytes must occur
  // once in the file.
  std::size_t recordOf(const vm::ExecutionState& state) const {
    std::ostringstream header(std::ios::binary);
    snapshot::Writer out(header);
    out.u64(state.id());
    out.u32(state.node());
    out.u8(static_cast<std::uint8_t>(state.status));
    out.str(state.cold().failureMessage);
    out.u64(state.clock);
    out.u64(state.pc);
    const std::size_t record = checkpoint_.find(header.str());
    EXPECT_NE(record, std::string::npos);
    EXPECT_EQ(checkpoint_.find(header.str(), record + 1), std::string::npos)
        << "the record's header is not unique in the file";
    return record;
  }

  // The offset of `state`'s object table in its record: the next object
  // id, the object count, then (id, memory blob) pairs. Blobs are
  // numbered in first-encounter order over the states, objects in id
  // order, as the writer numbers them.
  std::size_t objectTableOf(const vm::ExecutionState& state) const {
    std::unordered_map<const void*, std::uint64_t> blobOf;
    for (const auto& other : scenario_->engine().states())
      for (const auto& [id, payload] : other->space.objects())
        blobOf.try_emplace(payload.get(), blobOf.size());
    std::ostringstream table(std::ios::binary);
    snapshot::Writer out(table);
    out.u64(state.space.nextObjectId());
    out.u64(state.space.numObjects());
    for (const auto& [id, payload] : state.space.objects()) {
      out.u64(id);
      out.u64(blobOf.at(payload.get()));
    }
    const std::size_t at = checkpoint_.find(table.str(), recordOf(state));
    EXPECT_NE(at, std::string::npos);
    return at;
  }

  // A state with at least two objects (the globals and a delivered
  // packet's payload).
  const vm::ExecutionState& stateWithTwoObjects() const {
    for (const auto& state : scenario_->engine().states())
      if (state->space.numObjects() >= 2) return *state;
    ADD_FAILURE() << "no state holds two objects";
    return *scenario_->engine().states().front();
  }

  std::unique_ptr<trace::CollectScenario> scenario_;
  std::string checkpoint_;
  EngineFactory factory_;
};

TEST_P(CheckpointDecoderTest,
       EveryTruncationAndTopBitFlipRestoresOrIsRejected) {
  ASSERT_NO_THROW(restore(checkpoint_));
  // Of the bit flips, each byte's top bit: the one that makes a count
  // overrun the file. Every bit would take eight times the restores.
  test::expectEveryMutantDecodesOrIsRejected<snapshot::SnapshotError>(
      checkpoint_, [this](const std::string& bytes) { restore(bytes); },
      0x80);
}

// A state-id allocator with its top bit set passes every count and id
// check, and the next fork would size the engine's dense per-state table
// from it. The restore must reject it: the allocator has to equal the
// ids the restored counters say were allocated. The allocator is the
// first of the engine scalars, which sit between the pending-event
// queues and the decision filter (empty here) and the engine's stats
// section, whose first name starts "engine.": six u64 fields before the
// section's count.
TEST_P(CheckpointDecoderTest, AnAllocatorWithItsTopBitSetIsRejected) {
  const Engine& engine = scenario_->engine();
  const std::uint64_t allocated = engine.stats().get("engine.initial_states") +
                                  engine.stats().get("engine.forks_total");
  const std::size_t firstName = checkpoint_.find("engine.");
  ASSERT_NE(firstName, std::string::npos);
  ASSERT_GE(firstName, 8u * 8);
  const std::size_t allocator = firstName - 8u * 8;
  std::uint64_t stored = 0;
  std::memcpy(&stored, checkpoint_.data() + allocator, sizeof(stored));
  ASSERT_EQ(stored, allocated) << "the allocator is not where the layout "
                                  "puts it";

  std::string corrupt = checkpoint_;
  corrupt[allocator + 7] = static_cast<char>(corrupt[allocator + 7] ^ 0x80);
  EXPECT_THROW(restore(corrupt), snapshot::SnapshotError);
}

// A state table that repeats an id passes the allocator and per-id
// range checks (both ids were allocated); the restore must reject it
// rather than let one state shadow the other in the dense id table.
// Each state record starts with its id, node, status, failure message,
// clock and pc: those bytes of the second record locate it.
TEST_P(CheckpointDecoderTest, ARepeatedStateIdIsRejected) {
  const Engine& engine = scenario_->engine();
  ASSERT_GE(engine.states().size(), 2u);
  const vm::ExecutionState& first = *engine.states()[0];
  const std::size_t record = recordOf(*engine.states()[1]);
  ASSERT_FALSE(HasFailure());

  std::string corrupt = checkpoint_;
  const std::uint64_t firstId = first.id();
  std::memcpy(corrupt.data() + record, &firstId, sizeof(firstId));
  expectRejected(corrupt, "duplicate state ids");
}

// A state's object table that repeats an id, or lists ids out of order,
// must be rejected: keeping one of two objects under a repeated id would
// restore a different state. Here the second object takes the first
// one's id, then an id below it.
TEST_P(CheckpointDecoderTest, ARepeatedOrUnsortedObjectIdIsRejected) {
  const vm::ExecutionState& state = stateWithTwoObjects();
  const std::size_t table = objectTableOf(state);
  ASSERT_FALSE(HasFailure());
  const std::size_t firstId = table + 2 * 8;
  const std::size_t secondId = firstId + 2 * 8;
  std::uint64_t id = 0;
  std::memcpy(&id, checkpoint_.data() + firstId, sizeof(id));

  std::string repeated = checkpoint_;
  std::memcpy(repeated.data() + secondId, &id, sizeof(id));
  expectRejected(repeated, "object ids repeat or are out of order");

  std::string unsorted = checkpoint_;
  const std::uint64_t second = id + 1;
  std::memcpy(unsorted.data() + firstId, &second, sizeof(second));
  std::memcpy(unsorted.data() + secondId, &id, sizeof(id));
  expectRejected(unsorted, "object ids repeat or are out of order");
}

// An object id at or above the state's next object id must be rejected:
// the state's next alloc would hand that id out again, and an insert
// under a taken id keeps the old object.
TEST_P(CheckpointDecoderTest, AnObjectIdAtTheNextObjectIdIsRejected) {
  const vm::ExecutionState& state = stateWithTwoObjects();
  const std::size_t table = objectTableOf(state);
  ASSERT_FALSE(HasFailure());
  const std::uint64_t next = state.space.nextObjectId();
  const std::size_t lastId =
      table + 2 * 8 + (state.space.numObjects() - 1) * 2 * 8;

  std::string corrupt = checkpoint_;
  std::memcpy(corrupt.data() + lastId, &next, sizeof(next));
  expectRejected(corrupt, "object id at or above its next object id");
}

INSTANTIATE_TEST_SUITE_P(
    Mappers, CheckpointDecoderTest,
    ::testing::Values(MapperKind::kCob, MapperKind::kCow, MapperKind::kSds),
    [](const ::testing::TestParamInfo<MapperKind>& info) {
      return std::string(mapperKindName(info.param));
    });

TEST(ManifestDecoderTest, EveryTruncationAndBitFlipDecodesOrIsRejected) {
  const fs::path dir = smallDurableRun("manifest_fuzz");
  const std::string manifest = readBytes(snapshot::manifestPath(dir));
  ASSERT_EQ(snapshot::readManifest(dir).plan.jobs.size(), 2u);
  test::expectEveryMutantDecodesOrIsRejected<snapshot::SnapshotError>(
      manifest, [&](const std::string& bytes) {
        writeBytes(snapshot::manifestPath(dir), bytes);
        (void)snapshot::readManifest(dir);
      });
  fs::remove_all(dir);
}

}  // namespace
}  // namespace sde

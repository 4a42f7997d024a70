#include "snapshot/manifest.hpp"

#include <algorithm>
#include <fstream>
#include <functional>
#include <string>

#include "snapshot/checkpoint.hpp"
#include "snapshot/reader.hpp"
#include "snapshot/writer.hpp"

namespace sde::snapshot {

namespace {

void checkVersion(std::uint32_t version) {
  if (version != kManifestVersion)
    throw SnapshotError("unsupported manifest version " +
                        std::to_string(version) + " (this build reads " +
                        std::to_string(kManifestVersion) + ")");
}

// A JobResult's fingerprint and test-case vectors are sorted distinct,
// and the merge barrier folds them as such; a file holding one that is
// not is corrupt.
template <typename T>
void requireSortedDistinct(const std::vector<T>& values) {
  if (std::adjacent_find(values.begin(), values.end(),
                         std::greater_equal<>()) != values.end())
    throw SnapshotError("job result file holds an unsorted set");
}

RunOutcome decodeOutcome(std::uint8_t raw) {
  if (raw > static_cast<std::uint8_t>(RunOutcome::kSuspended))
    throw SnapshotError("unknown run outcome in job result file");
  return static_cast<RunOutcome>(raw);
}

}  // namespace

bool sameRun(const RunManifest& a, const RunManifest& b) {
  if (a.scenarioSpec != b.scenarioSpec || a.horizon != b.horizon ||
      a.plan.variables != b.plan.variables ||
      a.plan.jobs.size() != b.plan.jobs.size())
    return false;
  for (std::size_t i = 0; i < a.plan.jobs.size(); ++i) {
    const PartitionJob& x = a.plan.jobs[i];
    const PartitionJob& y = b.plan.jobs[i];
    if (x.id != y.id || x.seed != y.seed || x.forced != y.forced) return false;
  }
  return true;
}

std::filesystem::path manifestPath(const std::filesystem::path& dir) {
  return dir / "manifest.sde";
}

std::filesystem::path jobCheckpointPath(const std::filesystem::path& dir,
                                        std::uint32_t jobId) {
  return dir / ("job_" + std::to_string(jobId) + ".ckpt");
}

std::filesystem::path jobDonePath(const std::filesystem::path& dir,
                                  std::uint32_t jobId) {
  return dir / ("job_" + std::to_string(jobId) + ".done");
}

std::filesystem::path metricsSnapshotPath(const std::filesystem::path& dir) {
  return dir / "metrics.sde";
}

void atomicWriteFile(const std::filesystem::path& path,
                     const std::function<void(std::ostream&)>& body) {
  std::filesystem::path tmp = path;
  tmp += ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os)
      throw SnapshotError("cannot open " + tmp.string() + " for writing");
    body(os);
    os.flush();
    if (!os)
      throw SnapshotError("write to " + tmp.string() +
                          " failed (disk full?)");
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec)
    throw SnapshotError("cannot rename " + tmp.string() + " to " +
                        path.string() + ": " + ec.message());
}

void writeManifest(const std::filesystem::path& dir,
                   const RunManifest& manifest) {
  atomicWriteFile(manifestPath(dir), [&](std::ostream& os) {
    Writer out(os);
    out.magic(kManifestMagic);
    out.u32(kManifestVersion);
    out.str(manifest.scenarioSpec);
    out.u64(manifest.horizon);
    out.u64(manifest.plan.variables.size());
    for (const std::string& name : manifest.plan.variables) out.str(name);
    out.u64(manifest.plan.jobs.size());
    for (const PartitionJob& job : manifest.plan.jobs) {
      out.u32(job.id);
      out.u64(job.seed);
      out.u64(job.forced.size());
      for (const auto& [name, value] : job.forced) {
        out.str(name);
        out.b(value);
      }
    }
  });
}

RunManifest readManifest(const std::filesystem::path& dir) {
  std::ifstream is(manifestPath(dir), std::ios::binary);
  if (!is)
    throw SnapshotError("cannot open run manifest " +
                        manifestPath(dir).string());
  Reader in(is);
  in.expectMagic(kManifestMagic, "not an SDE run manifest");
  checkVersion(in.u32());
  RunManifest manifest;
  manifest.scenarioSpec = in.str();
  manifest.horizon = in.u64();
  // Counts come from the file, so nothing is reserved from them: a
  // corrupt count runs into the end of the stream (SnapshotError), not
  // into an allocation it cannot make.
  const std::uint64_t numVariables = in.u64();
  for (std::uint64_t i = 0; i < numVariables; ++i)
    manifest.plan.variables.push_back(in.str());
  const std::uint64_t numJobs = in.u64();
  for (std::uint64_t i = 0; i < numJobs; ++i) {
    PartitionJob job;
    job.id = in.u32();
    job.seed = in.u64();
    const std::uint64_t numForced = in.u64();
    for (std::uint64_t f = 0; f < numForced; ++f) {
      std::string name = in.str();
      const bool value = in.b();
      job.forced.emplace_back(std::move(name), value);
    }
    manifest.plan.jobs.push_back(std::move(job));
  }
  return manifest;
}

bool prepareRunDir(const std::filesystem::path& dir,
                   const RunManifest& manifest, bool resume) {
  if (resume && std::filesystem::exists(manifestPath(dir))) {
    const RunManifest prior = readManifest(dir);
    if (!sameRun(prior, manifest))
      throw SnapshotError(
          "checkpoint directory " + dir.string() +
          " belongs to a different run (manifest mismatch); refusing to "
          "resume");
    return true;
  }
  for (const PartitionJob& job : manifest.plan.jobs) {
    std::error_code ec;
    std::filesystem::remove(jobCheckpointPath(dir, job.id), ec);
    std::filesystem::remove(jobDonePath(dir, job.id), ec);
  }
  writeManifest(dir, manifest);
  return false;
}

void writeJobResult(std::ostream& os, const JobResult& result) {
  Writer out(os);
  out.magic(kJobResultMagic);
  out.u32(kManifestVersion);
  out.u32(result.jobId);
  out.u8(static_cast<std::uint8_t>(result.outcome));
  out.u64(result.states);
  out.u64(result.events);
  out.u64(result.groups);
  out.u64(result.memoryBytes);
  out.u64(result.scenariosRepresented);
  out.u64(result.scenariosOwned);
  out.f64(result.wallSeconds);
  out.u64(result.scenarioFingerprints.size());
  for (const std::uint64_t print : result.scenarioFingerprints) out.u64(print);
  out.u64(result.stateFingerprints.size());
  for (const std::uint64_t print : result.stateFingerprints) out.u64(print);
  out.u64(result.testcases.size());
  for (const std::string& testcase : result.testcases) out.str(testcase);
  writeStats(out, result.stats);
}

JobResult readJobResult(std::istream& is) {
  Reader in(is);
  in.expectMagic(kJobResultMagic, "not an SDE job result file");
  checkVersion(in.u32());
  JobResult result;
  result.jobId = in.u32();
  result.outcome = decodeOutcome(in.u8());
  result.states = in.u64();
  result.events = in.u64();
  result.groups = in.u64();
  result.memoryBytes = in.u64();
  result.scenariosRepresented = in.u64();
  result.scenariosOwned = in.u64();
  result.wallSeconds = in.f64();
  // Counts come from the file: nothing is reserved from them (see
  // readManifest).
  const std::uint64_t numScenarioPrints = in.u64();
  for (std::uint64_t i = 0; i < numScenarioPrints; ++i)
    result.scenarioFingerprints.push_back(in.u64());
  const std::uint64_t numStatePrints = in.u64();
  for (std::uint64_t i = 0; i < numStatePrints; ++i)
    result.stateFingerprints.push_back(in.u64());
  const std::uint64_t numTestcases = in.u64();
  for (std::uint64_t i = 0; i < numTestcases; ++i)
    result.testcases.push_back(in.str(1u << 24));
  requireSortedDistinct(result.scenarioFingerprints);
  requireSortedDistinct(result.stateFingerprints);
  requireSortedDistinct(result.testcases);
  readStats(in, result.stats);
  return result;
}

void writeJobResultFile(const std::filesystem::path& path,
                        const JobResult& result) {
  atomicWriteFile(path,
                  [&](std::ostream& os) { writeJobResult(os, result); });
}

JobResult readJobResultFile(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is)
    throw SnapshotError("cannot open job result file " + path.string());
  return readJobResult(is);
}

}  // namespace sde::snapshot

// Durable-run file layout and the run manifest.
//
// A checkpointed partitioned run owns one directory:
//
//   <dir>/manifest.sde     what this run IS: scenario spec, horizon and
//                          the full partition plan. Written once at run
//                          start; a resume validates it and refuses to
//                          mix checkpoints of a different run.
//   <dir>/job_<id>.ckpt    the job's latest engine checkpoint
//                          (checkpoint.hpp format). Present while the
//                          job is unfinished or suspended.
//   <dir>/job_<id>.done    the job's serialized JobResult. Presence is
//                          the completion marker: a resume loads it and
//                          never re-runs the job (the checkpoint file is
//                          deleted once .done exists).
//
// All files are written atomically (temp file + rename), so a worker
// killed mid-write leaves either the previous file or none — never a
// torn one. Torn files can still appear after a hard machine crash;
// readers throw SnapshotError and the runner degrades gracefully (a bad
// .ckpt restarts that job from scratch, a bad .done re-runs it).
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <iosfwd>
#include <string_view>

#include "sde/parallel.hpp"
#include "snapshot/error.hpp"

namespace sde::snapshot {

inline constexpr std::string_view kManifestMagic = "SDEMANI";
inline constexpr std::string_view kJobResultMagic = "SDEJOBR";
// Bumped on any manifest or job-result layout change (same no-migration
// policy as kCheckpointVersion).
inline constexpr std::uint32_t kManifestVersion = 1;

struct RunManifest {
  std::string scenarioSpec;  // opaque scenario descriptor (see
                             // trace/scenario.hpp codec); empty when the
                             // caller resumes by reconstructing the
                             // scenario itself
  std::uint64_t horizon = 0;
  PartitionPlan plan;
};

// Do two manifests describe the same run (spec, horizon, variables and
// the complete job table)?
[[nodiscard]] bool sameRun(const RunManifest& a, const RunManifest& b);

[[nodiscard]] std::filesystem::path manifestPath(
    const std::filesystem::path& dir);
[[nodiscard]] std::filesystem::path jobCheckpointPath(
    const std::filesystem::path& dir, std::uint32_t jobId);
[[nodiscard]] std::filesystem::path jobDonePath(
    const std::filesystem::path& dir, std::uint32_t jobId);
// The durable merged-metrics sidecar of a completed fleet run
// (obs/metrics.hpp binary snapshot; written atomically next to the
// manifest).
[[nodiscard]] std::filesystem::path metricsSnapshotPath(
    const std::filesystem::path& dir);

// Runs `body` against a temporary file next to `path`, then renames it
// into place — readers never observe a partially written file. Throws
// SnapshotError if the stream goes bad (e.g. disk full).
void atomicWriteFile(const std::filesystem::path& path,
                     const std::function<void(std::ostream&)>& body);

void writeManifest(const std::filesystem::path& dir,
                   const RunManifest& manifest);
// Throws SnapshotError on missing/foreign/corrupt manifests.
[[nodiscard]] RunManifest readManifest(const std::filesystem::path& dir);

// Binds a run to its directory — the shared entry point of the thread
// runner and the process fleet. With `resume` set and a manifest
// present, validates it describes the same run (throws SnapshotError
// otherwise) and returns true; else clears leftover per-job files of
// any older run, writes the manifest, and returns false (fresh start).
// The directory must already exist.
bool prepareRunDir(const std::filesystem::path& dir,
                   const RunManifest& manifest, bool resume);

// Stream-level JobResult codec (exposed for the CLI inspector). The
// reader throws SnapshotError on a truncated or foreign file and on
// fingerprint or test-case vectors that are not sorted distinct.
void writeJobResult(std::ostream& os, const JobResult& result);
[[nodiscard]] JobResult readJobResult(std::istream& is);

void writeJobResultFile(const std::filesystem::path& path,
                        const JobResult& result);
[[nodiscard]] JobResult readJobResultFile(const std::filesystem::path& path);

}  // namespace sde::snapshot

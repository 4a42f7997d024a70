// Protocol codec (serve/protocol.hpp): every message round-trips through
// encode/decode unchanged, and malformed payloads fail loudly with
// ServeError instead of decoding into garbage — every truncation and bit
// flip of every message, and a count the payload cannot back, which
// must not cost an allocation.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <new>
#include <string>
#include <variant>
#include <vector>

#include "mutation_battery.hpp"
#include "serve/protocol.hpp"

namespace sde::serve {
namespace {

bool sanitizersActive() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

template <typename T>
T roundTrip(const T& message) {
  const Message decoded = decodeMessage(encodeMessage(Message(message)));
  EXPECT_TRUE(std::holds_alternative<T>(decoded));
  return std::get<T>(decoded);
}

TEST(ProtocolTest, SubmitRequestRoundTrips) {
  SubmitRequest request;
  request.tenant = "alice";
  request.priority = 7;
  request.processes = 3;
  request.scenarioSpec = "collect/1 width=4 height=4";
  request.collectTestcases = true;
  const SubmitRequest out = roundTrip(request);
  EXPECT_EQ(out.tenant, "alice");
  EXPECT_EQ(out.priority, 7u);
  EXPECT_EQ(out.processes, 3u);
  EXPECT_EQ(out.scenarioSpec, request.scenarioSpec);
  EXPECT_TRUE(out.collectTestcases);
}

TEST(ProtocolTest, StatusAndProgressRoundTrip) {
  JobStatus status;
  status.jobId = 42;
  status.tenant = "bob";
  status.priority = 2;
  status.processes = 4;
  status.state = JobState::kSuspended;
  status.partsDone = 3;
  status.partsTotal = 8;
  status.eventsSeen = 123456789;
  status.statesSeen = 987654321;
  status.digest = 0xdeadbeefcafef00dull;
  status.error = "n/a";

  StatusReply reply;
  reply.jobs = {status, status};
  const StatusReply out = roundTrip(reply);
  ASSERT_EQ(out.jobs.size(), 2u);
  EXPECT_EQ(out.jobs[1].jobId, 42u);
  EXPECT_EQ(out.jobs[1].state, JobState::kSuspended);
  EXPECT_EQ(out.jobs[1].digest, 0xdeadbeefcafef00dull);
  EXPECT_EQ(out.jobs[1].error, "n/a");

  ProgressFrame frame;
  frame.status = status;
  frame.final = true;
  const ProgressFrame outFrame = roundTrip(frame);
  EXPECT_TRUE(outFrame.final);
  EXPECT_EQ(outFrame.status.eventsSeen, 123456789u);
}

TEST(ProtocolTest, RemainingMessagesRoundTrip) {
  EXPECT_EQ(roundTrip(SubmitReply{99}).jobId, 99u);
  EXPECT_EQ(roundTrip(ErrorReply{"nope"}).message, "nope");
  EXPECT_EQ(roundTrip(StatusRequest{5}).jobId, 5u);
  EXPECT_EQ(roundTrip(WatchRequest{6}).jobId, 6u);
  EXPECT_EQ(roundTrip(CancelRequest{7}).jobId, 7u);
  EXPECT_EQ(roundTrip(CancelReply{JobState::kDone}).state, JobState::kDone);
  EXPECT_EQ(roundTrip(ListArtifactsRequest{8}).jobId, 8u);
  const ArtifactList list = roundTrip(ArtifactList{{"digest.txt", "a.trc"}});
  ASSERT_EQ(list.names.size(), 2u);
  EXPECT_EQ(list.names[1], "a.trc");
  FetchRequest fetch;
  fetch.jobId = 9;
  fetch.name = "digest.txt";
  EXPECT_EQ(roundTrip(fetch).name, "digest.txt");
  ArtifactReply artifact;
  artifact.name = "blob";
  artifact.bytes = std::string("\x00\x01\x02", 3);
  EXPECT_EQ(roundTrip(artifact).bytes.size(), 3u);
  (void)roundTrip(ShutdownRequest{});
  (void)roundTrip(ShutdownReply{});
  EXPECT_EQ(roundTrip(MetricsRequest{12}).jobId, 12u);
  EXPECT_EQ(roundTrip(MetricsRequest{}).jobId, 0u);  // service-wide
  MetricsReply metrics;
  metrics.prometheus = "# TYPE sde_engine_forks_total counter\n";
  metrics.snapshot = std::string("SDEMETRX\x01\x00", 10);  // binary-safe
  const MetricsReply outMetrics = roundTrip(metrics);
  EXPECT_EQ(outMetrics.prometheus, metrics.prometheus);
  EXPECT_EQ(outMetrics.snapshot, metrics.snapshot);
}

TEST(ProtocolTest, UnknownTagThrows) {
  std::string payload(1, '\xEE');
  EXPECT_THROW((void)decodeMessage(payload), ServeError);
  EXPECT_THROW((void)decodeMessage(std::string()), ServeError);
}

TEST(ProtocolTest, TruncatedPayloadThrowsNotGarbage) {
  SubmitRequest request;
  request.tenant = "alice";
  request.scenarioSpec = "collect/1 width=4";
  const std::string whole = encodeMessage(Message(request));
  // Every strict prefix must fail loudly (the tag-only prefix included).
  for (std::size_t cut = 1; cut < whole.size(); ++cut)
    EXPECT_THROW((void)decodeMessage(whole.substr(0, cut)), ServeError)
        << "prefix of " << cut << " bytes decoded";
}

// One instance of every Message alternative, in variant order, with
// every field set.
std::vector<Message> everyMessage() {
  JobStatus status;
  status.jobId = 42;
  status.tenant = "bob";
  status.priority = 2;
  status.processes = 4;
  status.state = JobState::kSuspended;
  status.partsDone = 3;
  status.partsTotal = 8;
  status.eventsSeen = 123456789;
  status.statesSeen = 987654321;
  status.digest = 0xdeadbeefcafef00dull;
  status.error = "n/a";
  SubmitRequest submit;
  submit.tenant = "alice";
  submit.priority = 7;
  submit.processes = 3;
  submit.scenarioSpec = "collect/1 width=4 height=4";
  submit.collectTestcases = true;
  MetricsReply metrics;
  metrics.prometheus = "# TYPE sde_engine_forks_total counter\n";
  metrics.snapshot = std::string("SDEMETRX\x01\x00", 10);
  return {submit,
          SubmitReply{99},
          ErrorReply{"nope"},
          StatusRequest{5},
          StatusReply{{status, status}},
          WatchRequest{6},
          ProgressFrame{status, true},
          CancelRequest{7},
          CancelReply{JobState::kDone},
          ListArtifactsRequest{8},
          ArtifactList{{"digest.txt", "a.trc"}},
          FetchRequest{9, "digest.txt"},
          ArtifactReply{"blob", std::string("\x00\x01\x02", 3)},
          ShutdownRequest{},
          ShutdownReply{},
          MetricsRequest{12},
          metrics};
}

TEST(ProtocolTest, EveryTruncationAndBitFlipOfEveryMessageDecodesOrIsRejected) {
  const std::vector<Message> messages = everyMessage();
  ASSERT_EQ(messages.size(), std::variant_size_v<Message>);
  for (std::size_t i = 0; i < messages.size(); ++i) {
    ASSERT_EQ(messages[i].index(), i);
    SCOPED_TRACE("message alternative " + std::to_string(i));
    test::expectEveryMutantDecodesOrIsRejected<ServeError>(
        encodeMessage(messages[i]),
        [](const std::string& bytes) { (void)decodeMessage(bytes); });
  }
}

// The size of this process's address space, in bytes (VmSize).
std::size_t addressSpaceBytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t pages = 0;
  statm >> pages;
  return pages * static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

// A 9-byte StatusReply that claims 2^20 jobs (120 MiB of JobStatus) has
// no byte to back a single one: decoding it must throw ServeError
// without allocating for the count. The decode runs in a forked child
// whose address space may grow by 64 MiB only, so an allocation from the
// count shows as std::bad_alloc.
TEST(ProtocolTest, ACountThePayloadCannotBackAllocatesNothing) {
  if (sanitizersActive())
    GTEST_SKIP() << "sanitizer runtimes need more address space";
  std::string payload = encodeMessage(Message(StatusReply{}));
  ASSERT_EQ(payload.size(), 9u);  // tag, then the u64 job count
  const std::uint64_t claimed = std::uint64_t{1} << 20;
  std::memcpy(payload.data() + 1, &claimed, sizeof(claimed));

  const pid_t child = ::fork();
  ASSERT_NE(child, -1);
  if (child == 0) {
    const rlim_t limit = addressSpaceBytes() + (64u << 20);
    const struct rlimit cap {limit, limit};
    if (::setrlimit(RLIMIT_AS, &cap) != 0) ::_exit(4);
    try {
      (void)decodeMessage(payload);
      ::_exit(1);
    } catch (const ServeError&) {
      ::_exit(0);
    } catch (const std::bad_alloc&) {
      ::_exit(2);
    } catch (...) {
      ::_exit(3);
    }
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "1: decoded, 2: std::bad_alloc, 3: another exception, "
         "4: setrlimit failed";
}

TEST(ProtocolTest, JobStateNamesAndTerminality) {
  EXPECT_EQ(jobStateName(JobState::kQueued), "queued");
  EXPECT_EQ(jobStateName(JobState::kRunning), "running");
  EXPECT_EQ(jobStateName(JobState::kSuspended), "suspended");
  EXPECT_EQ(jobStateName(JobState::kDone), "done");
  EXPECT_EQ(jobStateName(JobState::kFailed), "failed");
  EXPECT_EQ(jobStateName(JobState::kCancelled), "cancelled");
  EXPECT_FALSE(terminalJobState(JobState::kQueued));
  EXPECT_FALSE(terminalJobState(JobState::kRunning));
  EXPECT_FALSE(terminalJobState(JobState::kSuspended));
  EXPECT_TRUE(terminalJobState(JobState::kDone));
  EXPECT_TRUE(terminalJobState(JobState::kFailed));
  EXPECT_TRUE(terminalJobState(JobState::kCancelled));
}

}  // namespace
}  // namespace sde::serve

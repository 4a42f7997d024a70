// ShmMetricsPlane battery, mirroring shm_cache_property_test: segment
// lifecycle, publish/read roundtrip, validation rejections, aggregation
// across slots and seqlock consistency under a live writer thread.
#include "obs/metrics_shm.hpp"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>

namespace sde::obs {
namespace {

std::string uniqueName(const char* tag) {
  return std::string("/sde_mx_test_") + tag + "_" +
         std::to_string(::getpid());
}

struct SegmentGuard {
  std::string name;
  explicit SegmentGuard(std::string n) : name(std::move(n)) {
    ShmMetricsPlane::unlinkSegment(name);
  }
  ~SegmentGuard() { ShmMetricsPlane::unlinkSegment(name); }
};

using support::StatsRegistry;

MetricsSnapshot snapshotWith(const std::string& name, std::uint64_t value) {
  StatsRegistry reg;
  reg.add(StatsRegistry::id(name), value);
  return snapshotFromStats(reg);
}

TEST(ShmMetricsPlane, PublishReadRoundtripAcrossAttach) {
  SegmentGuard guard(uniqueName("roundtrip"));
  ShmMetricsConfig config;
  config.slots = 3;
  const auto writer = ShmMetricsPlane::create(guard.name, config);
  EXPECT_EQ(writer->slots(), 3u);

  EXPECT_FALSE(writer->read(0).has_value());  // never published
  EXPECT_FALSE(writer->read(7).has_value());  // out of range

  ASSERT_TRUE(writer->publish(0, snapshotWith("w.counter", 11)));
  ASSERT_TRUE(writer->publish(2, snapshotWith("w.counter", 31)));
  EXPECT_FALSE(writer->publish(3, snapshotWith("w.counter", 1)));  // range

  const auto reader = ShmMetricsPlane::attach(guard.name);
  const auto slot0 = reader->read(0);
  ASSERT_TRUE(slot0.has_value());
  EXPECT_EQ(slot0->value("w.counter"), 11u);
  EXPECT_FALSE(reader->read(1).has_value());

  // Aggregate folds every readable slot: 11 + 31.
  EXPECT_EQ(reader->aggregate().value("w.counter"), 42u);

  // Re-publish overwrites in place; readers see the newest snapshot.
  ASSERT_TRUE(writer->publish(0, snapshotWith("w.counter", 100)));
  EXPECT_EQ(reader->read(0)->value("w.counter"), 100u);
}

TEST(ShmMetricsPlane, PeakGaugesAggregateWithMax) {
  SegmentGuard guard(uniqueName("peaks"));
  ShmMetricsConfig config;
  config.slots = 4;
  const auto plane = ShmMetricsPlane::create(guard.name, config);
  const std::uint64_t peaks[4] = {120, 450, 90, 301};
  for (std::uint32_t slot = 0; slot < 4; ++slot) {
    StatsRegistry reg;
    reg.maxOf(StatsRegistry::id("engine.peak_states"), peaks[slot]);
    ASSERT_TRUE(plane->publish(slot, snapshotFromStats(reg)));
  }
  EXPECT_EQ(plane->aggregate().value("engine.peak_states"), 450u);
}

TEST(ShmMetricsPlane, OversizeSnapshotIsDroppedKeepingThePrevious) {
  SegmentGuard guard(uniqueName("oversize"));
  ShmMetricsConfig config;
  config.slots = 1;
  config.slotBytes = 128;  // tiny on purpose
  const auto plane = ShmMetricsPlane::create(guard.name, config);
  ASSERT_TRUE(plane->publish(0, snapshotWith("small", 1)));

  StatsRegistry big;
  for (int i = 0; i < 64; ++i)
    big.add(StatsRegistry::id("some.rather.long.metric.name." +
                              std::to_string(i)));
  EXPECT_FALSE(plane->publish(0, snapshotFromStats(big)));
  // The previous snapshot is still intact.
  const auto read = plane->read(0);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->value("small"), 1u);
}

TEST(ShmMetricsPlane, AttachRejectsMissingAndForeignSegments) {
  EXPECT_THROW((void)ShmMetricsPlane::attach(uniqueName("nonexistent")),
               ShmMetricsError);

  // A segment full of garbage fails magic validation.
  SegmentGuard guard(uniqueName("foreign"));
  const int fd =
      ::shm_open(guard.name.c_str(), O_CREAT | O_RDWR | O_EXCL, 0600);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::ftruncate(fd, 4096), 0);
  void* base =
      ::mmap(nullptr, 4096, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ASSERT_NE(base, MAP_FAILED);
  std::memset(base, 0x5A, 4096);
  ::munmap(base, 4096);
  ::close(fd);
  EXPECT_THROW((void)ShmMetricsPlane::attach(guard.name), ShmMetricsError);

  // A truncated segment (too small for its own geometry) is rejected
  // before any slot is touched.
  SegmentGuard small(uniqueName("truncated"));
  {
    const auto plane = ShmMetricsPlane::create(small.name);
    const int shrinkFd = ::shm_open(small.name.c_str(), O_RDWR, 0600);
    ASSERT_GE(shrinkFd, 0);
    ASSERT_EQ(::ftruncate(shrinkFd, 256), 0);
    ::close(shrinkFd);
    EXPECT_THROW((void)ShmMetricsPlane::attach(small.name), ShmMetricsError);
  }
}

TEST(ShmMetricsPlane, CreateReplacesAStaleSegment) {
  SegmentGuard guard(uniqueName("stale"));
  {
    const auto first = ShmMetricsPlane::create(guard.name);
    ASSERT_TRUE(first->publish(0, snapshotWith("old", 9)));
  }
  // The name still exists (nobody unlinked); a new run must get a
  // fresh, empty plane rather than inheriting the old snapshots.
  ASSERT_TRUE(ShmMetricsPlane::segmentExists(guard.name));
  const auto second = ShmMetricsPlane::create(guard.name);
  EXPECT_FALSE(second->read(0).has_value());
}

// Seqlock gate: a reader polling while a writer republishes
// continuously must only ever see internally consistent snapshots —
// the two mirrored counters are written with the same value, so any
// mix of two publishes would break the equality.
TEST(ShmMetricsPlane, TornReadsRetryUnderLiveWriter) {
  SegmentGuard guard(uniqueName("torn"));
  ShmMetricsConfig config;
  config.slots = 1;
  const auto plane = ShmMetricsPlane::create(guard.name, config);
  std::atomic<bool> stop{false};

  std::thread writer([&] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      MetricsSnapshot snap;
      MetricPoint point;
      point.kind = MetricKind::kCounter;
      point.value = ++i;
      snap.points.emplace("pair.a", point);
      snap.points.emplace("pair.b", point);
      EXPECT_TRUE(plane->publish(0, snap));
    }
  });

  const auto reader = ShmMetricsPlane::attach(guard.name);
  std::uint64_t seen = 0;
  std::uint64_t lastValue = 0;
  for (std::uint64_t attempts = 0; seen < 2000 && attempts < 10000000;
       ++attempts) {
    const auto snap = reader->read(0);
    if (!snap.has_value()) continue;  // torn through the retry budget: skip
    ++seen;
    const std::uint64_t a = snap->value("pair.a");
    ASSERT_EQ(a, snap->value("pair.b"));  // never a mixed snapshot
    ASSERT_GE(a, lastValue);              // publishes are ordered
    lastValue = a;
  }
  stop.store(true);
  writer.join();
  EXPECT_GE(seen, 2000u);
}

}  // namespace
}  // namespace sde::obs

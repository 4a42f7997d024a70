// ShmMetricsPlane battery, mirroring shm_cache_property_test:
// publish/read roundtrip across processes that share the plane's
// mapping through fork, aggregation across slots, oversize snapshots and
// seqlock consistency under a live writer thread.
#include "obs/metrics_shm.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <string>
#include <thread>

namespace sde::obs {
namespace {

using support::StatsRegistry;

MetricsSnapshot snapshotWith(const std::string& name, std::uint64_t value) {
  StatsRegistry reg;
  reg.add(StatsRegistry::id(name), value);
  return snapshotFromStats(reg);
}

// Publishes `snap` into `slot` from a forked child, which writes through
// the mapping it inherited, as a fleet worker does. True when the child
// reports that publish succeeded.
bool publishFromChild(ShmMetricsPlane& plane, std::uint32_t slot,
                      const MetricsSnapshot& snap) {
  const pid_t pid = ::fork();
  if (pid == 0) ::_exit(plane.publish(slot, snap) ? 0 : 1);
  int status = 0;
  return pid > 0 && ::waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
         WEXITSTATUS(status) == 0;
}

// The writers are forked children and the reader is the process that
// made the plane, as in a fleet: the children attach by inheriting the
// mapping.
TEST(ShmMetricsPlane, PublishReadRoundtripAcrossAttach) {
  ShmMetricsConfig config;
  config.slots = 3;
  ShmMetricsPlane plane(config);
  EXPECT_EQ(plane.slots(), 3u);

  EXPECT_FALSE(plane.read(0).has_value());  // never published
  EXPECT_FALSE(plane.read(7).has_value());  // out of range

  ASSERT_TRUE(publishFromChild(plane, 0, snapshotWith("w.counter", 11)));
  ASSERT_TRUE(publishFromChild(plane, 2, snapshotWith("w.counter", 31)));
  EXPECT_FALSE(publishFromChild(plane, 3, snapshotWith("w.counter", 1)));

  const auto slot0 = plane.read(0);
  ASSERT_TRUE(slot0.has_value());
  EXPECT_EQ(slot0->value("w.counter"), 11u);
  EXPECT_FALSE(plane.read(1).has_value());

  // Aggregate folds every readable slot: 11 + 31.
  EXPECT_EQ(plane.aggregate().value("w.counter"), 42u);

  // Re-publish overwrites in place; readers see the newest snapshot.
  ASSERT_TRUE(publishFromChild(plane, 0, snapshotWith("w.counter", 100)));
  EXPECT_EQ(plane.read(0)->value("w.counter"), 100u);
}

TEST(ShmMetricsPlane, PeakGaugesAggregateWithMax) {
  ShmMetricsConfig config;
  config.slots = 4;
  ShmMetricsPlane plane(config);
  const std::uint64_t peaks[4] = {120, 450, 90, 301};
  for (std::uint32_t slot = 0; slot < 4; ++slot) {
    StatsRegistry reg;
    reg.maxOf(StatsRegistry::id("engine.peak_states"), peaks[slot]);
    ASSERT_TRUE(plane.publish(slot, snapshotFromStats(reg)));
  }
  EXPECT_EQ(plane.aggregate().value("engine.peak_states"), 450u);
}

TEST(ShmMetricsPlane, OversizeSnapshotIsDroppedKeepingThePrevious) {
  ShmMetricsConfig config;
  config.slots = 1;
  config.slotBytes = 128;  // tiny on purpose
  ShmMetricsPlane plane(config);
  ASSERT_TRUE(plane.publish(0, snapshotWith("small", 1)));

  StatsRegistry big;
  for (int i = 0; i < 64; ++i)
    big.add(StatsRegistry::id("some.rather.long.metric.name." +
                              std::to_string(i)));
  EXPECT_FALSE(plane.publish(0, snapshotFromStats(big)));
  // The previous snapshot is still intact.
  const auto read = plane.read(0);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->value("small"), 1u);
}

// Seqlock gate: a reader polling while a writer republishes
// continuously must only ever see internally consistent snapshots —
// the two mirrored counters are written with the same value, so any
// mix of two publishes would break the equality.
TEST(ShmMetricsPlane, TornReadsRetryUnderLiveWriter) {
  ShmMetricsConfig config;
  config.slots = 1;
  ShmMetricsPlane plane(config);
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
      EXPECT_TRUE(plane.publish(0, snap));
    }
  });

  std::uint64_t seen = 0;
  std::uint64_t lastValue = 0;
  for (std::uint64_t attempts = 0; seen < 2000 && attempts < 10000000;
       ++attempts) {
    const auto snap = plane.read(0);
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

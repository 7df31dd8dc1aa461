// util/metrics: counters, gauges, histograms, the registry tree and its
// snapshot.
#include "util/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "util/rng.h"

namespace lwfs::metrics {
namespace {

TEST(MetricsTest, ConcurrentIncrementsSumExactly) {
  Registry registry;
  const Counter hits = registry.counter("hits");
  const Histogram latency = registry.histogram("latency_us");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hits.Add();
        latency.Record(static_cast<std::uint64_t>(t));
      }
    });
  }
  // A reader snapshots the registry while the writers run.
  std::uint64_t last_seen = 0;
  std::thread reader([&] {
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t seen = registry.Snapshot().Get("hits");
      EXPECT_GE(seen, last_seen);  // monotonic under concurrent bumps
      last_seen = seen;
    }
  });
  for (auto& t : threads) t.join();
  reader.join();
  const Snapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.Get("hits"), std::uint64_t{kThreads} * kPerThread);
  const Distribution d = snap.Total("latency_us").dist;
  EXPECT_EQ(d.count, std::uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(d.sum, std::uint64_t{kPerThread} * (kThreads * (kThreads - 1) / 2));
  EXPECT_EQ(d.max, std::uint64_t{kThreads - 1});
}

TEST(MetricsTest, QuantileIsWithinOneBucketOfTheSortedSample) {
  Registry registry;
  const Histogram h = registry.histogram("h");
  Rng rng(42);
  std::vector<std::uint64_t> samples;
  for (int i = 0; i < 10000; ++i) {
    // Log-uniform over [1, 2^30): every octave populated.
    const std::uint64_t v = (std::uint64_t{1} << rng.NextBelow(30)) +
                            rng.NextBelow(std::uint64_t{1} << 20);
    samples.push_back(v);
    h.Record(v);
  }
  std::sort(samples.begin(), samples.end());
  const Distribution d = registry.Snapshot().Total("h").dist;
  for (double q : {0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const std::size_t rank = static_cast<std::size_t>(std::max<double>(
        1, std::ceil(q * static_cast<double>(samples.size()))));
    const std::uint64_t exact = samples[rank - 1];
    const std::uint64_t got = d.Quantile(q);
    EXPECT_GE(got, exact) << "q=" << q;
    EXPECT_LE(static_cast<double>(got - exact),
              static_cast<double>(exact) / 8.0)
        << "q=" << q << " exact=" << exact << " got=" << got;
  }
  EXPECT_EQ(d.Quantile(1.0), samples.back());  // capped at the max
}

TEST(MetricsTest, SmallValuesAreExactAndHugeOnesClamp) {
  for (std::uint64_t v = 0; v < 8; ++v) {
    EXPECT_EQ(BucketOf(v), v);
    EXPECT_EQ(BucketHigh(v), v);
  }
  for (std::uint64_t v : {8ull, 9ull, 1000ull, 123456789ull, 1ull << 39}) {
    const std::size_t b = BucketOf(v);
    EXPECT_LE(v, BucketHigh(b)) << v;
    EXPECT_GT(v, BucketHigh(b - 1)) << v;  // buckets tile the value range
  }
  EXPECT_EQ(BucketOf(~std::uint64_t{0}), kHistogramBuckets - 1);
  EXPECT_EQ(BucketOf(std::uint64_t{1} << 40), kHistogramBuckets - 1);
}

TEST(MetricsTest, MergeEqualsRecordingTheUnion) {
  Registry registry;
  const Histogram a = registry.histogram("a");
  const Histogram b = registry.histogram("b");
  const Histogram both = registry.histogram("both");
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = rng.NextBelow(1'000'000);
    (i % 3 == 0 ? a : b).Record(v);
    both.Record(v);
  }
  const Snapshot snap = registry.Snapshot();
  Distribution merged = snap.Total("a").dist;
  merged.Merge(snap.Total("b").dist);
  EXPECT_EQ(merged, snap.Total("both").dist);
}

TEST(MetricsTest, ResetZeroesEverythingIncludingHighWaterMarks) {
  auto child = std::make_shared<Registry>();
  Registry root;
  root.Attach("child", child);
  const Counter c = root.counter("c");
  const Gauge depth = child->gauge("depth");
  const Histogram h = child->histogram("h");
  c.Add(3);
  depth.Set(9);
  depth.Set(2);
  h.Record(100);
  Snapshot snap = root.Snapshot();
  EXPECT_EQ(snap.Get("child.depth"), 2u);
  EXPECT_EQ(snap.Total("child.depth").high_water, 9u);

  root.Reset();
  snap = root.Snapshot();
  EXPECT_EQ(snap.Get("c"), 0u);
  EXPECT_EQ(snap.Get("child.depth"), 0u);
  EXPECT_EQ(snap.Total("child.depth").high_water, 0u);
  EXPECT_EQ(snap.Total("child.h").dist.count, 0u);
  EXPECT_EQ(snap.Total("child.h").dist.max, 0u);
  EXPECT_EQ(snap.Total("child.h").dist.Quantile(0.99), 0u);
  // Handles stay live after a reset.
  depth.Set(1);
  EXPECT_EQ(root.Snapshot().Total("child.depth").high_water, 1u);
}

TEST(MetricsTest, SnapshotOrderIsStableAndNamesAreHierarchical) {
  auto storage0 = std::make_shared<Registry>();
  auto storage1 = std::make_shared<Registry>();
  Registry deployment;
  // Attach and create out of order: the snapshot is name-ordered anyway.
  deployment.Attach("storage.1", storage1);
  deployment.Attach("storage.0", storage0);
  storage1->counter("rpc.replica.crc_drops").Add(2);
  storage0->counter("rpc.data.crc_drops").Add(1);
  storage0->counter("rpc.replica.crc_drops").Add(4);
  (void)deployment.counter("fabric.puts");
  const Snapshot first = deployment.Snapshot();
  std::vector<std::string> names;
  for (const auto& [name, value] : first.cells()) names.push_back(name);
  EXPECT_EQ(names, (std::vector<std::string>{
                       "fabric.puts", "storage.0.rpc.data.crc_drops",
                       "storage.0.rpc.replica.crc_drops",
                       "storage.1.rpc.replica.crc_drops"}));
  EXPECT_EQ(first.Json(), deployment.Snapshot().Json());
  EXPECT_EQ(first.Sum("storage.*.rpc.replica.crc_drops"), 6u);
  EXPECT_EQ(first.Sum("storage.*.rpc.*.crc_drops"), 7u);
  EXPECT_EQ(first.Sum("**.crc_drops"), 7u);
  EXPECT_EQ(first.Sum("storage.**"), 7u);
  EXPECT_EQ(first.Sum("storage.*.crc_drops"), 0u);
}

TEST(MetricsTest, SameNameResolvesToTheSameCell) {
  Registry registry;
  registry.counter("x").Add(2);
  registry.counter("x").Add(3);
  EXPECT_EQ(registry.Snapshot().Get("x"), 5u);
}

TEST(MetricsTest, JsonRendersEveryKind) {
  Registry registry;
  registry.counter("calls").Add(2);
  registry.gauge("depth").Set(5);
  registry.histogram("latency_us").Record(3);
  EXPECT_EQ(registry.Snapshot().Json(),
            "{\n"
            "  \"calls\": 2,\n"
            "  \"depth\": {\"value\": 5, \"hwm\": 5},\n"
            "  \"latency_us\": {\"count\": 1, \"sum\": 3, \"max\": 3, "
            "\"p50\": 3, \"p99\": 3, \"p999\": 3}\n"
            "}");
  EXPECT_EQ(Registry().Snapshot().Json(), "{}");
}

}  // namespace
}  // namespace lwfs::metrics

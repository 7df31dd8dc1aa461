// Unit tests for src/util: error model, wire format, stats, rng, queues,
// and the paper-derived machine tables.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "util/bytes.h"
#include "util/machines.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/sync_queue.h"

namespace lwfs {
namespace {

// ---- Status / Result -------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFound("object 7");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: object 7");
}

TEST(StatusTest, EveryErrorCodeHasAName) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::kInternal); ++c) {
    EXPECT_NE(ErrorCodeName(static_cast<ErrorCode>(c)), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = InvalidArgument("bad");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOnlyPayload) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(9);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 9);
}

Status FailIfNegative(int x) {
  if (x < 0) return InvalidArgument("negative");
  return OkStatus();
}

Result<int> DoubleIfOk(int x) {
  LWFS_RETURN_IF_ERROR(FailIfNegative(x));
  return x * 2;
}

TEST(ResultTest, ReturnIfErrorMacro) {
  EXPECT_EQ(*DoubleIfOk(3), 6);
  EXPECT_EQ(DoubleIfOk(-1).status().code(), ErrorCode::kInvalidArgument);
}

// ---- Encoder / Decoder ------------------------------------------------------

TEST(BytesTest, ScalarRoundTrip) {
  Encoder enc;
  enc.PutU8(0xAB);
  enc.PutU16(0x1234);
  enc.PutU32(0xDEADBEEF);
  enc.PutU64(0x0123456789ABCDEFULL);
  enc.PutI64(-77);
  enc.PutBool(true);
  enc.PutDouble(3.5);

  Decoder dec(enc.buffer());
  EXPECT_EQ(*dec.GetU8(), 0xAB);
  EXPECT_EQ(*dec.GetU16(), 0x1234);
  EXPECT_EQ(*dec.GetU32(), 0xDEADBEEFu);
  EXPECT_EQ(*dec.GetU64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(*dec.GetI64(), -77);
  EXPECT_TRUE(*dec.GetBool());
  EXPECT_DOUBLE_EQ(*dec.GetDouble(), 3.5);
  EXPECT_TRUE(dec.exhausted());
}

TEST(BytesTest, StringAndBytesRoundTrip) {
  Encoder enc;
  enc.PutString("hello lwfs");
  Buffer blob = {1, 2, 3, 4, 5};
  enc.PutBytes(ByteSpan(blob));
  enc.PutString("");

  Decoder dec(enc.buffer());
  EXPECT_EQ(*dec.GetString(), "hello lwfs");
  EXPECT_EQ(*dec.GetBytes(), blob);
  EXPECT_EQ(*dec.GetString(), "");
}

TEST(BytesTest, TruncatedIntegerFails) {
  Buffer b = {1, 2, 3};
  Decoder dec(b);
  EXPECT_FALSE(dec.GetU64().ok());
}

TEST(BytesTest, TruncatedByteStringFails) {
  Encoder enc;
  enc.PutU32(100);  // claims 100 bytes follow
  enc.PutU8(1);
  Decoder dec(enc.buffer());
  EXPECT_FALSE(dec.GetBytes().ok());
}

TEST(BytesTest, RawAndRest) {
  Encoder enc;
  enc.PutU32(7);
  enc.PutRaw(Buffer{9, 8, 7});
  Decoder dec(enc.buffer());
  EXPECT_EQ(*dec.GetU32(), 7u);
  EXPECT_EQ(dec.Rest().size(), 3u);
  auto raw = dec.GetRaw(3);
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ((*raw)[0], 9);
  EXPECT_FALSE(dec.GetRaw(1).ok());
}

class BytesSizesTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BytesSizesTest, PayloadRoundTripsAtAnySize) {
  const std::size_t n = GetParam();
  Buffer payload = PatternBuffer(n, /*seed=*/n + 1);
  Encoder enc;
  enc.PutBytes(ByteSpan(payload));
  Decoder dec(enc.buffer());
  auto out = dec.GetBytes();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, payload);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BytesSizesTest,
                         ::testing::Values(0, 1, 7, 8, 255, 4096, 65537));

TEST(BytesTest, PatternBufferIsDeterministicAndSeedSensitive) {
  EXPECT_EQ(PatternBuffer(64, 1), PatternBuffer(64, 1));
  EXPECT_NE(PatternBuffer(64, 1), PatternBuffer(64, 2));
}

// ---- Rng ---------------------------------------------------------------------

TEST(RngTest, DeterministicFromSeed) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng a(1);
  Rng child = a.Split();
  EXPECT_NE(a.NextU64(), child.NextU64());
}

TEST(RngTest, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, ExponentialHasRoughlyRightMean) {
  Rng rng(42);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.05);
}

// ---- Stats -------------------------------------------------------------------

TEST(StatsTest, MeanAndStddev) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(StatsTest, MergeMatchesSequential) {
  Rng rng(5);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble() * 10;
    all.Add(x);
    (i % 2 == 0 ? a : b).Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

// ---- SyncQueue -----------------------------------------------------------------

TEST(SyncQueueTest, FifoOrder) {
  SyncQueue<int> q;
  q.Push(1);
  q.Push(2);
  q.Push(3);
  EXPECT_EQ(*q.Pop(), 1);
  EXPECT_EQ(*q.Pop(), 2);
  EXPECT_EQ(*q.Pop(), 3);
}

TEST(SyncQueueTest, BoundedTryPushRejectsWhenFull) {
  SyncQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));  // full: the "I/O node rejects" path
  q.Pop();
  EXPECT_TRUE(q.TryPush(3));
}

TEST(SyncQueueTest, CloseDrainsThenSignalsEnd) {
  SyncQueue<int> q;
  q.Push(5);
  q.Close();
  EXPECT_FALSE(q.Push(6));
  EXPECT_EQ(*q.Pop(), 5);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(SyncQueueTest, PopForTimesOut) {
  SyncQueue<int> q;
  EXPECT_FALSE(q.PopFor(std::chrono::milliseconds(10)).has_value());
  q.Push(1);
  EXPECT_EQ(*q.PopFor(std::chrono::milliseconds(10)), 1);
}

TEST(SyncQueueTest, ManyProducersManyConsumers) {
  SyncQueue<int> q(64);
  constexpr int kPerProducer = 500;
  constexpr int kProducers = 4;
  std::atomic<int> sum{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q] {
      for (int i = 1; i <= kPerProducer; ++i) q.Push(i);
    });
  }
  for (int c = 0; c < 3; ++c) {
    threads.emplace_back([&q, &sum] {
      while (auto v = q.Pop()) sum.fetch_add(*v);
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[static_cast<std::size_t>(p)].join();
  q.Close();
  for (std::size_t c = kProducers; c < threads.size(); ++c) threads[c].join();
  EXPECT_EQ(sum.load(), kProducers * kPerProducer * (kPerProducer + 1) / 2);
}

// ---- Machine tables (Table 1 / Table 2) ------------------------------------------

TEST(MachinesTest, Table1MatchesPaper) {
  auto machines = Table1Machines();
  ASSERT_EQ(machines.size(), 4u);
  EXPECT_EQ(machines[0].name, "SNL Intel Paragon");
  EXPECT_EQ(machines[0].compute_nodes, 1840u);
  EXPECT_EQ(machines[0].io_nodes, 32u);
  EXPECT_EQ(machines[1].compute_nodes, 4510u);
  EXPECT_EQ(machines[2].compute_nodes, 10368u);
  EXPECT_EQ(machines[2].io_nodes, 256u);
  EXPECT_EQ(machines[3].compute_nodes, 65536u);
  EXPECT_EQ(machines[3].io_nodes, 1024u);
}

TEST(MachinesTest, Table1RatiosMatchPaper) {
  auto machines = Table1Machines();
  // Paper reports 58:1, 62:1, 41:1, 64:1 (rounded).
  EXPECT_EQ(std::lround(machines[0].Ratio()), 58);
  EXPECT_EQ(std::lround(machines[1].Ratio()), 62);
  EXPECT_EQ(std::lround(machines[2].Ratio()), 41);
  EXPECT_EQ(std::lround(machines[3].Ratio()), 64);
}

TEST(MachinesTest, RedStormTable2Values) {
  const RedStormSpec& rs = RedStorm();
  EXPECT_DOUBLE_EQ(rs.mpi_latency_1hop, 2.0e-6);
  EXPECT_DOUBLE_EQ(rs.link_bw, 6.0e9);
  EXPECT_DOUBLE_EQ(rs.bisection_bw, 2.3e12);
  EXPECT_DOUBLE_EQ(rs.io_node_raid_bw, 400e6);
  EXPECT_DOUBLE_EQ(rs.aggregate_io_bw, 50e9);
  // The §3.2 imbalance: ingress 15x faster than drain.
  EXPECT_NEAR(rs.link_bw / rs.io_node_raid_bw, 15.0, 1e-9);
}

TEST(MachinesTest, DevClusterMatchesSection4) {
  const DevClusterSpec& dc = DevCluster();
  EXPECT_EQ(dc.total_nodes, 40);
  EXPECT_EQ(dc.metadata_nodes, 1);
  EXPECT_EQ(dc.storage_nodes, 8);
  EXPECT_EQ(dc.compute_nodes, 31);
  EXPECT_EQ(dc.servers_per_storage_node, 2);
  EXPECT_EQ(dc.bytes_per_client, 512ull << 20);
}

TEST(MachinesTest, PetaflopExtrapolationConfig) {
  EXPECT_EQ(Petaflop().compute_nodes, 100000u);
  EXPECT_EQ(Petaflop().io_nodes, 2000u);
}

}  // namespace
}  // namespace lwfs

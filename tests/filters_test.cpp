// Tests for active-storage filters: the pure kernels and the end-to-end
// server-side execution path (§6 "remote filtering").
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/filters.h"
#include "core/runtime.h"
#include "util/rng.h"

namespace lwfs::core {
namespace {

Buffer DoublesToBytes(const std::vector<double>& values) {
  Buffer out(values.size() * 8);
  std::memcpy(out.data(), values.data(), out.size());
  return out;
}

std::vector<double> BytesToDoubles(const Buffer& raw) {
  std::vector<double> out(raw.size() / 8);
  std::memcpy(out.data(), raw.data(), out.size() * 8);
  return out;
}

// ---- Pure kernels ------------------------------------------------------------

TEST(FilterKernelTest, MinMaxSumCount) {
  FilterSpec spec;
  spec.kind = FilterKind::kMinMaxSumCount;
  auto result = ApplyFilter(spec, ByteSpan(DoublesToBytes({3, -1, 4, 1.5})));
  ASSERT_TRUE(result.ok());
  auto values = BytesToDoubles(*result);
  ASSERT_EQ(values.size(), 4u);
  EXPECT_DOUBLE_EQ(values[0], -1);
  EXPECT_DOUBLE_EQ(values[1], 4);
  EXPECT_DOUBLE_EQ(values[2], 7.5);
  EXPECT_DOUBLE_EQ(values[3], 4);
}

TEST(FilterKernelTest, MinMaxSumCountEmpty) {
  FilterSpec spec;
  spec.kind = FilterKind::kMinMaxSumCount;
  auto result = ApplyFilter(spec, {});
  ASSERT_TRUE(result.ok());
  auto values = BytesToDoubles(*result);
  EXPECT_DOUBLE_EQ(values[3], 0);
}

TEST(FilterKernelTest, Subsample) {
  FilterSpec spec;
  spec.kind = FilterKind::kSubsample;
  spec.stride = 3;
  auto result =
      ApplyFilter(spec, ByteSpan(DoublesToBytes({0, 1, 2, 3, 4, 5, 6, 7})));
  ASSERT_TRUE(result.ok());
  auto values = BytesToDoubles(*result);
  EXPECT_EQ(values, (std::vector<double>{0, 3, 6}));
}

TEST(FilterKernelTest, SubsampleStrideOneIsIdentity) {
  FilterSpec spec;
  spec.kind = FilterKind::kSubsample;
  spec.stride = 1;
  Buffer input = DoublesToBytes({5, 6, 7});
  auto result = ApplyFilter(spec, ByteSpan(input));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, input);
}

TEST(FilterKernelTest, SelectGreater) {
  FilterSpec spec;
  spec.kind = FilterKind::kSelectGreater;
  spec.threshold = 2.5;
  auto result =
      ApplyFilter(spec, ByteSpan(DoublesToBytes({1, 3, 2, 4, 2.5, 5})));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 3u * 8);
  Decoder dec(*result);
  EXPECT_EQ(*dec.GetU64(), 1u);
  EXPECT_EQ(*dec.GetU64(), 3u);
  EXPECT_EQ(*dec.GetU64(), 5u);
}

TEST(FilterKernelTest, Histogram) {
  FilterSpec spec;
  spec.kind = FilterKind::kHistogram;
  spec.lo = 0;
  spec.hi = 10;
  spec.bins = 5;
  auto result = ApplyFilter(
      spec, ByteSpan(DoublesToBytes({0, 1.9, 2, 5, 9.99, 10, -1, 4})));
  ASSERT_TRUE(result.ok());
  auto counts = BytesToDoubles(*result);
  // Bins [0,2) [2,4) [4,6) [6,8) [8,10); 10 and -1 fall outside.
  EXPECT_EQ(counts, (std::vector<double>{2, 1, 2, 0, 1}));
}

TEST(FilterKernelTest, RejectsBadInput) {
  FilterSpec spec;
  Buffer odd(13, 0);  // not a multiple of 8
  EXPECT_FALSE(ApplyFilter(spec, ByteSpan(odd)).ok());
  spec.kind = FilterKind::kSubsample;
  spec.stride = 0;
  EXPECT_FALSE(ApplyFilter(spec, {}).ok());
  spec.kind = FilterKind::kHistogram;
  spec.lo = 5;
  spec.hi = 5;
  EXPECT_FALSE(ApplyFilter(spec, {}).ok());
}

TEST(FilterKernelTest, SpecWireRoundTrip) {
  FilterSpec spec;
  spec.kind = FilterKind::kHistogram;
  spec.stride = 7;
  spec.threshold = 1.25;
  spec.lo = -3;
  spec.hi = 9;
  spec.bins = 12;
  Encoder enc;
  spec.Encode(enc);
  Decoder dec(enc.buffer());
  auto back = FilterSpec::Decode(dec).value();
  EXPECT_EQ(back.kind, spec.kind);
  EXPECT_EQ(back.stride, spec.stride);
  EXPECT_DOUBLE_EQ(back.threshold, spec.threshold);
  EXPECT_DOUBLE_EQ(back.lo, spec.lo);
  EXPECT_DOUBLE_EQ(back.hi, spec.hi);
  EXPECT_EQ(back.bins, spec.bins);
}

// ---- End-to-end through the storage server ---------------------------------------

class ActiveFilterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    runtime_ = core::ServiceRuntime::Start({}).value();
    runtime_->AddUser("u", "p", 1);
    client_ = runtime_->MakeClient();
    auto cred = client_->Login("u", "p").value();
    auto cid = client_->CreateContainer(cred).value();
    cap_ = client_->GetCap(cred, cid, security::kOpAll).value();
    read_cap_ = client_->GetCap(cred, cid, security::kOpRead).value();
    oid_ = client_->CreateObject(0, cap_).value();

    Rng rng(17);
    values_.resize(100000);
    for (double& v : values_) v = rng.NextDouble() * 100 - 50;
    ASSERT_TRUE(client_
                    ->WriteObject(0, cap_, oid_, 0,
                                  ByteSpan(DoublesToBytes(values_)))
                    .ok());
  }

  std::unique_ptr<ServiceRuntime> runtime_;
  std::unique_ptr<Client> client_;
  security::Capability cap_;
  security::Capability read_cap_;
  storage::ObjectId oid_;
  std::vector<double> values_;
};

TEST_F(ActiveFilterTest, RemoteReductionMatchesLocal) {
  FilterSpec spec;
  spec.kind = FilterKind::kMinMaxSumCount;
  auto result =
      client_->FilterObjectAlloc(0, read_cap_, oid_, 0, values_.size() * 8,
                                 spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto remote = BytesToDoubles(*result);

  double mn = values_[0], mx = values_[0], sum = 0;
  for (double v : values_) {
    mn = std::min(mn, v);
    mx = std::max(mx, v);
    sum += v;
  }
  EXPECT_DOUBLE_EQ(remote[0], mn);
  EXPECT_DOUBLE_EQ(remote[1], mx);
  EXPECT_NEAR(remote[2], sum, 1e-6);
  EXPECT_DOUBLE_EQ(remote[3], static_cast<double>(values_.size()));
}

// A filter reads through the server's one scheduled read path (staging
// reservation, elevator, modeled medium): one scheduler request per filter.
TEST_F(ActiveFilterTest, FilterReadsThroughTheScheduler) {
  FilterSpec spec;
  spec.kind = FilterKind::kMinMaxSumCount;
  const std::uint64_t before =
      runtime_->storage_server(0).metrics()->Snapshot().Get("sched.requests");
  auto result =
      client_->FilterObjectAlloc(0, read_cap_, oid_, 0, values_.size() * 8,
                                 spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::uint64_t after =
      runtime_->storage_server(0).metrics()->Snapshot().Get("sched.requests");
  EXPECT_EQ(after - before, 1u);
  EXPECT_DOUBLE_EQ(BytesToDoubles(*result)[3],
                   static_cast<double>(values_.size()));
}

TEST_F(ActiveFilterTest, OnlyTheResultCrossesTheWire) {
  FilterSpec spec;
  spec.kind = FilterKind::kMinMaxSumCount;
  runtime_->fabric().metrics()->Reset();
  auto result =
      client_->FilterObjectAlloc(0, read_cap_, oid_, 0, values_.size() * 8,
                                 spec);
  ASSERT_TRUE(result.ok());
  const metrics::Snapshot stats = runtime_->fabric().metrics()->Snapshot();
  // 800 KB reduced to 32 bytes: total wire traffic stays tiny.
  EXPECT_LT(stats.Get("put_bytes") + stats.Get("get_bytes"), 2000u);
}

TEST_F(ActiveFilterTest, SubsampleOverRangeWindow) {
  FilterSpec spec;
  spec.kind = FilterKind::kSubsample;
  spec.stride = 10;
  // Filter only elements [1000, 2000).
  auto result =
      client_->FilterObjectAlloc(0, read_cap_, oid_, 1000 * 8, 1000 * 8, spec);
  ASSERT_TRUE(result.ok());
  auto remote = BytesToDoubles(*result);
  ASSERT_EQ(remote.size(), 100u);
  for (std::size_t i = 0; i < remote.size(); ++i) {
    EXPECT_DOUBLE_EQ(remote[i], values_[1000 + i * 10]);
  }
}

TEST_F(ActiveFilterTest, FilterRequiresReadCapability) {
  // A write-only capability on the right container: the op check fails.
  auto cred = client_->Login("u", "p").value();
  auto write_only =
      client_->GetCap(cred, cap_.cid, security::kOpWrite).value();
  FilterSpec spec;
  EXPECT_EQ(client_->FilterObjectAlloc(0, write_only, oid_, 0, 800, spec)
                .status()
                .code(),
            ErrorCode::kPermissionDenied);
  // A full capability on a *different* container: the object is not even
  // acknowledged to exist.
  auto other_cid = client_->CreateContainer(cred).value();
  auto other_cap = client_->GetCap(cred, other_cid, security::kOpAll).value();
  EXPECT_EQ(client_->FilterObjectAlloc(0, other_cap, oid_, 0, 800, spec)
                .status()
                .code(),
            ErrorCode::kNotFound);
}

TEST_F(ActiveFilterTest, TooSmallResultRegionIsRejected) {
  FilterSpec spec;
  spec.kind = FilterKind::kSubsample;
  spec.stride = 1;  // result as large as the input
  Buffer tiny(16, 0);
  auto outcome = client_->FilterObject(0, read_cap_, oid_, 0,
                                       values_.size() * 8, spec,
                                       MutableByteSpan(tiny));
  EXPECT_EQ(outcome.status().code(), ErrorCode::kResourceExhausted);
}

}  // namespace
}  // namespace lwfs::core

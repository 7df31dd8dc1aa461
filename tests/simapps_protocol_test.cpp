// Protocol-constant pinning: the simulator's cost model assumes specific
// message sequences per operation (one small request per create, bulk data
// moved by server-directed chunks, every PFS create touching the MDS).
// These tests measure the *real stack's* wire traffic with fabric counters
// and pin those constants, so the sim and the implementation cannot drift
// apart silently.
#include <gtest/gtest.h>

#include "core/runtime.h"
#include "pfs/pfs_runtime.h"
#include "test_io.h"

namespace lwfs {
namespace {

class LwfsProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::RuntimeOptions options;
    options.storage_servers = 2;
    options.storage.bulk_chunk_bytes = kChunk;
    auto rt = core::ServiceRuntime::Start(options);
    ASSERT_TRUE(rt.ok());
    runtime_ = std::move(*rt);
    runtime_->AddUser("u", "p", 1);
    client_ = runtime_->MakeClient();
    auto cred = client_->Login("u", "p");
    ASSERT_TRUE(cred.ok());
    auto cid = client_->CreateContainer(*cred);
    ASSERT_TRUE(cid.ok());
    cid_ = *cid;
    auto cap = client_->GetCap(*cred, *cid, security::kOpAll);
    ASSERT_TRUE(cap.ok());
    cap_ = *cap;
    // Warm the capability cache on both servers so steady-state counts
    // below contain no verify traffic — matching the simulator, which
    // (like Figure 8) acquires capabilities once, outside the timed loop.
    ASSERT_TRUE(client_->CreateObject(0, cap_).ok());
    ASSERT_TRUE(client_->CreateObject(1, cap_).ok());
  }

  static constexpr std::size_t kChunk = 64 << 10;

  std::unique_ptr<core::ServiceRuntime> runtime_;
  std::unique_ptr<core::Client> client_;
  storage::ContainerId cid_;
  security::Capability cap_;
};

TEST_F(LwfsProtocolTest, SteadyStateCreateIsOneRoundTripToTheStorageServer) {
  runtime_->fabric().metrics()->Reset();
  ASSERT_TRUE(client_->CreateObject(0, cap_).ok());
  const metrics::Snapshot stats = runtime_->fabric().metrics()->Snapshot();
  // Request + reply; no metadata server, no authorization traffic.
  EXPECT_EQ(stats.Get("puts"), 2u);
  EXPECT_EQ(stats.Get("gets"), 0u);
}

TEST_F(LwfsProtocolTest, FirstUseOfACapabilityAddsExactlyOneVerifyRoundTrip) {
  auto cap2 = client_->GetCap(client_->Login("u", "p").value(), cid_,
                              security::kOpCreate);
  ASSERT_TRUE(cap2.ok());
  runtime_->fabric().metrics()->Reset();
  ASSERT_TRUE(client_->CreateObject(0, *cap2).ok());
  const metrics::Snapshot stats = runtime_->fabric().metrics()->Snapshot();
  // create req/reply + verify req/reply (Figure 4-b).
  EXPECT_EQ(stats.Get("puts"), 4u);
}

TEST_F(LwfsProtocolTest, WritePullsExactlyCeilChunks) {
  auto oid = client_->CreateObject(0, cap_);
  ASSERT_TRUE(oid.ok());
  const std::size_t bytes = 3 * kChunk + 100;  // -> 4 pulls
  Buffer data = PatternBuffer(bytes, 1);
  runtime_->fabric().metrics()->Reset();
  ASSERT_TRUE(client_->WriteObject(0, cap_, *oid, 0, ByteSpan(data)).ok());
  const metrics::Snapshot stats = runtime_->fabric().metrics()->Snapshot();
  EXPECT_EQ(stats.Get("puts"), 2u);  // small request + small reply only
  EXPECT_EQ(stats.Get("gets"), 4u);  // server-directed pulls
  EXPECT_EQ(stats.Get("get_bytes"), bytes);
  // The requests really are small: the paper's whole point is that bulk
  // data never rides the request channel.
  EXPECT_LT(stats.Get("put_bytes"), 1000u);
}

// A read is one request and one reply, whatever its size: the server
// materializes the bytes under its own flow control and returns them in
// the reply frame, so the client registers no region and bulk data still
// never rides the request channel.
TEST_F(LwfsProtocolTest, ReadReturnsPayloadInOneReplyFrame) {
  auto oid = client_->CreateObject(0, cap_);
  ASSERT_TRUE(oid.ok());
  const std::size_t bytes = 2 * kChunk + 1;
  Buffer data = PatternBuffer(bytes, 2);
  ASSERT_TRUE(client_->WriteObject(0, cap_, *oid, 0, ByteSpan(data)).ok());
  runtime_->fabric().metrics()->Reset();
  auto back = testio::ReadObjectBytes(*client_, 0, cap_, *oid, 0, bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
  const metrics::Snapshot stats = runtime_->fabric().metrics()->Snapshot();
  EXPECT_EQ(stats.Get("gets"), 0u);
  // Small request + the reply carrying the payload; only request/reply
  // framing on top of the payload bytes.
  EXPECT_EQ(stats.Get("puts"), 2u);
  EXPECT_GE(stats.Get("put_bytes"), bytes);
  EXPECT_LT(stats.Get("put_bytes"), bytes + 1000);
}

class PfsProtocolTest : public ::testing::Test {
 protected:
  PfsProtocolTest()
      : core_(core::ServiceRuntime::Start({}).value()),
        fabric_(core_->fabric()) {}

  void SetUp() override {
    auto rt = pfs::PfsRuntime::Start(core_.get(), {});
    ASSERT_TRUE(rt.ok());
    runtime_ = std::move(*rt);
  }

  std::unique_ptr<core::ServiceRuntime> core_;
  portals::Fabric& fabric_;
  std::unique_ptr<pfs::PfsRuntime> runtime_;
};

TEST_F(PfsProtocolTest, CreateCostsClientMdsPlusMdsOstRoundTrips) {
  auto client = runtime_->MakeClient();
  fabric_.metrics()->Reset();
  ASSERT_TRUE(client->Create("/one-stripe", 1).ok());
  metrics::Snapshot stats = fabric_.metrics()->Snapshot();
  // client->MDS req/reply + MDS->OST create req/reply: the serialized MDS
  // path the simulator charges mds_create_time + stripe time for.
  EXPECT_EQ(stats.Get("puts"), 4u);

  fabric_.metrics()->Reset();
  ASSERT_TRUE(client->Create("/four-stripes", 4).ok());
  stats = fabric_.metrics()->Snapshot();
  EXPECT_EQ(stats.Get("puts"), 2u + 2u * 4u);  // one OST round trip per stripe
}

TEST_F(PfsProtocolTest, RelaxedWriteTouchesOnlyOsts) {
  auto client = runtime_->MakeClient(pfs::ConsistencyMode::kRelaxed);
  auto file = client->Create("/f", 1);
  ASSERT_TRUE(file.ok());
  Buffer data = PatternBuffer(100000, 1);
  fabric_.metrics()->Reset();
  ASSERT_TRUE(testio::WriteAt(*client, *file, 0, ByteSpan(data)).ok());
  const metrics::Snapshot stats = fabric_.metrics()->Snapshot();
  EXPECT_EQ(stats.Get("puts"), 2u);  // OST req/reply
  EXPECT_EQ(stats.Get("gets"), 1u);  // one pull (single chunk)
}

TEST_F(PfsProtocolTest, PosixWriteAddsTwoMdsLockRoundTrips) {
  auto client = runtime_->MakeClient(pfs::ConsistencyMode::kPosixLocking);
  auto file = client->Create("/locked", 1);
  ASSERT_TRUE(file.ok());
  Buffer data = PatternBuffer(1000, 1);
  fabric_.metrics()->Reset();
  ASSERT_TRUE(testio::WriteAt(*client, *file, 0, ByteSpan(data)).ok());
  const metrics::Snapshot stats = fabric_.metrics()->Snapshot();
  // lock try + reply, OST write + reply, unlock + reply — the 2-extra-MDS-
  // round-trips-per-write the simulator charges the shared-file model.
  EXPECT_EQ(stats.Get("puts"), 6u);
}

}  // namespace
}  // namespace lwfs

// Wire-level robustness: malformed, truncated, and random-garbage requests
// thrown at every service must produce clean errors (or clean drops),
// never crashes or hangs.  A storage server on an MPP faces thousands of
// clients; one buggy client must not take it down.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "core/protocol.h"
#include "core/wire.h"
#include "rpc/service.h"
#include "core/runtime.h"
#include "pfs/pfs_runtime.h"
#include "util/rng.h"
#include "test_io.h"

namespace lwfs {
namespace {

class RobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::RuntimeOptions options;
    options.storage_servers = 2;
    runtime_ = core::ServiceRuntime::Start(options).value();
    runtime_->AddUser("u", "p", 1);
    client_ = runtime_->MakeClient();
    auto cred = client_->Login("u", "p").value();
    auto cid = client_->CreateContainer(cred).value();
    cap_ = client_->GetCap(cred, cid, security::kOpAll).value();
    rpc_ = std::make_unique<rpc::RpcClient>(runtime_->fabric().CreateNic());
  }

  /// The nid of storage server 0.
  [[nodiscard]] portals::Nid storage_nid() const {
    return runtime_->deployment().storage[0];
  }

  std::unique_ptr<core::ServiceRuntime> runtime_;
  std::unique_ptr<core::Client> client_;
  security::Capability cap_;
  std::unique_ptr<rpc::RpcClient> rpc_;
};

TEST_F(RobustnessTest, CrashAfterDeliveryOfACreateAppliesItAndLosesTheReply) {
  const portals::Nid nid = storage_nid();
  storage::ObjectStore& store = runtime_->store(0);
  rpc::CallOptions once;
  once.timeout = std::chrono::milliseconds(100);
  once.max_retransmits = 0;
  auto create = [&] {
    return rpc::CallTyped<core::wire::ObjCreateRep>(
        *rpc_, nid, core::kOpObjCreate, core::wire::ObjCreateReq{cap_, 0},
        once);
  };
  // Warm the server's capability cache: the next create needs nothing but
  // the store, so the server may serve it on the delivering thread.
  ASSERT_TRUE(create().ok());
  const std::size_t before = store.List(cap_.cid)->size();

  // The server crashes right after the request reaches it: the create
  // still happens, but its reply is lost with the node.
  runtime_->fabric().injector().CrashAfterDelivery(nid);
  auto lost = create();
  EXPECT_FALSE(lost.ok());
  EXPECT_TRUE(runtime_->fabric().IsNodeDown(nid));
  runtime_->fabric().SetNodeDown(nid, false);
  EXPECT_EQ(store.List(cap_.cid)->size(), before + 1);
}

TEST_F(RobustnessTest, EmptyRequestBodiesRejectedCleanly) {
  for (rpc::Opcode op : {core::kOpObjCreate, core::kOpObjWrite,
                         core::kOpObjRead, core::kOpObjRemove,
                         core::kOpObjGetAttr, core::kOpObjList,
                         core::kOpObjTruncate, core::kOpObjFilter,
                         core::kOpTxnPrepare, core::kOpTxnCommit}) {
    auto reply = rpc_->Call(storage_nid(), op, {});
    EXPECT_FALSE(reply.ok()) << "opcode " << op;
  }
}

// An extent whose end wraps past 2^64 is refused before it reaches the
// store or the scheduler.  (Regression: a 64 KiB write at 2^64 - 101 used
// to return OK, store nothing, and leave the size at the wrapped end.)
TEST_F(RobustnessTest, WrappingExtentsAreRejected) {
  auto oid = client_->CreateObject(0, cap_).value();
  const Buffer head = PatternBuffer(100, 1);
  ASSERT_TRUE(client_->WriteObject(0, cap_, oid, 0, ByteSpan(head)).ok());
  const std::uint64_t wrapping = std::numeric_limits<std::uint64_t>::max() - 100;

  const Buffer payload = PatternBuffer(64 << 10, 2);
  EXPECT_EQ(client_->WriteObject(0, cap_, oid, wrapping, ByteSpan(payload))
                .code(),
            ErrorCode::kInvalidArgument);
  auto attr = client_->GetAttr(0, cap_, oid);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->size, head.size());

  Buffer out(64 << 10);
  EXPECT_EQ(client_->ReadObject(0, cap_, oid, wrapping, MutableByteSpan(out))
                .status()
                .code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(testio::ReadObjectSlice(*client_, 0, cap_, oid, wrapping, 64 << 10)
                .status()
                .code(),
            ErrorCode::kInvalidArgument);
  // The object is intact.
  auto back = testio::ReadObjectBytes(*client_, 0, cap_, oid, 0, 1 << 20);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, head);
}

// One read request materializes at most storage::kMaxReadBytes at the
// server; the client read call splits a longer extent into requests of
// that size.  (Regression: a single request could ask for a whole 1 TiB
// object.)
TEST_F(RobustnessTest, ReadRequestsAreBoundedAndClientReadsSplit) {
  constexpr std::uint64_t kLength = storage::kMaxReadBytes + 1;
  auto oid = client_->CreateObject(0, cap_).value();
  ASSERT_TRUE(client_->TruncateObject(0, cap_, oid, kLength).ok());

  auto raw = rpc::CallTyped<core::wire::IoMovedRep>(
      *rpc_, storage_nid(), core::kOpObjRead,
      core::wire::ObjReadReq{cap_, oid.value, 0, kLength});
  EXPECT_EQ(raw.status().code(), ErrorCode::kInvalidArgument);
  Buffer result(64, 0);
  EXPECT_EQ(client_
                ->FilterObject(0, cap_, oid, 0, kLength, core::FilterSpec{},
                               MutableByteSpan(result))
                .status()
                .code(),
            ErrorCode::kInvalidArgument);

  const std::uint64_t calls_before =
      client_->metrics()->Snapshot().Get("rpc.op.32.calls");
  auto split = testio::ReadObjectSlice(*client_, 0, cap_, oid, 0, kLength);
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  EXPECT_EQ(client_->metrics()->Snapshot().Get("rpc.op.32.calls") -
                calls_before,
            2u);
  ASSERT_EQ(split->size(), kLength);
  EXPECT_TRUE(std::all_of(split->span().begin(), split->span().end(),
                          [](std::uint8_t b) { return b == 0; }));
}

// No request may reach past storage::kMaxObjectBytes.  (Regression: one
// byte written at 2^62 made the memory store size its extent table for the
// whole range and the process died of bad_alloc; a truncate to 2^62 set up
// the same death for the next large read.)
TEST_F(RobustnessTest, ExtentsPastTheMaximumObjectSizeAreRejected) {
  auto oid = client_->CreateObject(0, cap_).value();
  const Buffer one(1, 7);
  EXPECT_EQ(client_->WriteObject(0, cap_, oid, 1ull << 62, ByteSpan(one))
                .code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(client_->WriteObject(0, cap_, oid, storage::kMaxObjectBytes,
                                 ByteSpan(one))
                .code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(testio::ReadObjectSlice(*client_, 0, cap_, oid, 0, 1ull << 62)
                .status()
                .code(),
            ErrorCode::kInvalidArgument);

  // The server still serves.
  ASSERT_TRUE(client_->WriteObject(0, cap_, oid, 0, ByteSpan(one)).ok());
  auto back = testio::ReadObjectBytes(*client_, 0, cap_, oid, 0, 16);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, one);

  EXPECT_EQ(client_->TruncateObject(0, cap_, oid, 1ull << 62).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(client_->TruncateObject(0, cap_, oid, storage::kMaxObjectBytes + 1)
                .code(),
            ErrorCode::kInvalidArgument);
  auto attr = client_->GetAttr(0, cap_, oid);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->size, one.size());
}

TEST_F(RobustnessTest, RandomGarbageRequestsNeverKillTheServer) {
  Rng rng(55);
  for (int trial = 0; trial < 500; ++trial) {
    const rpc::Opcode op =
        static_cast<rpc::Opcode>(rng.NextBelow(100));  // incl. unknown ops
    Buffer garbage = PatternBuffer(rng.NextBelow(200), rng.NextU64());
    rpc::CallOptions options;
    options.timeout = std::chrono::milliseconds(2000);
    auto reply = rpc_->Call(storage_nid(), op, ByteSpan(garbage), options);
    // Any clean error is fine; a timeout would mean a worker wedged.
    if (!reply.ok()) {
      ASSERT_NE(reply.status().code(), ErrorCode::kTimeout)
          << "server wedged at trial " << trial << " opcode " << op;
    }
  }
  // The server still works.
  EXPECT_TRUE(client_->CreateObject(0, cap_).ok());
}

TEST_F(RobustnessTest, TruncatedValidRequestsRejected) {
  // Take a well-formed create request and replay every truncation of it.
  Encoder req;
  cap_.Encode(req);
  req.PutU64(0);  // txid
  const Buffer& full = req.buffer();
  for (std::size_t keep = 0; keep < full.size(); keep += 5) {
    Buffer cut(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(keep));
    auto reply = rpc_->Call(storage_nid(), core::kOpObjCreate, ByteSpan(cut));
    EXPECT_FALSE(reply.ok()) << "kept " << keep;
  }
  EXPECT_TRUE(client_->CreateObject(0, cap_).ok());
}

TEST_F(RobustnessTest, GarbageAtAuthServicesRejected) {
  Rng rng(66);
  for (int trial = 0; trial < 200; ++trial) {
    Buffer garbage = PatternBuffer(rng.NextBelow(150), rng.NextU64());
    auto a = rpc_->Call(runtime_->deployment().authn,
                        static_cast<rpc::Opcode>(rng.NextBelow(20)),
                        ByteSpan(garbage));
    EXPECT_FALSE(a.ok());
    auto z = rpc_->Call(runtime_->deployment().authz,
                        static_cast<rpc::Opcode>(10 + rng.NextBelow(10)),
                        ByteSpan(garbage));
    EXPECT_FALSE(z.ok());
  }
  // Both services still answer legitimate requests.
  EXPECT_TRUE(client_->Login("u", "p").ok());
}

TEST_F(RobustnessTest, GarbageAtNamingAndLocksRejected) {
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    Buffer garbage = PatternBuffer(rng.NextBelow(100), rng.NextU64());
    (void)rpc_->Call(runtime_->deployment().naming,
                     static_cast<rpc::Opcode>(60 + rng.NextBelow(10)),
                     ByteSpan(garbage));
    (void)rpc_->Call(runtime_->deployment().locks,
                     static_cast<rpc::Opcode>(80 + rng.NextBelow(3)),
                     ByteSpan(garbage));
  }
  EXPECT_TRUE(client_->Mkdir("/still-alive", true).ok());
  auto lock = client_->TryLock(txn::LockKey{1, 1}, {0, 10},
                               txn::LockMode::kShared);
  EXPECT_TRUE(lock.ok());
}

TEST_F(RobustnessTest, RawPortalGarbageToRequestQueue) {
  // Bypass the RPC framing entirely: raw puts with junk match bits and
  // payloads straight into the request portal.
  auto nic = runtime_->fabric().CreateNic();
  Rng rng(88);
  for (int trial = 0; trial < 300; ++trial) {
    Buffer junk = PatternBuffer(rng.NextBelow(64), rng.NextU64());
    (void)nic->Put(storage_nid(), rpc::kRequestPortal, rng.NextU64(),
                   ByteSpan(junk), 0, rng.NextU64());
  }
  // Give workers a moment to chew through the junk, then verify health.
  EXPECT_TRUE(client_->CreateObject(0, cap_).ok());
}

TEST_F(RobustnessTest, PfsServersSurviveGarbage) {
  auto pfs = pfs::PfsRuntime::Start(runtime_.get(), {}).value();
  rpc::RpcClient raw(runtime_->fabric().CreateNic());
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    Buffer garbage = PatternBuffer(rng.NextBelow(120), rng.NextU64());
    (void)raw.Call(pfs->deployment().mds,
                   static_cast<rpc::Opcode>(100 + rng.NextBelow(10)),
                   ByteSpan(garbage));
  }
  auto client = pfs->MakeClient();
  EXPECT_TRUE(client->Create("/alive", 1).ok());
}

}  // namespace
}  // namespace lwfs

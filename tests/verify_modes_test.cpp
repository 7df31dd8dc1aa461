// The §3.1.2 design argument, executable: LWFS's cached-verify scheme vs.
// the NASD/T10 shared-key scheme.  Both authorize correctly in the happy
// path; they differ exactly where the paper says they do — revocation and
// trust.
#include <gtest/gtest.h>

#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "core/runtime.h"
#include "core/storage_server.h"
#include "core/wire.h"
#include "security/siphash.h"
#include "test_io.h"

namespace lwfs::core {
namespace {

class VerifyModesTest : public ::testing::TestWithParam<VerifyMode> {
 protected:
  void SetUp() override {
    RuntimeOptions options;
    options.storage_servers = 2;
    options.storage.verify_mode = GetParam();
    runtime_ = ServiceRuntime::Start(options).value();
    runtime_->AddUser("alice", "pw-a", 100);
    runtime_->AddUser("bob", "pw-b", 200);
    alice_ = runtime_->MakeClient();
    alice_cred_ = alice_->Login("alice", "pw-a").value();
    cid_ = alice_->CreateContainer(alice_cred_).value();
    alice_cap_ = alice_->GetCap(alice_cred_, cid_, security::kOpAll).value();
  }

  std::unique_ptr<ServiceRuntime> runtime_;
  std::unique_ptr<Client> alice_;
  security::Credential alice_cred_;
  storage::ContainerId cid_;
  security::Capability alice_cap_;
};

TEST_P(VerifyModesTest, HappyPathAuthorizesIdentically) {
  auto oid = alice_->CreateObject(0, alice_cap_);
  ASSERT_TRUE(oid.ok());
  Buffer data = PatternBuffer(1000, 1);
  EXPECT_TRUE(alice_->WriteObject(0, alice_cap_, *oid, 0, ByteSpan(data)).ok());
  auto back = testio::ReadObjectBytes(*alice_, 0, alice_cap_, *oid, 0, 1000);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
}

TEST_P(VerifyModesTest, ForgedCapabilitiesRejectedInEveryMode) {
  security::Capability forged = alice_cap_;
  forged.ops = security::kOpAll;
  forged.uid = 999;  // breaks the tag in all modes
  EXPECT_FALSE(alice_->CreateObject(0, forged).ok());
}

TEST_P(VerifyModesTest, RevocationWorksOnlyInTheLwfsScheme) {
  // Grant bob write, let him warm the storage server, then chmod him out.
  ASSERT_TRUE(alice_->SetGrant(alice_cred_, cid_, 200,
                               security::kOpWrite | security::kOpCreate)
                  .ok());
  auto bob = runtime_->MakeClient();
  auto bob_cred = bob->Login("bob", "pw-b").value();
  auto bob_cap = bob->GetCap(*&bob_cred, cid_,
                             security::kOpWrite | security::kOpCreate)
                     .value();
  auto oid = bob->CreateObject(0, bob_cap);
  ASSERT_TRUE(oid.ok());

  ASSERT_TRUE(alice_->SetGrant(alice_cred_, cid_, 200, security::kOpNone).ok());
  const Status after = bob->CreateObject(0, bob_cap).status();

  switch (GetParam()) {
    case VerifyMode::kAuthzWithCache:
    case VerifyMode::kAuthzEveryRequest:
      // LWFS: the back-pointer invalidation (or the re-verify) kills the
      // capability immediately.
      EXPECT_EQ(after.code(), ErrorCode::kPermissionDenied);
      break;
    case VerifyMode::kSharedKey:
      // NASD/T10: the signature still checks out locally and the storage
      // server never hears about the policy change — bob keeps writing
      // until the capability *expires*.  This is the §3.1.4 revocation
      // problem, demonstrated.
      EXPECT_TRUE(after.ok());
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, VerifyModesTest,
    ::testing::Values(VerifyMode::kAuthzWithCache,
                      VerifyMode::kAuthzEveryRequest, VerifyMode::kSharedKey),
    [](const auto& info) {
      switch (info.param) {
        case VerifyMode::kAuthzWithCache: return "LwfsCached";
        case VerifyMode::kAuthzEveryRequest: return "LwfsEveryRequest";
        case VerifyMode::kSharedKey: return "NasdSharedKey";
      }
      return "Unknown";
    });

TEST(SharedKeyTrustTest, KeyHolderCanMintCapabilities) {
  // The trust flaw itself: any entity holding the shared key — which in
  // the NASD scheme includes every storage server — can fabricate a
  // capability the servers will accept.  In the LWFS scheme the same
  // fabrication fails because only the authorization service can verify.
  RuntimeOptions options;
  options.storage_servers = 1;
  options.storage.verify_mode = VerifyMode::kSharedKey;
  auto runtime = ServiceRuntime::Start(options).value();
  runtime->AddUser("alice", "pw", 100);
  auto client = runtime->MakeClient();
  auto cred = client->Login("alice", "pw").value();
  auto cid = client->CreateContainer(cred).value();

  // "Mallory" (a compromised storage server) mints an all-ops capability
  // for alice's container using the shared key it legitimately holds.
  // The key below mirrors the runtime's internal authz key — which is the
  // point: in shared-key deployments that key is *distributed*.
  const security::SipKey leaked{0xFEDCBA0987654321ULL, 0x13579BDF2468ACE0ULL};
  security::Capability minted;
  minted.cap_id = 424242;  // never issued by the authz service
  minted.cid = cid;
  minted.ops = security::kOpAll;
  minted.uid = 31337;
  minted.instance = 0;
  minted.expires_us = security::SystemNowUs() + 3600LL * 1000 * 1000;
  minted.tag = security::SipTag(leaked, ByteSpan(minted.SignedBytes()));

  // The storage server accepts the fabricated capability...
  EXPECT_TRUE(client->CreateObject(0, minted).ok());

  // ...whereas an LWFS-mode deployment rejects the identical fabrication
  // because the id was never issued.
  RuntimeOptions lwfs_options;
  lwfs_options.storage_servers = 1;
  auto lwfs_runtime = ServiceRuntime::Start(lwfs_options).value();
  lwfs_runtime->AddUser("alice", "pw", 100);
  auto lwfs_client = lwfs_runtime->MakeClient();
  auto lwfs_cred = lwfs_client->Login("alice", "pw").value();
  auto lwfs_cid = lwfs_client->CreateContainer(lwfs_cred).value();
  security::Capability minted2 = minted;
  minted2.cid = lwfs_cid;
  minted2.tag = security::SipTag(leaked, ByteSpan(minted2.SignedBytes()));
  EXPECT_FALSE(lwfs_client->CreateObject(0, minted2).ok());
}

// Inline dispatch meets the capability cache.  obj_create is declared
// inline, but only a cached verdict settles its capability on the
// delivering thread; a cold cache sends it to a worker, which makes the
// verify round trip — and a revoked capability is still denied.
TEST(InlineVerifyTest, ColdCapCacheFallsBackToAWorkerAndRevocationDenies) {
  portals::Fabric fabric;
  // Stand-in authorization service.  Its verify op runs inline, so it
  // records the thread that made the verify round trip.
  rpc::RpcServer authz(fabric.CreateNic());
  std::mutex mu;
  std::vector<std::thread::id> verifiers;
  bool revoked = false;
  ASSERT_TRUE(authz
                  .RegisterHandler(
                      kOpVerifyCap,
                      [&](rpc::ServerContext&, Decoder&) -> Result<Buffer> {
                        std::lock_guard<std::mutex> lock(mu);
                        verifiers.push_back(std::this_thread::get_id());
                        if (revoked) return PermissionDenied("revoked");
                        return Buffer{};
                      },
                      rpc::Dispatch::kInline)
                  .ok());
  ASSERT_TRUE(authz.Start().ok());
  storage::MemObjectStore store;
  StorageServer server(fabric.CreateNic(), 0, &store, authz.nid(),
                       security::SystemNowUs);
  ASSERT_TRUE(server.Start().ok());

  rpc::RpcClient client(fabric.CreateNic());
  security::Capability cap;
  cap.cap_id = 7;
  cap.cid = storage::ContainerId{1};
  cap.ops = security::kOpAll;
  cap.expires_us = std::numeric_limits<std::int64_t>::max();
  auto create = [&] {
    return rpc::CallTyped<wire::ObjCreateRep>(client, server.nid(),
                                              kOpObjCreate,
                                              wire::ObjCreateReq{cap, 0});
  };
  auto data_stat = [&](const char* name) {
    return server.metrics()->Snapshot().Get(std::string("rpc.data.") + name);
  };
  auto verifier_threads = [&] {
    std::lock_guard<std::mutex> lock(mu);
    return verifiers;
  };

  // Cold cache: a worker served the create and made the verify call; the
  // calling thread never did.
  ASSERT_TRUE(create().ok());
  EXPECT_EQ(data_stat("served"), 1u);
  EXPECT_EQ(data_stat("inline"), 0u);
  ASSERT_EQ(verifier_threads().size(), 1u);
  EXPECT_NE(verifier_threads()[0], std::this_thread::get_id());
  EXPECT_EQ(server.cap_cache().misses(), 1u);  // counted once, not twice

  // Warm cache: served on this thread, no verify.
  ASSERT_TRUE(create().ok());
  EXPECT_EQ(data_stat("served"), 2u);
  EXPECT_EQ(data_stat("inline"), 1u);
  EXPECT_EQ(verifier_threads().size(), 1u);
  EXPECT_EQ(server.cap_cache().hits(), 1u);

  // Revocation: the back-pointer invalidation empties the cache, so the
  // next create falls back to a worker, re-verifies, and is denied.
  {
    std::lock_guard<std::mutex> lock(mu);
    revoked = true;
  }
  const std::uint64_t ids[] = {cap.cap_id};
  server.cap_cache().Invalidate(ids);
  EXPECT_EQ(create().status().code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(data_stat("inline"), 1u);
  ASSERT_EQ(verifier_threads().size(), 2u);
  EXPECT_NE(verifier_threads()[1], std::this_thread::get_id());
  EXPECT_EQ(store.List(cap.cid)->size(), 2u);
  server.Stop();
  authz.Stop();
}

}  // namespace
}  // namespace lwfs::core

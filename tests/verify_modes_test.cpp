// The §3.1.2 design argument, executable: LWFS's cached-verify scheme vs.
// the NASD/T10 shared-key scheme.  Both authorize correctly in the happy
// path; they differ exactly where the paper says they do — revocation and
// trust.
#include <gtest/gtest.h>

#include "core/runtime.h"
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

}  // namespace
}  // namespace lwfs::core

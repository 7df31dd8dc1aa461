// Tests for the security substrate: SipHash, credentials, capabilities,
// the authentication and authorization services, caching and revocation.
#include <gtest/gtest.h>

#include "security/authn.h"
#include "security/authz.h"
#include "security/cap_cache.h"
#include "security/siphash.h"

namespace lwfs::security {
namespace {

// ---- SipHash -----------------------------------------------------------------

TEST(SipHashTest, MatchesReferenceVector) {
  // Official SipHash-2-4 test vector: key = 00..0F, input = 00..0E.
  SipKey key{0x0706050403020100ULL, 0x0F0E0D0C0B0A0908ULL};
  Buffer input(15);
  for (int i = 0; i < 15; ++i) input[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  EXPECT_EQ(SipHash24(key, ByteSpan(input)), 0xA129CA6149BE45E5ULL);
}

TEST(SipHashTest, EmptyInputReferenceVector) {
  SipKey key{0x0706050403020100ULL, 0x0F0E0D0C0B0A0908ULL};
  EXPECT_EQ(SipHash24(key, {}), 0x726FDB47DD0E0E31ULL);
}

TEST(SipHashTest, KeySensitivity) {
  Buffer data = {1, 2, 3};
  EXPECT_NE(SipHash24(SipKey{1, 2}, ByteSpan(data)),
            SipHash24(SipKey{1, 3}, ByteSpan(data)));
}

TEST(SipHashTest, DataSensitivity) {
  SipKey key{5, 6};
  Buffer a = {1, 2, 3};
  Buffer b = {1, 2, 4};
  EXPECT_NE(SipHash24(key, ByteSpan(a)), SipHash24(key, ByteSpan(b)));
}

TEST(SipHashTest, TagCombinesTwoHalves) {
  SipKey key{5, 6};
  Buffer data = {9};
  Tag128 tag = SipTag(key, ByteSpan(data));
  EXPECT_NE(tag.lo, tag.hi);
  EXPECT_EQ(tag, SipTag(key, ByteSpan(data)));
}

// ---- Credential / Capability encode ------------------------------------------

TEST(TypesTest, CredentialRoundTrip) {
  Credential c;
  c.cred_id = 7;
  c.uid = 1001;
  c.instance = 3;
  c.expires_us = 123456789;
  c.tag = Tag128{11, 22};
  Encoder enc;
  c.Encode(enc);
  Decoder dec(enc.buffer());
  auto back = Credential::Decode(dec);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->cred_id, c.cred_id);
  EXPECT_EQ(back->uid, c.uid);
  EXPECT_EQ(back->instance, c.instance);
  EXPECT_EQ(back->expires_us, c.expires_us);
  EXPECT_EQ(back->tag, c.tag);
}

TEST(TypesTest, CapabilityRoundTrip) {
  Capability c;
  c.cap_id = 9;
  c.cid = storage::ContainerId{44};
  c.ops = kOpRead | kOpWrite;
  c.uid = 1002;
  c.instance = 5;
  c.expires_us = 777;
  c.tag = Tag128{33, 44};
  Encoder enc;
  c.Encode(enc);
  Decoder dec(enc.buffer());
  auto back = Capability::Decode(dec);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->cap_id, c.cap_id);
  EXPECT_EQ(back->cid, c.cid);
  EXPECT_EQ(back->ops, c.ops);
  EXPECT_EQ(back->tag, c.tag);
}

TEST(TypesTest, OpMaskToString) {
  EXPECT_EQ(OpMaskToString(kOpRead | kOpWrite), "RW---");
  EXPECT_EQ(OpMaskToString(kOpAll), "RWCDM");
  EXPECT_EQ(OpMaskToString(kOpNone), "-----");
}

// ---- Test fixture with controllable time ---------------------------------------

class SecurityTest : public ::testing::Test {
 protected:
  SecurityTest()
      : authn_(&users_, SipKey{1, 2}, AuthnOpts()),
        authz_(&authn_, SipKey{3, 4}, AuthzOpts()) {
    users_.AddPrincipal("alice", "pw-a", 100);
    users_.AddPrincipal("bob", "pw-b", 200);
  }

  AuthnOptions AuthnOpts() {
    AuthnOptions o;
    o.now = [this] { return now_us_; };
    o.credential_ttl_us = 1000;
    return o;
  }
  AuthzOptions AuthzOpts() {
    AuthzOptions o;
    o.now = [this] { return now_us_; };
    o.capability_ttl_us = 1000;
    return o;
  }

  std::int64_t now_us_ = 0;
  TableAuthenticator users_;
  AuthnService authn_;
  AuthzService authz_;
};

// ---- Authentication ------------------------------------------------------------

TEST_F(SecurityTest, LoginIssuesVerifiableCredential) {
  auto cred = authn_.Login("alice", "pw-a");
  ASSERT_TRUE(cred.ok());
  auto uid = authn_.Verify(*cred);
  ASSERT_TRUE(uid.ok());
  EXPECT_EQ(*uid, 100u);
}

TEST_F(SecurityTest, BadSecretRejected) {
  EXPECT_EQ(authn_.Login("alice", "wrong").status().code(),
            ErrorCode::kUnauthenticated);
  EXPECT_EQ(authn_.Login("mallory", "x").status().code(),
            ErrorCode::kUnauthenticated);
}

TEST_F(SecurityTest, TamperedCredentialRejected) {
  auto cred = authn_.Login("alice", "pw-a");
  ASSERT_TRUE(cred.ok());
  // Tamper with each signed field in turn; all must fail verification.
  {
    Credential t = *cred;
    t.uid = 200;  // impersonate bob
    EXPECT_FALSE(authn_.Verify(t).ok());
  }
  {
    Credential t = *cred;
    t.expires_us += 1000000;  // extend lifetime
    EXPECT_FALSE(authn_.Verify(t).ok());
  }
  {
    Credential t = *cred;
    t.cred_id += 1;
    EXPECT_FALSE(authn_.Verify(t).ok());
  }
  {
    Credential t = *cred;
    t.tag.lo ^= 1;  // forge the signature itself
    EXPECT_FALSE(authn_.Verify(t).ok());
  }
}

TEST_F(SecurityTest, CredentialExpires) {
  auto cred = authn_.Login("alice", "pw-a");
  ASSERT_TRUE(cred.ok());
  now_us_ = 999;
  EXPECT_TRUE(authn_.Verify(*cred).ok());
  now_us_ = 1000;
  EXPECT_FALSE(authn_.Verify(*cred).ok());
}

TEST_F(SecurityTest, CredentialRevocationIsImmediate) {
  auto cred = authn_.Login("alice", "pw-a");
  ASSERT_TRUE(cred.ok());
  ASSERT_TRUE(authn_.Revoke(cred->cred_id).ok());
  EXPECT_FALSE(authn_.Verify(*cred).ok());
  EXPECT_EQ(authn_.Revoke(cred->cred_id).code(), ErrorCode::kNotFound);
}

TEST_F(SecurityTest, RevokeAllForUid) {
  auto c1 = authn_.Login("alice", "pw-a");
  auto c2 = authn_.Login("alice", "pw-a");
  auto c3 = authn_.Login("bob", "pw-b");
  ASSERT_TRUE(c1.ok() && c2.ok() && c3.ok());
  std::vector<std::uint64_t> observed;
  authn_.SetRevocationObserver([&](std::uint64_t id) { observed.push_back(id); });
  authn_.RevokeAllForUid(100);
  EXPECT_FALSE(authn_.Verify(*c1).ok());
  EXPECT_FALSE(authn_.Verify(*c2).ok());
  EXPECT_TRUE(authn_.Verify(*c3).ok());
  EXPECT_EQ(observed.size(), 2u);
}

TEST_F(SecurityTest, CredentialIsTransferable) {
  // Transferability (§3.1.2): the bytes are the credential.  A re-decoded
  // copy verifies identically.
  auto cred = authn_.Login("alice", "pw-a");
  ASSERT_TRUE(cred.ok());
  Encoder enc;
  cred->Encode(enc);
  Decoder dec(enc.buffer());
  auto copy = Credential::Decode(dec);
  ASSERT_TRUE(copy.ok());
  EXPECT_TRUE(authn_.Verify(*copy).ok());
}

// ---- Authorization ---------------------------------------------------------------

TEST_F(SecurityTest, OwnerGetsFullGrantOnCreate) {
  auto cred = authn_.Login("alice", "pw-a");
  auto cid = authz_.CreateContainer(*cred);
  ASSERT_TRUE(cid.ok());
  auto cap = authz_.GetCap(*cred, *cid, kOpAll);
  ASSERT_TRUE(cap.ok());
  EXPECT_EQ(cap->ops, static_cast<std::uint32_t>(kOpAll));
  EXPECT_EQ(cap->uid, 100u);
}

TEST_F(SecurityTest, NonGranteeDenied) {
  auto alice = authn_.Login("alice", "pw-a");
  auto bob = authn_.Login("bob", "pw-b");
  auto cid = authz_.CreateContainer(*alice);
  ASSERT_TRUE(cid.ok());
  EXPECT_EQ(authz_.GetCap(*bob, *cid, kOpRead).status().code(),
            ErrorCode::kPermissionDenied);
}

TEST_F(SecurityTest, GrantAllowsSubsetOnly) {
  auto alice = authn_.Login("alice", "pw-a");
  auto bob = authn_.Login("bob", "pw-b");
  auto cid = authz_.CreateContainer(*alice);
  ASSERT_TRUE(authz_.SetGrant(*alice, *cid, 200, kOpRead).ok());
  EXPECT_TRUE(authz_.GetCap(*bob, *cid, kOpRead).ok());
  EXPECT_EQ(authz_.GetCap(*bob, *cid, kOpRead | kOpWrite).status().code(),
            ErrorCode::kPermissionDenied);
}

TEST_F(SecurityTest, SetGrantRequiresManage) {
  auto alice = authn_.Login("alice", "pw-a");
  auto bob = authn_.Login("bob", "pw-b");
  auto cid = authz_.CreateContainer(*alice);
  ASSERT_TRUE(authz_.SetGrant(*alice, *cid, 200, kOpRead).ok());
  EXPECT_EQ(authz_.SetGrant(*bob, *cid, 200, kOpAll).code(),
            ErrorCode::kPermissionDenied);
}

TEST_F(SecurityTest, CredentialVerificationIsCachedAtAuthz) {
  auto alice = authn_.Login("alice", "pw-a");
  auto cid = authz_.CreateContainer(*alice);
  ASSERT_TRUE(cid.ok());
  const auto trips_before =
      authz_.metrics()->Snapshot().Get("authn_roundtrips");
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(authz_.GetCap(*alice, *cid, kOpRead).ok());
  }
  // One container create + five getcaps, but only the first call paid an
  // authentication round trip (Figure 4-a).
  EXPECT_EQ(authz_.metrics()->Snapshot().Get("authn_roundtrips"), trips_before);
}

TEST_F(SecurityTest, CredRevocationDropsAuthzCache) {
  auto alice = authn_.Login("alice", "pw-a");
  authn_.SetRevocationObserver(
      [this](std::uint64_t id) { authz_.ForgetCredential(id); });
  auto cid = authz_.CreateContainer(*alice);
  ASSERT_TRUE(cid.ok());
  ASSERT_TRUE(authn_.Revoke(alice->cred_id).ok());
  EXPECT_EQ(authz_.GetCap(*alice, *cid, kOpRead).status().code(),
            ErrorCode::kUnauthenticated);
}

TEST_F(SecurityTest, VerifyForServerChecksEverything) {
  auto alice = authn_.Login("alice", "pw-a");
  auto cid = authz_.CreateContainer(*alice);
  auto cap = authz_.GetCap(*alice, *cid, kOpWrite);
  ASSERT_TRUE(cap.ok());
  EXPECT_TRUE(authz_.VerifyForServer(1, *cap).ok());

  Capability forged = *cap;
  forged.ops = kOpAll;  // escalate
  EXPECT_FALSE(authz_.VerifyForServer(1, forged).ok());

  forged = *cap;
  forged.cid = storage::ContainerId{999};  // different container
  EXPECT_FALSE(authz_.VerifyForServer(1, forged).ok());

  forged = *cap;
  forged.tag.hi ^= 42;
  EXPECT_FALSE(authz_.VerifyForServer(1, forged).ok());

  now_us_ = 2000;  // expire
  EXPECT_FALSE(authz_.VerifyForServer(1, *cap).ok());
}

class RecordingSink : public RevocationSink {
 public:
  void InvalidateCaps(ServerId server,
                      const std::vector<std::uint64_t>& cap_ids) override {
    calls.emplace_back(server, cap_ids);
  }
  std::vector<std::pair<ServerId, std::vector<std::uint64_t>>> calls;
};

TEST_F(SecurityTest, ChmodRevokesOnlyUncoveredCaps) {
  // The paper's flagship revocation example (§3.1.4): removing write
  // access invalidates the write capability but not the read capability.
  auto alice = authn_.Login("alice", "pw-a");
  auto bob = authn_.Login("bob", "pw-b");
  auto cid = authz_.CreateContainer(*alice);
  ASSERT_TRUE(authz_.SetGrant(*alice, *cid, 200, kOpRead | kOpWrite).ok());
  auto read_cap = authz_.GetCap(*bob, *cid, kOpRead);
  auto write_cap = authz_.GetCap(*bob, *cid, kOpWrite);
  ASSERT_TRUE(read_cap.ok() && write_cap.ok());

  // Both get cached on storage server 3 (back pointers recorded).
  ASSERT_TRUE(authz_.VerifyForServer(3, *read_cap).ok());
  ASSERT_TRUE(authz_.VerifyForServer(3, *write_cap).ok());

  RecordingSink sink;
  authz_.SetRevocationSink(&sink);
  ASSERT_TRUE(authz_.SetGrant(*alice, *cid, 200, kOpRead).ok());  // chmod -w

  // Only the write cap was invalidated, and only on server 3.
  ASSERT_EQ(sink.calls.size(), 1u);
  EXPECT_EQ(sink.calls[0].first, 3u);
  EXPECT_EQ(sink.calls[0].second, std::vector<std::uint64_t>{write_cap->cap_id});

  EXPECT_TRUE(authz_.VerifyForServer(3, *read_cap).ok());
  EXPECT_FALSE(authz_.VerifyForServer(3, *write_cap).ok());
}

TEST_F(SecurityTest, RevokeCapByHolderAndOwner) {
  auto alice = authn_.Login("alice", "pw-a");
  auto bob = authn_.Login("bob", "pw-b");
  auto cid = authz_.CreateContainer(*alice);
  ASSERT_TRUE(authz_.SetGrant(*alice, *cid, 200, kOpRead).ok());
  auto cap = authz_.GetCap(*bob, *cid, kOpRead);
  ASSERT_TRUE(cap.ok());
  // The container owner may revoke bob's cap.
  ASSERT_TRUE(authz_.RevokeCap(*alice, cap->cap_id).ok());
  EXPECT_FALSE(authz_.VerifyForServer(1, *cap).ok());
  EXPECT_EQ(authz_.metrics()->Snapshot().Get("caps_revoked"), 1u);
}

TEST_F(SecurityTest, StrangerCannotRevokeCap) {
  auto alice = authn_.Login("alice", "pw-a");
  auto bob = authn_.Login("bob", "pw-b");
  auto cid = authz_.CreateContainer(*alice);
  auto cap = authz_.GetCap(*alice, *cid, kOpRead);
  ASSERT_TRUE(cap.ok());
  EXPECT_EQ(authz_.RevokeCap(*bob, cap->cap_id).code(),
            ErrorCode::kPermissionDenied);
}

TEST_F(SecurityTest, RefreshExpiredCapability) {
  auto alice = authn_.Login("alice", "pw-a");
  auto cid = authz_.CreateContainer(*alice);
  auto cap = authz_.GetCap(*alice, *cid, kOpWrite);
  ASSERT_TRUE(cap.ok());
  now_us_ = 999;  // credential (ttl 1000) still alive, cap about to expire
  auto fresh = authz_.RefreshCap(*alice, *cap);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_GT(fresh->expires_us, cap->expires_us);
  EXPECT_EQ(fresh->ops, cap->ops);
}

TEST_F(SecurityTest, RefreshDeniedAfterPolicyChange) {
  auto alice = authn_.Login("alice", "pw-a");
  auto bob = authn_.Login("bob", "pw-b");
  auto cid = authz_.CreateContainer(*alice);
  ASSERT_TRUE(authz_.SetGrant(*alice, *cid, 200, kOpWrite).ok());
  auto cap = authz_.GetCap(*bob, *cid, kOpWrite);
  ASSERT_TRUE(cap.ok());
  ASSERT_TRUE(authz_.SetGrant(*alice, *cid, 200, kOpRead).ok());
  EXPECT_EQ(authz_.RefreshCap(*bob, *cap).status().code(),
            ErrorCode::kPermissionDenied);
}

TEST_F(SecurityTest, ForgedRefreshRejected) {
  auto alice = authn_.Login("alice", "pw-a");
  auto cid = authz_.CreateContainer(*alice);
  auto cap = authz_.GetCap(*alice, *cid, kOpRead);
  ASSERT_TRUE(cap.ok());
  Capability forged = *cap;
  forged.ops = kOpAll;
  EXPECT_FALSE(authz_.RefreshCap(*alice, forged).ok());
}

// ---- CapCache ----------------------------------------------------------------------

TEST(CapCacheTest, HitRequiresExactMatch) {
  CapCache cache;
  Capability cap;
  cap.cap_id = 1;
  cap.cid = storage::ContainerId{2};
  cap.ops = kOpRead;
  cap.expires_us = 100;
  cap.tag = Tag128{5, 6};
  EXPECT_FALSE(cache.Lookup(cap, 0));
  cache.Insert(cap);
  EXPECT_TRUE(cache.Lookup(cap, 0));

  // A forged capability reusing a cached id must miss.
  Capability forged = cap;
  forged.ops = kOpAll;
  EXPECT_FALSE(cache.Lookup(forged, 0));
  forged = cap;
  forged.tag.lo ^= 1;
  EXPECT_FALSE(cache.Lookup(forged, 0));

  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 3u);
}

TEST(CapCacheTest, ExpiredEntriesMiss) {
  CapCache cache;
  Capability cap;
  cap.cap_id = 1;
  cap.expires_us = 100;
  cache.Insert(cap);
  EXPECT_TRUE(cache.Lookup(cap, 99));
  EXPECT_FALSE(cache.Lookup(cap, 100));
  EXPECT_EQ(cache.size(), 0u);  // expired entry evicted
}

TEST(CapCacheTest, InvalidateRemovesEntries) {
  CapCache cache;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    Capability cap;
    cap.cap_id = id;
    cap.expires_us = 1000;
    cache.Insert(cap);
  }
  std::vector<std::uint64_t> victims = {1, 3};
  cache.Invalidate(victims);
  EXPECT_EQ(cache.size(), 1u);
  Capability probe;
  probe.cap_id = 2;
  probe.expires_us = 1000;
  EXPECT_TRUE(cache.Lookup(probe, 0));
}

TEST(CapCacheTest, ClearEmptiesEverything) {
  CapCache cache;
  Capability cap;
  cap.cap_id = 9;
  cap.expires_us = 10;
  cache.Insert(cap);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
}

}  // namespace
}  // namespace lwfs::security

// Tests for the operational tooling: the auto-refreshing capability
// holder (§5's expiry/refresh contrast with NASD) and the LwfsFs
// consistency checker.
#include <gtest/gtest.h>

#include "core/cap_holder.h"
#include "core/runtime.h"
#include "lwfsfs/lwfsfs.h"
#include "test_io.h"

namespace lwfs {
namespace {

class CapHolderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::RuntimeOptions options;
    options.storage_servers = 1;
    options.authn.now = [this] { return now_us_; };
    options.authn.credential_ttl_us = 1000LL * 1000 * 1000;  // long-lived
    options.authz.now = [this] { return now_us_; };
    options.authz.capability_ttl_us = 60LL * 1000 * 1000;  // 60 s caps
    runtime_ = core::ServiceRuntime::Start(options).value();
    runtime_->AddUser("u", "p", 1);
    client_ = runtime_->MakeClient();
    cred_ = client_->Login("u", "p").value();
    cid_ = client_->CreateContainer(cred_).value();
    cap_ = client_->GetCap(cred_, cid_, security::kOpAll).value();
  }

  std::int64_t now_us_ = 0;
  std::unique_ptr<core::ServiceRuntime> runtime_;
  std::unique_ptr<core::Client> client_;
  security::Credential cred_;
  storage::ContainerId cid_;
  security::Capability cap_;
};

TEST_F(CapHolderTest, NoRefreshWhileFresh) {
  core::CapHolder holder(client_.get(), cred_, cap_, [this] { return now_us_; });
  auto cap = holder.Get();
  ASSERT_TRUE(cap.ok());
  EXPECT_EQ(cap->cap_id, cap_.cap_id);
  EXPECT_EQ(holder.metrics()->Snapshot().Get("refreshes"), 0u);
}

TEST_F(CapHolderTest, RefreshesNearExpiry) {
  core::CapHolder holder(client_.get(), cred_, cap_, [this] { return now_us_; });
  // Advance time to within the 5 s default margin of the 60 s TTL.
  now_us_ = 56LL * 1000 * 1000;
  auto cap = holder.Get();
  ASSERT_TRUE(cap.ok()) << cap.status().ToString();
  EXPECT_NE(cap->cap_id, cap_.cap_id);  // a new issuance
  EXPECT_GT(cap->expires_us, cap_.expires_us);
  EXPECT_EQ(holder.metrics()->Snapshot().Get("refreshes"), 1u);
  // The refreshed capability actually works at the storage server.
  EXPECT_TRUE(client_->CreateObject(0, *cap).ok());
}

TEST_F(CapHolderTest, CheckpointGapSurvivesManyExpiries) {
  // The §5 scenario: long compute gaps between I/O bursts.  Each Get()
  // after a gap silently renews; the application never sees an expired
  // capability.
  core::CapHolder holder(client_.get(), cred_, cap_, [this] { return now_us_; });
  for (int burst = 1; burst <= 5; ++burst) {
    now_us_ += 120LL * 1000 * 1000;  // two full TTLs of computation
    auto cap = holder.Get();
    ASSERT_TRUE(cap.ok()) << "burst " << burst;
    ASSERT_TRUE(client_->CreateObject(0, *cap).ok()) << "burst " << burst;
  }
  EXPECT_EQ(holder.metrics()->Snapshot().Get("refreshes"), 5u);
}

TEST_F(CapHolderTest, RefreshDeniedAfterPolicyChangeSurfacesCleanly) {
  runtime_->AddUser("bob", "pw", 2);
  auto bob = runtime_->MakeClient();
  auto bob_cred = bob->Login("bob", "pw").value();
  ASSERT_TRUE(client_->SetGrant(cred_, cid_, 2, security::kOpWrite).ok());
  auto bob_cap = bob->GetCap(bob_cred, cid_, security::kOpWrite).value();
  core::CapHolder holder(bob.get(), bob_cred, bob_cap, [this] { return now_us_; });

  ASSERT_TRUE(client_->SetGrant(cred_, cid_, 2, security::kOpNone).ok());
  now_us_ = 58LL * 1000 * 1000;  // force a refresh attempt
  auto cap = holder.Get();
  EXPECT_EQ(cap.status().code(), ErrorCode::kPermissionDenied);
}

class FsckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::RuntimeOptions options;
    options.storage_servers = 3;
    runtime_ = core::ServiceRuntime::Start(options).value();
    runtime_->AddUser("u", "p", 1);
    client_ = runtime_->MakeClient();
    auto cred = client_->Login("u", "p").value();
    auto cid = client_->CreateContainer(cred).value();
    cap_ = client_->GetCap(cred, cid, security::kOpAll).value();
    fs_ = fs::LwfsFs::Mount(client_.get(), cap_, "/fs", {}).value();
  }

  std::unique_ptr<core::ServiceRuntime> runtime_;
  std::unique_ptr<core::Client> client_;
  security::Capability cap_;
  std::unique_ptr<fs::LwfsFs> fs_;
};

TEST_F(FsckTest, CleanFileSystemIsClean) {
  ASSERT_TRUE(fs_->Mkdir("/d").ok());
  auto a = fs_->Create("/d/a").value();
  ASSERT_TRUE(testio::WriteAt(*fs_, a, 0, ByteSpan(Buffer(1000, 1))).ok());
  ASSERT_TRUE(fs_->Create("/b").ok());
  auto report = fs_->Fsck().value();
  EXPECT_EQ(report.files, 2u);
  EXPECT_EQ(report.directories, 2u);  // root + /d
  EXPECT_TRUE(report.orphans.empty());
  EXPECT_TRUE(report.broken_files.empty());
  // 2 files x (inode + 3 stripes) reachable.
  EXPECT_EQ(report.reachable_objects, 2u * 4u);
}

TEST_F(FsckTest, DetectsAndRemovesOrphans) {
  ASSERT_TRUE(fs_->Create("/kept").ok());
  // Debris: objects created outside the file system (a crashed writer
  // that never linked a name).
  ASSERT_TRUE(client_->CreateObject(1, cap_).ok());
  ASSERT_TRUE(client_->CreateObject(2, cap_).ok());

  auto report = fs_->Fsck().value();
  EXPECT_EQ(report.orphans.size(), 2u);

  auto cleaned = fs_->Fsck(/*remove_orphans=*/true).value();
  EXPECT_EQ(cleaned.orphans.size(), 2u);
  auto again = fs_->Fsck().value();
  EXPECT_TRUE(again.orphans.empty());
  // The kept file is untouched.
  EXPECT_TRUE(fs_->Open("/kept").ok());
}

TEST_F(FsckTest, DetectsBrokenInode) {
  auto file = fs_->Create("/victim").value();
  // Corrupt the inode object directly.
  ASSERT_TRUE(client_
                  ->WriteObject(file.inode.server_index, cap_, file.inode.oid,
                                0, ByteSpan(Buffer(4, 0xFF)))
                  .ok());
  auto report = fs_->Fsck().value();
  ASSERT_EQ(report.broken_files.size(), 1u);
  EXPECT_EQ(report.broken_files[0], "/victim");
  EXPECT_EQ(report.files, 0u);
  // Its stripe objects are now unreachable debris.
  EXPECT_FALSE(report.orphans.empty());
}

TEST_F(FsckTest, HugeInodeStripeCountIsDataLossNotAnAllocation) {
  // Any holder of the container's write capability can overwrite an inode.
  // A stripe count of 0xFFFFFFFF (64 GiB of stripe targets) must be
  // rejected against the bytes that follow it, never reserved.
  auto file = fs_->Create("/victim").value();
  Encoder forged;
  forged.PutU32(fs::kInodeMagic);
  forged.PutU32(1 << 20);     // stripe size
  forged.PutU32(0xFFFFFFFF);  // stripe count
  ASSERT_TRUE(client_
                  ->WriteObject(file.inode.server_index, cap_, file.inode.oid,
                                0, ByteSpan(forged.buffer()))
                  .ok());
  EXPECT_EQ(fs_->Open("/victim").status().code(), ErrorCode::kDataLoss);
  auto report = fs_->Fsck().value();
  ASSERT_EQ(report.broken_files.size(), 1u);
  EXPECT_EQ(report.broken_files[0], "/victim");
}

TEST_F(FsckTest, AbortedTransactionLeavesNothingForFsck) {
  // The paper's transactional checkpoint never leaks: create objects in a
  // txn, abort, fsck finds no orphans.
  core::TxnParticipants participants;
  participants.storage_servers = {0, 1, 2};
  auto txn = client_->BeginTxn(0, cap_, participants).value();
  ASSERT_TRUE(client_->CreateObject(1, cap_, txn->id()).ok());
  ASSERT_TRUE(client_->CreateObject(2, cap_, txn->id()).ok());
  ASSERT_TRUE(txn->Abort().ok());
  auto report = fs_->Fsck().value();
  // Only the journal object remains (created outside the fs namespace).
  EXPECT_LE(report.orphans.size(), 1u);
}

}  // namespace
}  // namespace lwfs

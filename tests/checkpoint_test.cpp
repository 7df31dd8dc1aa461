// Integration tests for the checkpoint case study (§4): the three
// implementations dump and restore identical application state, the LWFS
// path is transactional, and the architectural bottlenecks are observable.
#include <gtest/gtest.h>

#include "checkpoint/checkpoint.h"

namespace lwfs::checkpoint {
namespace {

std::vector<Buffer> MakeStates(std::uint32_t nranks, std::size_t bytes) {
  std::vector<Buffer> states;
  states.reserve(nranks);
  for (std::uint32_t r = 0; r < nranks; ++r) {
    states.push_back(PatternBuffer(bytes, 1000 + r));
  }
  return states;
}

class LwfsCheckpointTest : public ::testing::Test {
 protected:
  void Start(int servers = 4, std::uint32_t replication_factor = 1) {
    core::RuntimeOptions options;
    options.storage_servers = servers;
    options.replication.replication_factor = replication_factor;
    auto rt = core::ServiceRuntime::Start(options);
    ASSERT_TRUE(rt.ok());
    runtime_ = std::move(*rt);
    runtime_->AddUser("app", "secret", 100);

    auto client = runtime_->MakeClient();
    auto cred = client->Login("app", "secret");
    ASSERT_TRUE(cred.ok());
    auto cid = client->CreateContainer(*cred);
    ASSERT_TRUE(cid.ok());
    auto cap = client->GetCap(*cred, *cid, security::kOpAll);
    ASSERT_TRUE(cap.ok());
    ASSERT_TRUE(client->Mkdir("/ckpt", true).ok());

    config_.path = "/ckpt/run0";
    config_.cid = *cid;
    config_.cap = *cap;
  }

  std::unique_ptr<core::ServiceRuntime> runtime_;
  LwfsCheckpoint::Config config_;
};

TEST_F(LwfsCheckpointTest, CheckpointRestoreRoundTrip) {
  Start();
  auto states = MakeStates(8, 20000);
  auto stats = LwfsCheckpoint::Run(*runtime_, config_, states);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->bytes, 8u * 20000u);
  EXPECT_EQ(stats->creates, 9u);  // 8 state objects + 1 metadata object
  EXPECT_GT(stats->seconds, 0.0);

  auto restored = LwfsCheckpoint::Restore(*runtime_, config_.cap, config_.path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored->size(), states.size());
  for (std::size_t r = 0; r < states.size(); ++r) {
    EXPECT_EQ((*restored)[r], states[r]) << "rank " << r;
  }
}

// Config::window bounds the rank requests in flight across every carrier.
// Window 1 is one carrier with one request at a time — a serial dump.  A
// wider window drives the ranks from min(ranks, window) carriers, rank r on
// carrier r % carriers, so 4 ranks under window 8 issue their writes (and
// checksum their bytes) on 4 threads, 2 requests per carrier at most.
TEST_F(LwfsCheckpointTest, WindowBoundsRequestsAcrossRankCarriers) {
  Start(4);
  const auto states = MakeStates(4, 3u << 20);
  struct Case {
    std::uint32_t window;
    std::uint32_t carriers;
  };
  for (const Case c : {Case{1, 1}, Case{2, 2}, Case{6, 4}, Case{8, 4}}) {
    SCOPED_TRACE("window " + std::to_string(c.window));
    config_.window = c.window;
    config_.path = "/ckpt/window" + std::to_string(c.window);
    auto stats = LwfsCheckpoint::Run(*runtime_, config_, states);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->carriers, c.carriers);
    EXPECT_GE(stats->peak_requests, 1u);
    EXPECT_LE(stats->peak_requests, c.window);
    if (c.window == 1) {
      EXPECT_EQ(stats->peak_requests, 1u);
    }
    auto restored =
        LwfsCheckpoint::Restore(*runtime_, config_.cap, config_.path);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ(*restored, states);
  }
}

TEST_F(LwfsCheckpointTest, ObjectsSpreadAcrossServers) {
  Start(4);
  auto states = MakeStates(8, 1000);
  ASSERT_TRUE(LwfsCheckpoint::Run(*runtime_, config_, states).ok());
  // 8 ranks over 4 servers: 2 state objects each, +1 metadata on server 0,
  // +1 journal object on server 0.
  EXPECT_EQ(runtime_->store(0).ObjectCount(), 4u);
  for (int s = 1; s < 4; ++s) {
    EXPECT_EQ(runtime_->store(s).ObjectCount(), 2u) << "server " << s;
  }
}

TEST_F(LwfsCheckpointTest, SecondCheckpointReusesContainer) {
  // §4: "Since we can create multiple checkpoint files using the same
  // container ID, it is only necessary to perform this step once."
  Start();
  auto states = MakeStates(4, 500);
  ASSERT_TRUE(LwfsCheckpoint::Run(*runtime_, config_, states).ok());
  LwfsCheckpoint::Config second = config_;
  second.path = "/ckpt/run1";
  auto states2 = MakeStates(4, 800);
  ASSERT_TRUE(LwfsCheckpoint::Run(*runtime_, second, states2).ok());
  auto r0 = LwfsCheckpoint::Restore(*runtime_, config_.cap, "/ckpt/run0");
  auto r1 = LwfsCheckpoint::Restore(*runtime_, config_.cap, "/ckpt/run1");
  ASSERT_TRUE(r0.ok() && r1.ok());
  EXPECT_EQ((*r0)[0].size(), 500u);
  EXPECT_EQ((*r1)[0].size(), 800u);
}

TEST_F(LwfsCheckpointTest, FailedCheckpointLeavesNoName) {
  Start();
  // Sabotage: make storage server 1 vote "no" on the next transaction by
  // failing its prepare.  We don't know the txid in advance, so run the
  // checkpoint with a doomed config instead: use a path whose parent is
  // missing, which fails after data was written but before commit.
  LwfsCheckpoint::Config bad = config_;
  bad.path = "/missing-dir/run";
  auto states = MakeStates(4, 100);
  auto stats = LwfsCheckpoint::Run(*runtime_, bad, states);
  EXPECT_FALSE(stats.ok());
  // The name must not exist.
  auto client = runtime_->MakeClient();
  EXPECT_EQ(client->LookupName("/missing-dir/run").status().code(),
            ErrorCode::kNotFound);
}

// Regression: with chunk_bytes unset, a replicated rank went out as one
// chain write, and every hop reserved staging for the whole payload while
// it waited downstream; past the staging pool each checkpoint sat out a
// 30 s timeout.  Replicated streams now chain-write 1 MiB at a time.
TEST_F(LwfsCheckpointTest, ReplicatedLargeRanksDoNotStall) {
  Start(4, /*replication_factor=*/3);
  config_.replication_factor = 3;
  auto states = MakeStates(4, 16u << 20);
  auto stats = LwfsCheckpoint::Run(*runtime_, config_, states);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_LT(stats->seconds, 5.0);
  auto restored = LwfsCheckpoint::Restore(*runtime_, config_.cap, config_.path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored->size(), states.size());
  for (std::size_t r = 0; r < states.size(); ++r) {
    EXPECT_TRUE((*restored)[r] == states[r]) << "rank " << r;
  }
}

TEST_F(LwfsCheckpointTest, CheckpointWithReadOnlyCapFails) {
  Start();
  auto client = runtime_->MakeClient();
  auto cred = client->Login("app", "secret");
  ASSERT_TRUE(cred.ok());
  auto ro = client->GetCap(*cred, config_.cid, security::kOpRead);
  ASSERT_TRUE(ro.ok());
  LwfsCheckpoint::Config bad = config_;
  bad.cap = *ro;
  auto stats = LwfsCheckpoint::Run(*runtime_, bad, MakeStates(2, 100));
  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), ErrorCode::kPermissionDenied);
}

class PfsCheckpointTest : public ::testing::Test {
 protected:
  void Start(int servers = 4) {
    core::RuntimeOptions core_options;
    core_options.storage_servers = servers;
    auto core = core::ServiceRuntime::Start(core_options);
    ASSERT_TRUE(core.ok());
    core_ = std::move(*core);
    pfs::PfsRuntimeOptions options;
    options.mds.default_stripe_size = 4096;
    auto rt = pfs::PfsRuntime::Start(core_.get(), options);
    ASSERT_TRUE(rt.ok());
    runtime_ = std::move(*rt);
  }

  std::unique_ptr<core::ServiceRuntime> core_;
  std::unique_ptr<pfs::PfsRuntime> runtime_;
};

TEST_F(PfsCheckpointTest, FilePerProcessRoundTrip) {
  Start();
  auto states = MakeStates(6, 15000);
  PfsFilePerProcess::Config config{"/ckpt", 1};
  auto stats = PfsFilePerProcess::Run(*runtime_, config, states);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->creates, 6u);
  // Every create went through the centralized MDS.
  EXPECT_EQ(runtime_->mds().creates_served(), 6u);

  auto restored = PfsFilePerProcess::Restore(*runtime_, config, 6);
  ASSERT_TRUE(restored.ok());
  for (std::size_t r = 0; r < states.size(); ++r) {
    EXPECT_EQ((*restored)[r], states[r]) << "rank " << r;
  }
}

TEST_F(PfsCheckpointTest, SharedFileRoundTrip) {
  Start();
  auto states = MakeStates(6, 15000);
  PfsSharedFile::Config config;
  config.path = "/shared-ckpt";
  auto stats = PfsSharedFile::Run(*runtime_, config, states);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->creates, 1u);
  EXPECT_EQ(runtime_->mds().creates_served(), 1u);

  std::vector<std::uint64_t> sizes(6, 15000);
  auto restored = PfsSharedFile::Restore(*runtime_, config, sizes);
  ASSERT_TRUE(restored.ok());
  for (std::size_t r = 0; r < states.size(); ++r) {
    EXPECT_EQ((*restored)[r], states[r]) << "rank " << r;
  }
}

TEST_F(PfsCheckpointTest, SharedFileRelaxedModeAlsoCorrectForDisjointWrites) {
  // Checkpoint writes never overlap, so the relaxed (PVFS-style) mode is
  // just as correct — the locking the PFS imposes is pure overhead here,
  // which is the paper's §4 point.
  Start();
  auto states = MakeStates(5, 9000);
  PfsSharedFile::Config config;
  config.path = "/relaxed-ckpt";
  config.mode = pfs::ConsistencyMode::kRelaxed;
  auto stats = PfsSharedFile::Run(*runtime_, config, states);
  ASSERT_TRUE(stats.ok());
  std::vector<std::uint64_t> sizes(5, 9000);
  auto restored = PfsSharedFile::Restore(*runtime_, config, sizes);
  ASSERT_TRUE(restored.ok());
  for (std::size_t r = 0; r < states.size(); ++r) {
    EXPECT_EQ((*restored)[r], states[r]);
  }
}

TEST_F(PfsCheckpointTest, UnevenStateSizesRestoreExactly) {
  Start();
  std::vector<Buffer> states;
  std::vector<std::uint64_t> sizes;
  for (std::uint32_t r = 0; r < 4; ++r) {
    const std::size_t n = 1000 * (r + 1) + r;
    states.push_back(PatternBuffer(n, r));
    sizes.push_back(n);
  }
  PfsSharedFile::Config config;
  config.path = "/uneven";
  ASSERT_TRUE(PfsSharedFile::Run(*runtime_, config, states).ok());
  auto restored = PfsSharedFile::Restore(*runtime_, config, sizes);
  ASSERT_TRUE(restored.ok());
  for (std::size_t r = 0; r < states.size(); ++r) {
    EXPECT_EQ((*restored)[r], states[r]);
  }
}

TEST(CheckpointEquivalenceTest, AllThreeImplementationsPreserveState) {
  // The paper's premise: the three implementations are functionally
  // equivalent — only their interaction with the I/O system differs.
  auto states = MakeStates(4, 12000);

  core::RuntimeOptions lwfs_options;
  auto lwfs_rt = core::ServiceRuntime::Start(lwfs_options);
  ASSERT_TRUE(lwfs_rt.ok());
  (*lwfs_rt)->AddUser("app", "pw", 1);
  auto client = (*lwfs_rt)->MakeClient();
  auto cred = client->Login("app", "pw");
  auto cid = client->CreateContainer(*cred);
  auto cap = client->GetCap(*cred, *cid, security::kOpAll);
  ASSERT_TRUE(client->Mkdir("/ckpt", true).ok());
  LwfsCheckpoint::Config lwfs_config{"/ckpt/eq", *cid, *cap, 0};
  ASSERT_TRUE(LwfsCheckpoint::Run(**lwfs_rt, lwfs_config, states).ok());
  auto lwfs_states = LwfsCheckpoint::Restore(**lwfs_rt, *cap, "/ckpt/eq");

  auto pfs_rt = pfs::PfsRuntime::Start(lwfs_rt->get(), {});
  ASSERT_TRUE(pfs_rt.ok());
  PfsFilePerProcess::Config fpp_config{"/eq", 1};
  ASSERT_TRUE(PfsFilePerProcess::Run(**pfs_rt, fpp_config, states).ok());
  auto fpp_states = PfsFilePerProcess::Restore(**pfs_rt, fpp_config, 4);

  PfsSharedFile::Config shared_config;
  shared_config.path = "/eq-shared";
  ASSERT_TRUE(PfsSharedFile::Run(**pfs_rt, shared_config, states).ok());
  auto shared_states = PfsSharedFile::Restore(
      **pfs_rt, shared_config, std::vector<std::uint64_t>(4, 12000));

  ASSERT_TRUE(lwfs_states.ok() && fpp_states.ok() && shared_states.ok());
  for (std::size_t r = 0; r < states.size(); ++r) {
    EXPECT_EQ((*lwfs_states)[r], states[r]);
    EXPECT_EQ((*fpp_states)[r], states[r]);
    EXPECT_EQ((*shared_states)[r], states[r]);
  }
}

}  // namespace
}  // namespace lwfs::checkpoint

// Chaos soak (§3.2, §3.4): checkpoints, naming, and two-phase commit must
// survive a lossy, corrupting fabric with their invariants intact:
//
//  * no double-apply — a transaction's effects land exactly once however
//    many times its messages are retransmitted;
//  * no torn commits — a name is either fully published with byte-exact
//    data behind it, or cleanly absent;
//  * crash + restart converges — journal replay finishes every in-doubt
//    transaction and the circuit breaker opens and closes around the outage.
//
// The soak runs at 1% message drop + 0.1% corruption over three fixed seeds
// (override with LWFS_CHAOS_SEED=<n> to run one seed, as CI does).  Every
// assertion is wrapped in a SCOPED_TRACE carrying the seed so a failure
// names the reproducer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "core/client.h"
#include "core/runtime.h"
#include "util/clock.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/shared_buffer.h"
#include "test_io.h"

namespace lwfs {
namespace {

// Per-seed workload sizes.  Three seeds give >= 210 checkpoint epochs and
// >= 105 distributed transactions per soak in default (all-seed) runs.
constexpr int kEpochsPerSeed = 70;
constexpr int kTxnsPerSeed = 35;

std::vector<std::uint64_t> ChaosSeeds() {
  if (const char* env = std::getenv("LWFS_CHAOS_SEED")) {
    return {std::strtoull(env, nullptr, 0)};
  }
  return {0xC0FFEE01, 0xDEADF00D, 0x5EEDBEEF};
}

std::vector<Buffer> MakeStates(std::uint32_t nranks, std::size_t bytes,
                               std::uint64_t salt) {
  std::vector<Buffer> states;
  states.reserve(nranks);
  for (std::uint32_t r = 0; r < nranks; ++r) {
    states.push_back(PatternBuffer(bytes, salt * 1000 + r));
  }
  return states;
}

class ChaosTest : public ::testing::Test {
 protected:
  /// Start a deployment tuned for fault soaking: short reply deadlines so
  /// injected losses resolve in milliseconds, and a deep retransmit budget
  /// so a 1% drop rate essentially never exhausts a call.
  void StartRuntime(int servers, std::uint64_t seed) {
    core::RuntimeOptions options;
    options.storage_servers = servers;
    options.client_options.default_timeout = std::chrono::milliseconds(50);
    options.client_options.max_retransmits = 8;
    auto rt = core::ServiceRuntime::Start(options);
    ASSERT_TRUE(rt.ok()) << rt.status().ToString();
    client_.reset();
    runtime_ = std::move(*rt);
    runtime_->AddUser("app", "secret", 100);

    client_ = runtime_->MakeClient();
    auto cred = client_->Login("app", "secret");
    ASSERT_TRUE(cred.ok());
    auto cid = client_->CreateContainer(*cred);
    ASSERT_TRUE(cid.ok());
    cid_ = *cid;
    auto cap = client_->GetCap(*cred, *cid, security::kOpAll);
    ASSERT_TRUE(cap.ok());
    cap_ = *cap;

    runtime_->fabric().injector().Seed(seed);
  }

  /// Make every message touching a *service* lossy.  Client<->client links
  /// (none here) and the checkpoint library's internal communicators stay
  /// clean: the collectives are not fault-tolerant, the services are.
  void InjectServiceFaults(const portals::FaultSpec& spec) {
    const core::Deployment& d = runtime_->deployment();
    auto& injector = runtime_->fabric().injector();
    injector.SetNode(d.authn, spec);
    injector.SetNode(d.authz, spec);
    injector.SetNode(d.naming, spec);
    injector.SetNode(d.locks, spec);
    for (portals::Nid nid : d.storage) injector.SetNode(nid, spec);
  }

  std::unique_ptr<core::ServiceRuntime> runtime_;
  std::unique_ptr<core::Client> client_;
  storage::ContainerId cid_{};
  security::Capability cap_;
};

// ---------------------------------------------------------------------------
// Checkpoint soak: every epoch fully readable or cleanly absent
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, CheckpointSoakUnderLossAndCorruption) {
  for (std::uint64_t seed : ChaosSeeds()) {
    SCOPED_TRACE("LWFS_CHAOS_SEED=" + std::to_string(seed));
    StartRuntime(/*servers=*/3, seed);
    ASSERT_TRUE(client_->Mkdir("/ckpt", true).ok());
    InjectServiceFaults({.drop = 0.01, .corrupt = 0.001});

    int succeeded = 0;
    for (int epoch = 0; epoch < kEpochsPerSeed; ++epoch) {
      SCOPED_TRACE("epoch " + std::to_string(epoch));
      checkpoint::LwfsCheckpoint::Config config;
      config.path = "/ckpt/run" + std::to_string(epoch);
      config.cid = cid_;
      config.cap = cap_;
      auto states =
          MakeStates(4, 512 + 128 * (epoch % 3), seed ^ (std::uint64_t)epoch);
      auto stats = checkpoint::LwfsCheckpoint::Run(*runtime_, config, states);
      if (stats.ok()) {
        // Fully readable: restore through the same lossy fabric and compare
        // byte for byte.  The restore itself can hit injected corruption —
        // surfacing as a clean kDataLoss is the detection machinery working,
        // so retry; what must never happen is an *accepted* wrong byte or a
        // half-applied commit, which the comparison below would catch.
        auto restored = checkpoint::LwfsCheckpoint::Restore(
            *runtime_, cap_, config.path);
        for (int attempt = 0; attempt < 5 && !restored.ok(); ++attempt) {
          restored =
              checkpoint::LwfsCheckpoint::Restore(*runtime_, cap_, config.path);
        }
        ASSERT_TRUE(restored.ok()) << restored.status().ToString();
        ASSERT_EQ(restored->size(), states.size());
        for (std::size_t r = 0; r < states.size(); ++r) {
          ASSERT_EQ((*restored)[r], states[r]) << "rank " << r;
        }
        ++succeeded;
      } else {
        // Cleanly absent: a failed checkpoint must not leave the name
        // behind (the 2PC abort dropped the staged link).
        EXPECT_EQ(client_->LookupName(config.path).status().code(),
                  ErrorCode::kNotFound);
      }
    }
    // A 1% drop rate against an 8-retransmit budget should essentially
    // always converge; require a substantial majority so the soak can't
    // silently degrade into testing nothing but the failure path.
    EXPECT_GE(succeeded, kEpochsPerSeed * 3 / 4);

    // The fabric really was hostile, and the recovery machinery really ran.
    const metrics::Snapshot robustness = runtime_->metrics()->Snapshot();
    EXPECT_GT(robustness.Get("fabric.faults.drops"), 0u);
    EXPECT_GT(robustness.Sum("**.rpc.**.served"), 0u);

    // System is not wedged: with faults cleared, one more checkpoint runs
    // end to end.
    runtime_->fabric().injector().Reset();
    checkpoint::LwfsCheckpoint::Config final_config;
    final_config.path = "/ckpt/final";
    final_config.cid = cid_;
    final_config.cap = cap_;
    auto states = MakeStates(4, 512, seed);
    ASSERT_TRUE(
        checkpoint::LwfsCheckpoint::Run(*runtime_, final_config, states).ok());
    auto restored =
        checkpoint::LwfsCheckpoint::Restore(*runtime_, cap_, "/ckpt/final");
    ASSERT_TRUE(restored.ok());
  }
}

// ---------------------------------------------------------------------------
// Zero-copy budget under chaos: payload bytes are never staged
// ---------------------------------------------------------------------------

// Run slice-based checkpoints through a lossy, corrupting fabric and check
// the zero-copy invariant survives retransmits, dedup replays, and
// injected corruption: rank payloads cross the stack without one staging
// copy.  Staging bytes observed during the soak can only come from the
// small control-plane writes (metadata object, transaction journal), so
// they must stay a sliver of the payload volume — if slices silently fell
// back to the staged path, kStage would jump by ~100% of payload.
void SliceCheckpointBudgetSoak(core::ServiceRuntime& runtime,
                               core::Client& client,
                               storage::ContainerId cid,
                               const security::Capability& cap,
                               std::uint64_t seed) {
  constexpr int kEpochs = 6;
  constexpr std::uint32_t kRanks = 4;
  constexpr std::size_t kStateBytes = 64 << 10;

  ASSERT_TRUE(client.Mkdir("/zc", true).ok());
  const util::CopySnapshot base = util::CopyStats::Snapshot();
  std::uint64_t payload_bytes = 0;
  int succeeded = 0;
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    SCOPED_TRACE("epoch " + std::to_string(epoch));
    checkpoint::LwfsCheckpoint::Config config;
    config.path = "/zc/run" + std::to_string(epoch);
    config.cid = cid;
    config.cap = cap;
    std::vector<util::SharedSlice> states;
    std::vector<Buffer> plain;  // reference copies for the byte comparison
    for (std::uint32_t r = 0; r < kRanks; ++r) {
      plain.push_back(PatternBuffer(kStateBytes, seed * 100 + r));
      states.push_back(util::SharedSlice::FromBuffer(Buffer(plain.back())));
    }
    payload_bytes += kRanks * kStateBytes;
    auto stats = checkpoint::LwfsCheckpoint::Run(runtime, config, states);
    if (!stats.ok()) continue;
    ++succeeded;
    auto restored = checkpoint::LwfsCheckpoint::Restore(runtime, cap,
                                                        config.path);
    for (int attempt = 0; attempt < 5 && !restored.ok(); ++attempt) {
      restored = checkpoint::LwfsCheckpoint::Restore(runtime, cap,
                                                     config.path);
    }
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    ASSERT_EQ(restored->size(), plain.size());
    for (std::size_t r = 0; r < plain.size(); ++r) {
      ASSERT_EQ((*restored)[r], plain[r]) << "rank " << r;
    }
  }
  EXPECT_GE(succeeded, kEpochs / 2);
  if (util::CopyStats::Enabled()) {
    const util::CopySnapshot d = util::CopyStats::Snapshot().Since(base);
    EXPECT_LT(d.bytes_of(util::CopyKind::kStage), payload_bytes / 8)
        << "payload bytes are being staged on the zero-copy path";
    // Every successful epoch's payload did reach the stores' medium.
    EXPECT_GE(d.bytes_of(util::CopyKind::kStore),
              static_cast<std::uint64_t>(succeeded) * kRanks * kStateBytes);
  }
}

TEST_F(ChaosTest, SliceCheckpointNeverStagesPayloadUnderFaults) {
  const std::uint64_t seed = ChaosSeeds().front();
  SCOPED_TRACE("LWFS_CHAOS_SEED=" + std::to_string(seed));
  StartRuntime(/*servers=*/3, seed);
  InjectServiceFaults({.drop = 0.01, .corrupt = 0.001});
  SliceCheckpointBudgetSoak(*runtime_, *client_, cid_, cap_, seed);
}

TEST(VirtualChaosTest, SliceCheckpointNeverStagesPayloadOnVirtualTime) {
  const std::uint64_t seed = ChaosSeeds().front();
  SCOPED_TRACE("LWFS_CHAOS_SEED=" + std::to_string(seed));
  util::VirtualClock clock;
  util::Clock::ThreadGuard guard(&clock);
  core::RuntimeOptions options;
  options.storage_servers = 3;
  options.clock = &clock;
  options.client_options.default_timeout = std::chrono::milliseconds(50);
  options.client_options.max_retransmits = 8;
  options.authn.credential_ttl_us = 365LL * 24 * 3600 * 1000 * 1000;
  options.authz.capability_ttl_us = 365LL * 24 * 3600 * 1000 * 1000;
  auto rt = core::ServiceRuntime::Start(options);
  ASSERT_TRUE(rt.ok());
  core::ServiceRuntime& runtime = **rt;
  runtime.AddUser("app", "secret", 100);
  auto client = runtime.MakeClient();
  auto cred = client->Login("app", "secret");
  ASSERT_TRUE(cred.ok());
  auto cid = client->CreateContainer(*cred);
  ASSERT_TRUE(cid.ok());
  auto cap = client->GetCap(*cred, *cid, security::kOpAll);
  ASSERT_TRUE(cap.ok());
  runtime.fabric().injector().Seed(seed);
  const core::Deployment& d = runtime.deployment();
  auto& injector = runtime.fabric().injector();
  const portals::FaultSpec spec{.drop = 0.01, .corrupt = 0.001};
  injector.SetNode(d.authn, spec);
  injector.SetNode(d.authz, spec);
  injector.SetNode(d.naming, spec);
  injector.SetNode(d.locks, spec);
  for (portals::Nid nid : d.storage) injector.SetNode(nid, spec);
  SliceCheckpointBudgetSoak(runtime, *client, *cid, *cap, seed);
}

// ---------------------------------------------------------------------------
// Two-phase commit soak: exactly-once effects under loss and duplication
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, TwoPhaseCommitSoakAppliesExactlyOnce) {
  for (std::uint64_t seed : ChaosSeeds()) {
    SCOPED_TRACE("LWFS_CHAOS_SEED=" + std::to_string(seed));
    StartRuntime(/*servers=*/2, seed);
    ASSERT_TRUE(client_->Mkdir("/txn", true).ok());
    InjectServiceFaults({.drop = 0.01, .corrupt = 0.001});

    Rng rng(seed);
    core::TxnParticipants participants;
    participants.storage_servers = {0, 1};
    participants.naming = true;

    for (int i = 0; i < kTxnsPerSeed; ++i) {
      SCOPED_TRACE("txn " + std::to_string(i));
      const std::string path = "/txn/t" + std::to_string(i);
      auto txn = client_->BeginTxn(0, cap_, participants);
      if (!txn.ok()) continue;  // journal create lost; nothing staged yet

      // The object count probe is direct memory access (no RPC), so it is
      // exact even while the fabric is lossy.
      const std::uint64_t objects_before = runtime_->store(1).ObjectCount();
      auto oid = client_->CreateObject(1, cap_, (*txn)->id());
      if (!oid.ok()) {
        EXPECT_TRUE((*txn)->Abort().ok() || true);  // best-effort cleanup
        continue;
      }
      Buffer payload = PatternBuffer(64 + (i % 5) * 32, seed + (unsigned)i);
      Status wrote = client_->WriteObject(1, cap_, *oid, 0, ByteSpan(payload));
      Status staged = client_->StageLinkName(
          (*txn)->id(), path, storage::ObjectRef{cid_, 1, *oid});

      const bool want_commit = wrote.ok() && staged.ok() && rng.NextBelow(10) < 7;
      Status outcome = want_commit ? (*txn)->Commit() : (*txn)->Abort();
      if (!outcome.ok() && want_commit) {
        // Ambiguous commit (a 2PC message exhausted its retransmit budget):
        // replay the journal until the transaction converges, exactly as a
        // restarted coordinator would.  The fabric is still lossy, so the
        // recovery client gets the same deep retransmit budget.
        rpc::ClientOptions ropts;
        ropts.default_timeout = std::chrono::milliseconds(50);
        ropts.max_retransmits = 8;
        rpc::RpcClient recovery_rpc(runtime_->fabric().CreateNic(), ropts);
        core::RemoteParticipant s0(&recovery_rpc,
                                   runtime_->deployment().storage[0],
                                   "storage:0");
        core::RemoteParticipant s1(&recovery_rpc,
                                   runtime_->deployment().storage[1],
                                   "storage:1");
        core::RemoteParticipant nm(&recovery_rpc, runtime_->deployment().naming,
                                   "naming");
        std::map<std::string, txn::Participant*> registry = {
            {"storage:0", &s0}, {"storage:1", &s1}, {"naming", &nm}};
        Status recovered = txn::Coordinator::Recover((*txn)->journal(), registry);
        for (int attempt = 0; attempt < 10 && !recovered.ok(); ++attempt) {
          recovered = txn::Coordinator::Recover((*txn)->journal(), registry);
        }
        ASSERT_TRUE(recovered.ok()) << recovered.ToString();
      }

      // Converged state must be all-or-nothing, never torn.  The verify
      // reads run through the still-lossy fabric, so transient detected
      // failures (kDataLoss / kTimeout) retry; a wrong *accepted* byte or a
      // torn name can never be retried away and fails below.
      auto ref = client_->LookupName(path);
      for (int attempt = 0;
           attempt < 5 && !ref.ok() &&
           ref.status().code() != ErrorCode::kNotFound;
           ++attempt) {
        ref = client_->LookupName(path);
      }
      if (ref.ok()) {
        auto back =
            testio::ReadObjectBytes(*client_, 1, cap_, *oid, 0, payload.size());
        for (int attempt = 0; attempt < 5 && !back.ok(); ++attempt) {
          back = testio::ReadObjectBytes(*client_, 1, cap_, *oid, 0,
                                         payload.size());
        }
        ASSERT_TRUE(back.ok()) << back.status().ToString();
        EXPECT_EQ(*back, payload);  // applied exactly once, byte-exact
      } else {
        EXPECT_EQ(ref.status().code(), ErrorCode::kNotFound);
        if (!want_commit && outcome.ok()) {
          // A clean abort must have compensated the eager create away.
          EXPECT_EQ(runtime_->store(1).ObjectCount(), objects_before);
        }
      }
    }

    // Dedup absorbed duplicated requests somewhere in the soak (at 1% drop
    // across thousands of messages, retransmission is a certainty).
    const metrics::Snapshot robustness = runtime_->metrics()->Snapshot();
    EXPECT_GT(robustness.Get("fabric.faults.drops"), 0u);
    EXPECT_GT(robustness.Sum("**.rpc.**.dedup_hits"), 0u);
  }
}

// ---------------------------------------------------------------------------
// Crash mid-transaction: journal replay + circuit breaker open/close
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, StorageCrashMidTxnRecoversViaJournalReplay) {
  StartRuntime(/*servers=*/2, /*seed=*/1);
  ASSERT_TRUE(client_->Mkdir("/txn", true).ok());
  const portals::Nid victim = runtime_->deployment().storage[1];

  // A client with a hair-trigger breaker so the outage is observable fast.
  core::Deployment deployment = runtime_->deployment();
  rpc::ClientOptions copts;
  copts.default_timeout = std::chrono::milliseconds(30);
  copts.max_retransmits = 1;
  copts.breaker_threshold = 3;
  copts.breaker_cooldown = std::chrono::milliseconds(100);
  core::Client client(runtime_->fabric().CreateNic(), deployment, copts);

  core::TxnParticipants participants;
  participants.storage_servers = {0, 1};
  participants.naming = true;
  auto txn = client.BeginTxn(0, cap_, participants);
  ASSERT_TRUE(txn.ok()) << txn.status().ToString();
  auto oid = client.CreateObject(1, cap_, (*txn)->id());
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(client
                  .StageLinkName((*txn)->id(), "/txn/crash",
                                 storage::ObjectRef{cid_, 1, *oid})
                  .ok());

  // Kill storage server 1 mid-transaction: the commit cannot complete.
  runtime_->fabric().SetNodeDown(victim, true);
  EXPECT_FALSE((*txn)->Commit().ok());

  // Repeated contact failures open the breaker; once open, calls are
  // refused instantly instead of burning a timeout each.
  for (int i = 0; i < 10 && !client.BreakerOpen(victim); ++i) {
    (void)client.GetAttr(1, cap_, *oid);
  }
  EXPECT_TRUE(client.BreakerOpen(victim));
  EXPECT_EQ(client.GetAttr(1, cap_, *oid).status().code(),
            ErrorCode::kUnavailable);
  EXPECT_GT(client.metrics()->Snapshot().Get("rpc.breaker_fast_fails"), 0u);

  // Crash recovery: bring the node back, rebuild its volatile state, and
  // replay the coordinator journal.  No COMMIT record was written, so
  // presumed abort finishes the transaction everywhere (including the
  // naming server, which drops the staged link).
  runtime_->fabric().SetNodeDown(victim, false);
  runtime_->storage_server(1).Restart();
  rpc::RpcClient recovery_rpc(runtime_->fabric().CreateNic());
  core::RemoteParticipant s0(&recovery_rpc, deployment.storage[0],
                             "storage:0");
  core::RemoteParticipant s1(&recovery_rpc, deployment.storage[1],
                             "storage:1");
  core::RemoteParticipant nm(&recovery_rpc, deployment.naming, "naming");
  std::map<std::string, txn::Participant*> registry = {
      {"storage:0", &s0}, {"storage:1", &s1}, {"naming", &nm}};
  ASSERT_TRUE(txn::Coordinator::Recover((*txn)->journal(), registry).ok());
  EXPECT_EQ(*(*txn)->journal()->Outcome((*txn)->id()),
            txn::TxnOutcome::kFinished);
  EXPECT_EQ(client_->LookupName("/txn/crash").status().code(),
            ErrorCode::kNotFound);

  // Breaker closes via a half-open probe once the server answers again.
  util::RealClockInstance()->SleepFor(copts.breaker_cooldown +
                              std::chrono::milliseconds(20));
  EXPECT_TRUE(client.GetAttr(1, cap_, *oid).ok());  // probe succeeds
  EXPECT_FALSE(client.BreakerOpen(victim));

  // Full end-to-end recovery: a fresh transaction commits cleanly.
  auto txn2 = client.BeginTxn(0, cap_, participants);
  ASSERT_TRUE(txn2.ok());
  auto oid2 = client.CreateObject(1, cap_, (*txn2)->id());
  ASSERT_TRUE(oid2.ok());
  Buffer data = {1, 2, 3};
  ASSERT_TRUE(client.WriteObject(1, cap_, *oid2, 0, ByteSpan(data)).ok());
  ASSERT_TRUE(client
                  .StageLinkName((*txn2)->id(), "/txn/after",
                                 storage::ObjectRef{cid_, 1, *oid2})
                  .ok());
  ASSERT_TRUE((*txn2)->Commit().ok());
  auto ref = client.LookupName("/txn/after");
  ASSERT_TRUE(ref.ok());
  auto back = testio::ReadObjectBytes(client, 1, cap_, *oid2, 0, data.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
}

TEST_F(ChaosTest, NamingServerRestartPreservesCommittedNames) {
  StartRuntime(/*servers=*/2, /*seed=*/2);
  ASSERT_TRUE(client_->Mkdir("/dir", true).ok());
  auto oid = client_->CreateObject(0, cap_);
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(
      client_->LinkName("/dir/a", storage::ObjectRef{cid_, 0, *oid}).ok());

  // Restart rebuilds the service from its own snapshot: committed names
  // survive, staged (uncommitted) links and the reply cache do not.
  ASSERT_TRUE(runtime_->naming_server().Restart().ok());

  auto ref = client_->LookupName("/dir/a");
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(ref->oid, *oid);
  EXPECT_TRUE(client_->Mkdir("/dir/deeper", true).ok());  // still writable
}

// ---------------------------------------------------------------------------
// Partition: both sides degrade cleanly and heal
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, PartitionHealsWithoutStateDamage) {
  StartRuntime(/*servers=*/2, /*seed=*/3);
  auto oid = client_->CreateObject(0, cap_);
  ASSERT_TRUE(oid.ok());
  Buffer data = PatternBuffer(256, 7);
  ASSERT_TRUE(client_->WriteObject(0, cap_, *oid, 0, ByteSpan(data)).ok());

  // Cut the client off from storage server 0 only: every message between
  // the two vanishes until the partition heals.
  const portals::Nid storage0 = runtime_->deployment().storage[0];
  runtime_->fabric().injector().Partition(client_->nid(), storage0, true);
  Buffer out(data.size(), 0);
  EXPECT_FALSE(client_->ReadObject(0, cap_, *oid, 0, MutableByteSpan(out)).ok());

  // Other services are unaffected during the partition.
  EXPECT_TRUE(client_->Mkdir("/during-partition", true).ok());

  runtime_->fabric().injector().Partition(client_->nid(), storage0, false);
  auto bytes = client_->ReadObject(0, cap_, *oid, 0, MutableByteSpan(out));
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, data.size());
  EXPECT_EQ(out, data);  // nothing was torn by the outage
}

// ---------------------------------------------------------------------------
// Replica kill mid-epoch: zero data loss at replication >= 2
// ---------------------------------------------------------------------------

// The kill-a-replica matrix: for each chaos seed, one storage server is
// crashed in the middle of every checkpoint epoch — either *before* its
// next delivery is applied and acked (the message dies with the node) or
// *after* it (the replica commits, acks, then dies).  At replication
// factor 3 both arms must lose nothing: the epoch completes, restores
// byte-exactly while the victim is still dark, and after heal + restart
// the repair scanner restores full replication (replica-count audit).
TEST_F(ChaosTest, ReplicatedCheckpointSurvivesReplicaKillMidEpoch) {
  constexpr int kReplicatedEpochs = 6;
  for (std::uint64_t seed : ChaosSeeds()) {
    for (const bool crash_after : {false, true}) {
      SCOPED_TRACE("LWFS_CHAOS_SEED=" + std::to_string(seed) +
                   (crash_after ? " crash=after-ack" : " crash=before-ack"));
      StartRuntime(/*servers=*/4, seed);
      ASSERT_TRUE(client_->Mkdir("/rep", true).ok());
      Rng rng(seed);
      for (int epoch = 0; epoch < kReplicatedEpochs; ++epoch) {
        SCOPED_TRACE("epoch " + std::to_string(epoch));
        const auto victim = static_cast<std::uint32_t>(rng.NextBelow(4));
        const portals::Nid victim_nid = runtime_->deployment().storage[victim];
        if (crash_after) {
          runtime_->fabric().injector().CrashAfterDelivery(victim_nid);
        } else {
          runtime_->fabric().injector().CrashBeforeDelivery(victim_nid);
        }

        checkpoint::LwfsCheckpoint::Config config;
        config.path = "/rep/run" + std::to_string(epoch);
        config.cid = cid_;
        config.cap = cap_;
        config.replication_factor = 3;
        auto states =
            MakeStates(4, 1024 + 256 * (epoch % 3), seed ^ (std::uint64_t)epoch);
        auto stats = checkpoint::LwfsCheckpoint::Run(*runtime_, config, states);
        // Zero data loss: every epoch commits despite the mid-epoch crash
        // (a chain is 3 of 4 servers; one victim can never take out all
        // members, so writes degrade instead of failing)...
        ASSERT_TRUE(stats.ok()) << stats.status().ToString();

        // ...and restores byte-exactly while the victim is still dark.
        auto restored =
            checkpoint::LwfsCheckpoint::Restore(*runtime_, cap_, config.path);
        ASSERT_TRUE(restored.ok()) << restored.status().ToString();
        ASSERT_EQ(restored->size(), states.size());
        for (std::size_t r = 0; r < states.size(); ++r) {
          ASSERT_EQ((*restored)[r], states[r]) << "rank " << r;
        }

        // Heal: the victim restarts (re-registering its real holdings) and
        // the repair scan restores full replication before the next epoch.
        runtime_->fabric().SetNodeDown(victim_nid, false);
        runtime_->storage_server(static_cast<int>(victim)).Restart();
        auto scan = runtime_->replicator().RunScan();
        ASSERT_TRUE(scan.ok()) << scan.status().ToString();
        EXPECT_EQ(scan->failed, 0u);
        const auto audit = runtime_->replica_map().Audit();
        EXPECT_EQ(audit.under_replicated, 0u) << "repair did not converge";
        EXPECT_EQ(audit.stale_members, 0u);
        EXPECT_EQ(audit.fully_replicated, audit.objects);
      }
      // The matrix really killed nodes.
      EXPECT_GT(runtime_->metrics()->Snapshot().Get("fabric.faults.crashes"),
                0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Virtual time: same seed => bit-identical chaos runs
// ---------------------------------------------------------------------------

// One reduced chaos soak on a fresh deployment driven entirely by a
// VirtualClock, returning a trace of everything observable about the run:
// per-epoch checkpoint outcomes, virtual timestamps, the deployment's
// metrics snapshot, and a CRC digest of every object left in every store.
// Two traces are equal iff the two runs were indistinguishable.
std::string VirtualSoakTrace(std::uint64_t seed) {
  constexpr int kEpochs = 8;
  util::VirtualClock clock;
  std::ostringstream trace;
  {
    util::Clock::ThreadGuard guard(&clock);
    core::RuntimeOptions options;
    options.storage_servers = 3;
    options.clock = &clock;
    options.client_options.default_timeout = std::chrono::milliseconds(50);
    options.client_options.max_retransmits = 8;
    // Idle virtual waits jump time by hours in one step; stretch credential
    // and capability lifetimes so the modeled run can never expire them.
    options.authn.credential_ttl_us = 365LL * 24 * 3600 * 1000 * 1000;
    options.authz.capability_ttl_us = 365LL * 24 * 3600 * 1000 * 1000;
    auto rt = core::ServiceRuntime::Start(options);
    if (!rt.ok()) return "start: " + rt.status().ToString();
    core::ServiceRuntime& runtime = **rt;
    runtime.AddUser("app", "secret", 100);
    auto client = runtime.MakeClient();
    auto cred = client->Login("app", "secret");
    if (!cred.ok()) return "login: " + cred.status().ToString();
    auto cid = client->CreateContainer(*cred);
    if (!cid.ok()) return "container: " + cid.status().ToString();
    auto cap = client->GetCap(*cred, *cid, security::kOpAll);
    if (!cap.ok()) return "cap: " + cap.status().ToString();
    if (!client->Mkdir("/ckpt", true).ok()) return "mkdir failed";

    runtime.fabric().injector().Seed(seed);
    const core::Deployment& d = runtime.deployment();
    auto& injector = runtime.fabric().injector();
    const portals::FaultSpec spec{.drop = 0.01, .corrupt = 0.001};
    injector.SetNode(d.authn, spec);
    injector.SetNode(d.authz, spec);
    injector.SetNode(d.naming, spec);
    injector.SetNode(d.locks, spec);
    for (portals::Nid nid : d.storage) injector.SetNode(nid, spec);

    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      checkpoint::LwfsCheckpoint::Config config;
      config.path = "/ckpt/run" + std::to_string(epoch);
      config.cid = *cid;
      config.cap = *cap;
      auto states =
          MakeStates(4, 512 + 128 * (epoch % 3), seed ^ (std::uint64_t)epoch);
      auto stats = checkpoint::LwfsCheckpoint::Run(runtime, config, states);
      trace << "epoch " << epoch << ": ";
      if (stats.ok()) {
        trace << "ok creates=" << stats->creates << " bytes=" << stats->bytes;
      } else {
        trace << "err " << stats.status().ToString();
      }
      trace << " t_us=" << clock.NowUs() << "\n";
    }

    trace << "metrics " << runtime.metrics()->Snapshot().Json() << "\n";

    for (int i = 0; i < runtime.storage_count(); ++i) {
      auto oids = runtime.store(i).List(*cid);
      if (!oids.ok()) return "list: " + oids.status().ToString();
      std::sort(oids->begin(), oids->end());
      for (storage::ObjectId oid : *oids) {
        auto attr = runtime.store(i).GetAttr(oid);
        if (!attr.ok()) return "getattr: " + attr.status().ToString();
        auto data = runtime.store(i).Read(oid, 0, attr->size);
        if (!data.ok()) return "read: " + data.status().ToString();
        trace << "store " << i << " oid=" << oid.value
              << " size=" << attr->size << " crc=" << Crc32(ByteSpan(*data))
              << "\n";
      }
    }
    trace << "t_end_us=" << clock.NowUs() << "\n";
  }
  return trace.str();
}

TEST(VirtualChaosTest, SameSeedRunsAreBitDeterministic) {
  const std::uint64_t seed = ChaosSeeds().front();
  SCOPED_TRACE("LWFS_CHAOS_SEED=" + std::to_string(seed));
  const std::string golden = VirtualSoakTrace(seed);
  // Sanity: the run actually did work on virtual time before comparing.
  ASSERT_NE(golden.find("t_end_us="), std::string::npos) << golden;
  EXPECT_NE(golden.find("epoch 0: ok"), std::string::npos) << golden;
  for (int run = 1; run < 3; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    EXPECT_EQ(VirtualSoakTrace(seed), golden);
  }
}

// Replicated soak on the virtual clock: replication factor 3, a replica
// crashed in the middle of every epoch (alternating crash-before-delivery
// and crash-after-delivery), then heal + restart + repair scan.  The trace
// records every epoch outcome, restore digest, scan summary, audit counts,
// replication counters, and the per-store object CRCs, so bit-identical
// traces mean the whole write/crash/repair cycle is deterministic.
std::string VirtualReplicatedSoakTrace(std::uint64_t seed) {
  constexpr int kEpochs = 6;
  constexpr int kServers = 4;
  util::VirtualClock clock;
  std::ostringstream trace;
  {
    util::Clock::ThreadGuard guard(&clock);
    core::RuntimeOptions options;
    options.storage_servers = kServers;
    options.clock = &clock;
    options.client_options.default_timeout = std::chrono::milliseconds(50);
    options.client_options.max_retransmits = 8;
    options.authn.credential_ttl_us = 365LL * 24 * 3600 * 1000 * 1000;
    options.authz.capability_ttl_us = 365LL * 24 * 3600 * 1000 * 1000;
    options.replication.replication_factor = 3;
    auto rt = core::ServiceRuntime::Start(options);
    if (!rt.ok()) return "start: " + rt.status().ToString();
    core::ServiceRuntime& runtime = **rt;
    runtime.AddUser("app", "secret", 100);
    auto client = runtime.MakeClient();
    auto cred = client->Login("app", "secret");
    if (!cred.ok()) return "login: " + cred.status().ToString();
    auto cid = client->CreateContainer(*cred);
    if (!cid.ok()) return "container: " + cid.status().ToString();
    auto cap = client->GetCap(*cred, *cid, security::kOpAll);
    if (!cap.ok()) return "cap: " + cap.status().ToString();
    if (!client->Mkdir("/rep", true).ok()) return "mkdir failed";

    runtime.fabric().injector().Seed(seed);
    const core::Deployment& d = runtime.deployment();

    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      const int victim = epoch % kServers;
      const portals::Nid victim_nid = d.storage[victim];
      if (epoch % 2 == 0) {
        runtime.fabric().injector().CrashBeforeDelivery(victim_nid);
      } else {
        runtime.fabric().injector().CrashAfterDelivery(victim_nid);
      }

      checkpoint::LwfsCheckpoint::Config config;
      config.path = "/rep/run" + std::to_string(epoch);
      config.cid = *cid;
      config.cap = *cap;
      config.replication_factor = 3;
      auto states =
          MakeStates(4, 512 + 128 * (epoch % 3), seed ^ (std::uint64_t)epoch);
      auto stats = checkpoint::LwfsCheckpoint::Run(runtime, config, states);
      trace << "epoch " << epoch << ": ";
      if (stats.ok()) {
        trace << "ok creates=" << stats->creates << " bytes=" << stats->bytes;
      } else {
        trace << "err " << stats.status().ToString();
      }

      // Restore with the victim still dark: zero data loss means every
      // rank comes back byte-exact from the surviving replicas.
      auto restored =
          checkpoint::LwfsCheckpoint::Restore(runtime, *cap, config.path);
      if (!restored.ok()) {
        trace << " restore=err:" << restored.status().ToString();
      } else {
        bool exact = restored->size() == states.size();
        for (std::size_t r = 0; exact && r < states.size(); ++r) {
          exact = (*restored)[r] == states[r];
        }
        trace << (exact ? " restore=exact" : " restore=MISMATCH");
      }

      // Heal and repair before the next epoch.
      runtime.fabric().SetNodeDown(victim_nid, false);
      runtime.storage_server(victim).Restart();
      auto scan = runtime.replicator().RunScan();
      if (!scan.ok()) {
        trace << " scan=err:" << scan.status().ToString();
      } else {
        trace << " scan stale=" << scan->stale_members
              << " repaired=" << scan->repaired << " failed=" << scan->failed
              << " copied=" << scan->bytes_copied;
      }
      const auto audit = runtime.replica_map().Audit();
      trace << " audit=" << audit.fully_replicated << "/" << audit.objects
            << " under=" << audit.under_replicated
            << " stale=" << audit.stale_members;
      trace << " t_us=" << clock.NowUs() << "\n";
    }

    trace << "client " << client->metrics()->Snapshot().Json() << "\n";
    trace << "metrics " << runtime.metrics()->Snapshot().Json() << "\n";

    for (int i = 0; i < runtime.storage_count(); ++i) {
      auto oids = runtime.store(i).List(*cid);
      if (!oids.ok()) return "list: " + oids.status().ToString();
      std::sort(oids->begin(), oids->end());
      for (storage::ObjectId oid : *oids) {
        auto attr = runtime.store(i).GetAttr(oid);
        if (!attr.ok()) return "getattr: " + attr.status().ToString();
        auto data = runtime.store(i).Read(oid, 0, attr->size);
        if (!data.ok()) return "read: " + data.status().ToString();
        trace << "store " << i << " oid=" << oid.value
              << " size=" << attr->size << " crc=" << Crc32(ByteSpan(*data))
              << "\n";
      }
    }
    trace << "t_end_us=" << clock.NowUs() << "\n";
  }
  return trace.str();
}

TEST(VirtualChaosTest, ReplicatedKillRepairSoakIsBitDeterministic) {
  const std::uint64_t seed = ChaosSeeds().front();
  SCOPED_TRACE("LWFS_CHAOS_SEED=" + std::to_string(seed));
  const std::string golden = VirtualReplicatedSoakTrace(seed);
  ASSERT_NE(golden.find("t_end_us="), std::string::npos) << golden;
  // Zero data loss and full repair convergence inside the soak itself.
  EXPECT_EQ(golden.find("restore=MISMATCH"), std::string::npos) << golden;
  EXPECT_EQ(golden.find("restore=err"), std::string::npos) << golden;
  EXPECT_EQ(golden.find("err "), std::string::npos) << golden;
  EXPECT_NE(golden.find(" under=0 stale=0"), std::string::npos) << golden;
  for (int run = 1; run < 3; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    EXPECT_EQ(VirtualReplicatedSoakTrace(seed), golden);
  }
}

}  // namespace
}  // namespace lwfs

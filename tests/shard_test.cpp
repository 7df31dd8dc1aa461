// Sharded metadata plane with warm-standby failover (DESIGN.md §16):
//
//  * the consistent-hash shard map is deterministic (same config => same
//    placement) and minimal-movement (growing the ring only moves keys to
//    the new shard);
//  * striped replicated-oid minting decodes ownership statelessly;
//  * the replica registry demotes known-stale members to the back of
//    looked-up chains (hedged reads try healthy members first);
//  * namespace ops route across shards end to end over the real RPC stack,
//    and cross-shard renames are atomic under 2PC at every crash point;
//  * killing a shard primary mid-workload fails the shard over to its warm
//    standby with zero committed namespace ops lost, bit-deterministically
//    across same-seed virtual-clock runs;
//  * the PFS baseline's MDS gets the same warm-standby treatment.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/client.h"
#include "core/runtime.h"
#include "naming/replica_map.h"
#include "naming/shard_map.h"
#include "pfs/client.h"
#include "pfs/pfs_runtime.h"
#include "storage/ids.h"
#include "txn/two_phase.h"
#include "util/clock.h"
#include "test_io.h"

namespace lwfs {
namespace {

// ---------------------------------------------------------------------------
// Shard map: determinism, distribution, minimal movement
// ---------------------------------------------------------------------------

std::vector<std::string> TestKeys(int n) {
  std::vector<std::string> keys;
  keys.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    keys.push_back("/app/run" + std::to_string(i % 7) + "/rank" +
                   std::to_string(i));
  }
  return keys;
}

TEST(ShardMapTest, PlacementIsDeterministicAndCoversEveryShard) {
  const auto keys = TestKeys(512);
  std::vector<int> hits(4, 0);
  for (const std::string& key : keys) {
    const std::uint64_t hash = naming::ShardMap::HashPath(key);
    const std::uint32_t shard = naming::ShardMap::ShardForHash(hash, 4);
    ASSERT_LT(shard, 4u);
    // Pure function: recomputing places the key identically.
    EXPECT_EQ(naming::ShardMap::ShardForHash(hash, 4), shard);
    EXPECT_EQ(naming::ShardMap::HashPath(key), hash);
    ++hits[shard];
  }
  for (int shard = 0; shard < 4; ++shard) {
    EXPECT_GT(hits[shard], 0) << "shard " << shard << " owns no keys";
  }
}

TEST(ShardMapTest, GrowingTheRingOnlyMovesKeysToTheNewShard) {
  const auto keys = TestKeys(512);
  for (std::uint32_t from = 1; from <= 7; ++from) {
    const std::uint32_t to = from + 1;
    int moved = 0;
    for (const std::string& key : keys) {
      const std::uint64_t hash = naming::ShardMap::HashPath(key);
      const std::uint32_t before = naming::ShardMap::ShardForHash(hash, from);
      const std::uint32_t after = naming::ShardMap::ShardForHash(hash, to);
      if (before != after) {
        // Minimal movement: a key that moves at all moves to the shard the
        // grow added, never between surviving shards.
        EXPECT_EQ(after, to - 1)
            << key << " moved " << before << "->" << after << " at " << from
            << "->" << to << " shards";
        ++moved;
      }
    }
    // The new shard takes roughly 1/to of the keyspace (with vnode-count
    // variance); anything near a full reshuffle means the ring is not
    // consistent.
    EXPECT_LE(moved, 2 * static_cast<int>(keys.size()) / static_cast<int>(to))
        << "grow " << from << "->" << to << " moved far more than 1/" << to
        << " of the keyspace";
    EXPECT_GT(moved, 0) << "grow " << from << "->" << to << " moved nothing";
  }
}

TEST(ShardMapTest, StripedOidMintingDecodesOwnership) {
  naming::ShardMap map;
  map.AddShard(101);
  map.AddShard(102);
  map.AddShard(103);
  for (std::uint32_t shard = 0; shard < 3; ++shard) {
    naming::ReplicaMapOptions options;
    options.servers = 4;
    options.shard_index = shard;
    options.shard_count = 3;
    naming::ReplicaMap registry(options);
    for (int i = 0; i < 8; ++i) {
      auto placed = registry.Place(storage::ContainerId{1}, 0, 2);
      ASSERT_TRUE(placed.ok());
      EXPECT_TRUE(storage::IsReplicatedOid(placed->oid));
      EXPECT_EQ(map.ShardForOid(placed->oid), shard);
    }
  }
}

TEST(ShardMapTest, PromoteSwapsPrimaryAndStandbyAndBumpsEpoch) {
  naming::ShardMap map;
  map.AddShard(/*primary=*/11, /*standby=*/21);
  map.AddShard(/*primary=*/12, /*standby=*/22);
  const std::uint64_t epoch0 = map.epoch();
  EXPECT_TRUE(map.IsActivePrimary(1, 12));
  EXPECT_TRUE(map.IsStandby(1, 22));

  ASSERT_TRUE(map.Promote(1, 22).ok());
  EXPECT_TRUE(map.IsActivePrimary(1, 22));
  EXPECT_FALSE(map.IsActivePrimary(1, 12));
  EXPECT_GT(map.epoch(), epoch0);
  // Shard 0 is untouched.
  EXPECT_TRUE(map.IsActivePrimary(0, 11));
  // Only the registered standby may be promoted.
  EXPECT_FALSE(map.Promote(0, 99).ok());
}

// ---------------------------------------------------------------------------
// Replica registry: stale members demoted on lookup
// ---------------------------------------------------------------------------

TEST(ReplicaMapStaleTest, LookupDemotesStaleMembersToTheBack) {
  naming::ReplicaMapOptions options;
  options.servers = 6;
  options.default_factor = 3;
  naming::ReplicaMap registry(options);
  auto placed = registry.Place(storage::ContainerId{5}, 0, 3);
  ASSERT_TRUE(placed.ok());
  ASSERT_EQ(placed->chain.size(), 3u);
  const std::uint32_t head = placed->chain[0];

  EXPECT_EQ(registry.stale_demotions(), 0u);
  auto clean = registry.Lookup(placed->oid);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->chain, placed->chain);  // no stale member, no reorder
  EXPECT_EQ(registry.stale_demotions(), 0u);

  // The head missed a committed write: lookups must stop preferring it.
  ASSERT_TRUE(registry.ReportStale(placed->oid, 2, {head}).ok());
  auto demoted = registry.Lookup(placed->oid);
  ASSERT_TRUE(demoted.ok());
  ASSERT_EQ(demoted->chain.size(), 3u);
  EXPECT_EQ(demoted->chain.back(), head);  // stale member at the back
  EXPECT_EQ(demoted->chain[0], placed->chain[1]);  // healthy order preserved
  EXPECT_EQ(demoted->chain[1], placed->chain[2]);
  EXPECT_EQ(registry.stale_demotions(), 1u);

  // The repair scanner wants registry order, not the read preference.
  auto snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].chain, placed->chain);
}

// ---------------------------------------------------------------------------
// Sharded namespace end to end
// ---------------------------------------------------------------------------

class ShardedRuntimeTest : public ::testing::Test {
 protected:
  void StartRuntime(std::uint32_t shards, bool standby) {
    core::RuntimeOptions options;
    options.storage_servers = 2;
    options.naming_shards = shards;
    options.naming_standby = standby;
    auto rt = core::ServiceRuntime::Start(options);
    ASSERT_TRUE(rt.ok()) << rt.status().ToString();
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
  }

  std::unique_ptr<core::ServiceRuntime> runtime_;
  std::unique_ptr<core::Client> client_;
  storage::ContainerId cid_{};
  security::Capability cap_{};
};

TEST_F(ShardedRuntimeTest, NamespaceOpsRouteAcrossFourShards) {
  StartRuntime(/*shards=*/4, /*standby=*/false);
  ASSERT_EQ(client_->naming_shard_count(), 4u);
  ASSERT_TRUE(client_->Mkdir("/data").ok());

  constexpr int kFiles = 48;
  std::set<std::uint32_t> owners;
  for (int i = 0; i < kFiles; ++i) {
    const std::string path = "/data/f" + std::to_string(i);
    auto oid = client_->CreateObject(0, cap_);
    ASSERT_TRUE(oid.ok());
    ASSERT_TRUE(client_->LinkName(path, storage::ObjectRef{cid_, 0, *oid}).ok())
        << path;
    const std::uint32_t owner = runtime_->shard_map()->ShardForPath(path);
    owners.insert(owner);
    // The owning shard resolves its leaf directly; every other shard must
    // not know the name (the namespace is partitioned, not replicated).
    EXPECT_TRUE(runtime_->naming_server(owner).service()->Lookup(path).ok());
    for (std::uint32_t other = 0; other < 4; ++other) {
      if (other == owner) continue;
      EXPECT_FALSE(runtime_->naming_server(other).service()->Lookup(path).ok());
    }
  }
  EXPECT_GT(owners.size(), 1u) << "all keys landed on one shard";

  // Every link resolves through the routed client path.
  for (int i = 0; i < kFiles; ++i) {
    EXPECT_TRUE(client_->LookupName("/data/f" + std::to_string(i)).ok());
  }
  // The cached map was right.
  EXPECT_EQ(client_->metrics()->Snapshot().Get("wrong_shard_retries"), 0u);

  // List merges the per-shard partitions into one sorted directory.
  auto listed = client_->ListNames("/data");
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), static_cast<std::size_t>(kFiles));
  for (std::size_t i = 1; i < listed->size(); ++i) {
    EXPECT_LT((*listed)[i - 1].name, (*listed)[i].name);
  }

  // Rmdir refuses while any shard still holds a leaf, then succeeds.
  EXPECT_EQ(client_->RmdirName("/data").code(), ErrorCode::kFailedPrecondition);
  for (int i = 0; i < kFiles; ++i) {
    ASSERT_TRUE(client_->UnlinkName("/data/f" + std::to_string(i)).ok());
  }
  EXPECT_TRUE(client_->RmdirName("/data").ok());
}

TEST_F(ShardedRuntimeTest, SingleShardKeepsLegacyBehavior) {
  StartRuntime(/*shards=*/1, /*standby=*/false);
  EXPECT_EQ(client_->naming_shard_count(), 1u);
  ASSERT_TRUE(client_->Mkdir("/d").ok());
  auto oid = client_->CreateObject(0, cap_);
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(
      client_->LinkName("/d/x", storage::ObjectRef{cid_, 0, *oid}).ok());
  // Same-shard rename stays the one-server atomic op.
  ASSERT_TRUE(client_->RenameName("/d/x", "/d/y").ok());
  EXPECT_TRUE(client_->LookupName("/d/y").ok());
  EXPECT_EQ(client_->LookupName("/d/x").status().code(), ErrorCode::kNotFound);
}

// Find two sibling paths owned by different shards.
std::pair<std::string, std::string> CrossShardPair(
    const naming::ShardMap& map) {
  const std::string base = "/move/src";
  const std::uint32_t src_shard = map.ShardForPath(base);
  for (int i = 0; i < 1024; ++i) {
    const std::string dst = "/move/dst" + std::to_string(i);
    if (map.ShardForPath(dst) != src_shard) return {base, dst};
  }
  return {base, base};  // unreachable with a sane ring
}

TEST_F(ShardedRuntimeTest, CrossShardRenameIsAtomic) {
  StartRuntime(/*shards=*/4, /*standby=*/false);
  ASSERT_TRUE(client_->Mkdir("/move").ok());
  const auto [from, to] = CrossShardPair(*runtime_->shard_map());
  ASSERT_NE(runtime_->shard_map()->ShardForPath(from),
            runtime_->shard_map()->ShardForPath(to));

  auto oid = client_->CreateObject(0, cap_);
  ASSERT_TRUE(oid.ok());
  const storage::ObjectRef ref{cid_, 0, *oid};
  ASSERT_TRUE(client_->LinkName(from, ref).ok());

  // The plain rename refuses to span shards.
  EXPECT_EQ(client_->RenameName(from, to).code(),
            ErrorCode::kFailedPrecondition);

  // The transactional rename moves the link atomically.
  ASSERT_TRUE(client_->RenameNameTxn(from, to, 0, cap_).ok());
  auto moved = client_->LookupName(to);
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(*moved, ref);
  EXPECT_EQ(client_->LookupName(from).status().code(), ErrorCode::kNotFound);
}

TEST_F(ShardedRuntimeTest, CrossShardRenameSurvivesEveryCrashPoint) {
  StartRuntime(/*shards=*/4, /*standby=*/false);
  ASSERT_TRUE(client_->Mkdir("/move").ok());
  const auto [from, to] = CrossShardPair(*runtime_->shard_map());
  const std::uint32_t src = runtime_->shard_map()->ShardForPath(from);
  const std::uint32_t dst = runtime_->shard_map()->ShardForPath(to);
  ASSERT_NE(src, dst);

  auto oid = client_->CreateObject(0, cap_);
  ASSERT_TRUE(oid.ok());
  const storage::ObjectRef ref{cid_, 0, *oid};

  struct Case {
    txn::CrashPoint crash;
    bool commits;  // rename visible after recovery?
  };
  const Case kMatrix[] = {
      {txn::CrashPoint::kAfterPrepare, false},
      {txn::CrashPoint::kAfterCommitRecord, true},
  };
  for (const Case& c : kMatrix) {
    SCOPED_TRACE(c.commits ? "kAfterCommitRecord" : "kAfterPrepare");
    // (Re)establish the starting state: `from` linked, `to` absent.
    if (!client_->LookupName(from).ok()) {
      ASSERT_TRUE(client_->LinkName(from, ref).ok());
    }
    if (client_->LookupName(to).ok()) {
      ASSERT_TRUE(client_->UnlinkName(to).ok());
    }

    core::TxnParticipants participants;
    participants.naming_shards = {src, dst};
    auto txn = client_->BeginTxn(0, cap_, participants);
    ASSERT_TRUE(txn.ok()) << txn.status().ToString();
    ASSERT_TRUE(client_->StageLinkName((*txn)->id(), to, ref).ok());
    ASSERT_TRUE(client_->StageUnlinkName((*txn)->id(), from).ok());

    // The coordinator dies at the chosen point in the protocol.
    (*txn)->coordinator()->SetCrashPoint(c.crash);
    EXPECT_EQ((*txn)->Commit().code(), ErrorCode::kUnavailable);

    // Nothing is torn while the transaction is in doubt: either both names
    // reflect the old state or the staged ops are simply not applied yet.
    EXPECT_TRUE(client_->LookupName(from).ok());
    EXPECT_EQ(client_->LookupName(to).status().code(), ErrorCode::kNotFound);

    // A restarted coordinator replays the journal against the per-shard
    // participants (recovery matches them by name).
    rpc::RpcClient recovery_rpc(runtime_->fabric().CreateNic());
    const core::Deployment& d = client_->deployment();
    std::vector<std::unique_ptr<core::RemoteParticipant>> stubs;
    std::map<std::string, txn::Participant*> registry;
    for (std::uint32_t shard : {src, dst}) {
      auto stub = std::make_unique<core::RemoteParticipant>(
          &recovery_rpc, d.naming_shards[shard],
          "naming" + std::to_string(shard));
      registry[stub->name()] = stub.get();
      stubs.push_back(std::move(stub));
    }
    ASSERT_TRUE(txn::Coordinator::Recover((*txn)->journal(), registry).ok());

    if (c.commits) {
      auto moved = client_->LookupName(to);
      ASSERT_TRUE(moved.ok());
      EXPECT_EQ(*moved, ref);
      EXPECT_EQ(client_->LookupName(from).status().code(),
                ErrorCode::kNotFound);
    } else {
      EXPECT_TRUE(client_->LookupName(from).ok());
      EXPECT_EQ(client_->LookupName(to).status().code(), ErrorCode::kNotFound);
    }
  }
}

// ---------------------------------------------------------------------------
// Warm-standby failover on the virtual clock
// ---------------------------------------------------------------------------

/// One seeded failover run: link names across 2 shards, kill shard 0's
/// primary mid-workload, keep linking, then dump every observable fact.
/// Two equal traces mean two indistinguishable runs.
std::string FailoverTrace(std::uint64_t seed) {
  util::VirtualClock clock;
  std::ostringstream trace;
  util::Clock::ThreadGuard guard(&clock);
  core::RuntimeOptions options;
  options.storage_servers = 2;
  options.naming_shards = 2;
  options.naming_standby = true;
  options.clock = &clock;
  options.client_options.default_timeout = std::chrono::milliseconds(50);
  options.client_options.max_retransmits = 2;
  options.authn.credential_ttl_us = 365LL * 24 * 3600 * 1000 * 1000;
  options.authz.capability_ttl_us = 365LL * 24 * 3600 * 1000 * 1000;
  auto rt = core::ServiceRuntime::Start(options);
  if (!rt.ok()) return "start: " + rt.status().ToString();
  core::ServiceRuntime& runtime = **rt;
  runtime.fabric().injector().Seed(seed);
  runtime.AddUser("app", "secret", 100);
  auto client = runtime.MakeClient();
  auto cred = client->Login("app", "secret");
  if (!cred.ok()) return "login: " + cred.status().ToString();
  auto cid = client->CreateContainer(*cred);
  if (!cid.ok()) return "container: " + cid.status().ToString();
  auto cap = client->GetCap(*cred, *cid, security::kOpAll);
  if (!cap.ok()) return "cap: " + cap.status().ToString();
  if (!client->Mkdir("/ckpt").ok()) return "mkdir failed";

  constexpr int kBefore = 24;
  constexpr int kAfter = 24;
  std::vector<std::string> committed;
  auto link = [&](int i) -> Status {
    const std::string path = "/ckpt/rank" + std::to_string(i);
    auto oid = client->CreateObject(0, *cap);
    if (!oid.ok()) return oid.status();
    Status linked = client->LinkName(path, storage::ObjectRef{*cid, 0, *oid});
    if (linked.ok()) committed.push_back(path);
    return linked;
  };
  for (int i = 0; i < kBefore; ++i) {
    Status linked = link(i);
    if (!linked.ok()) return "pre-kill link: " + linked.ToString();
  }

  // Kill shard 0's primary.  The next op owned by shard 0 times out there,
  // retries the warm standby, and the standby's first admitted request
  // replays the op log and claims the shard.
  const portals::Nid victim = client->deployment().naming_shards[0];
  runtime.fabric().SetNodeDown(victim, true);
  for (int i = kBefore; i < kBefore + kAfter; ++i) {
    Status linked = link(i);
    if (!linked.ok()) return "post-kill link: " + linked.ToString();
  }

  // Zero committed ops lost: every link acknowledged before or after the
  // kill resolves, and resolves to the right object.
  for (const std::string& path : committed) {
    auto ref = client->LookupName(path);
    trace << path << " -> ";
    if (ref.ok()) {
      trace << ref->server_index << ":" << ref->oid.value;
    } else {
      trace << ref.status().ToString();
    }
    trace << "\n";
  }
  // Summed over every naming endpoint, primaries and standbys.
  const metrics::Snapshot snap = runtime.metrics()->Snapshot();
  trace << "committed=" << committed.size()
        << " takeovers=" << snap.Sum("*.*.takeovers")
        << " replayed=" << snap.Sum("*.*.replayed")
        << " replay_errors=" << snap.Sum("*.*.replay_errors")
        << " failovers="
        << client->metrics()->Snapshot().Get("naming_failovers")
        << " epoch=" << runtime.shard_map()->epoch()
        << " t_us=" << clock.NowUs() << "\n";
  return trace.str();
}

TEST(ShardFailoverTest, StandbyTakesOverWithZeroLostCommittedOps) {
  const std::string trace = FailoverTrace(/*seed=*/7);
  SCOPED_TRACE(trace);
  // Every committed link resolved (no "NOT_FOUND" in the dump)...
  EXPECT_EQ(trace.find("NOT_FOUND"), std::string::npos);
  EXPECT_NE(trace.find("committed=48"), std::string::npos);
  // ...exactly one takeover happened, it replayed the shard's log, and the
  // client failed over (at least once; follow-up ops go straight to the
  // promoted standby via the refreshed map).
  EXPECT_NE(trace.find("takeovers=1"), std::string::npos);
  EXPECT_NE(trace.find("replay_errors=0"), std::string::npos);
  EXPECT_EQ(trace.find("failovers=0"), std::string::npos);
  EXPECT_EQ(trace.find("epoch=1 "), std::string::npos);  // epoch advanced
}

TEST(ShardFailoverTest, SameSeedFailoverRunsAreBitDeterministic) {
  const std::string golden = FailoverTrace(/*seed=*/11);
  ASSERT_NE(golden.find("takeovers=1"), std::string::npos) << golden;
  EXPECT_EQ(FailoverTrace(/*seed=*/11), golden);
}

// ---------------------------------------------------------------------------
// PFS baseline: MDS warm standby
// ---------------------------------------------------------------------------

TEST(MdsFailoverTest, StandbyServesCommittedNamespaceAfterPrimaryDeath) {
  util::VirtualClock clock;
  util::Clock::ThreadGuard guard(&clock);
  core::RuntimeOptions core_options;
  core_options.storage_servers = 2;
  core_options.clock = &clock;
  core_options.client_options.default_timeout = std::chrono::milliseconds(50);
  core_options.client_options.max_retransmits = 2;
  auto core = core::ServiceRuntime::Start(core_options);
  ASSERT_TRUE(core.ok()) << core.status().ToString();
  portals::Fabric& fabric = (*core)->fabric();
  pfs::PfsRuntimeOptions options;
  options.mds_standby = true;
  auto rt = pfs::PfsRuntime::Start(core->get(), options);
  ASSERT_TRUE(rt.ok()) << rt.status().ToString();
  pfs::PfsRuntime& runtime = **rt;
  ASSERT_NE(runtime.deployment().mds_standby, portals::kInvalidNid);
  auto client = runtime.MakeClient(pfs::ConsistencyMode::kRelaxed);

  // Commit some namespace state through the primary.
  std::vector<pfs::OpenFile> files;
  for (int i = 0; i < 6; ++i) {
    auto file = client->Create("/f" + std::to_string(i), 2);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    files.push_back(*file);
  }
  const Buffer payload = PatternBuffer(256, 3);
  ASSERT_TRUE(testio::WriteAt(*client, files[0], 0, ByteSpan(payload)).ok());
  ASSERT_TRUE(client->Sync(files[0], payload.size()).ok());

  // Kill the primary MDS: metadata ops time out there, fail over to the
  // standby, and its first admitted request replays the shared op log.
  fabric.SetNodeDown(runtime.deployment().mds, true);

  for (int i = 0; i < 6; ++i) {
    auto attr = client->GetAttr("/f" + std::to_string(i));
    ASSERT_TRUE(attr.ok()) << "file " << i << ": "
                           << attr.status().ToString();
    if (i == 0) {
      EXPECT_EQ(attr->size, payload.size());  // SetSize replayed
    }
  }
  EXPECT_GT(client->metrics()->Snapshot().Get("mds_failovers"), 0u);
  ASSERT_NE(runtime.mds_standby_server(), nullptr);
  const metrics::Snapshot standby =
      runtime.mds_standby_server()->metrics()->Snapshot();
  EXPECT_EQ(standby.Get("takeovers"), 1u);
  EXPECT_GT(standby.Get("replayed"), 0u);
  EXPECT_EQ(standby.Get("replay_errors"), 0u);

  // The promoted standby serves new work: creates keep striping over the
  // OSTs, and the data written before the failover reads back byte-exact.
  auto fresh = client->Create("/after", 2);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  Buffer back(payload.size());
  auto reopened = client->Open("/f0");
  ASSERT_TRUE(reopened.ok());
  auto n = testio::ReadAt(*client, *reopened, 0, MutableByteSpan(back));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, payload.size());
  EXPECT_EQ(back, payload);
}

}  // namespace
}  // namespace lwfs

// Replication layer (DESIGN.md §15): rack-aware placement, chain-replicated
// writes, hedged/failover reads, restart re-registration, and background
// repair — each invariant checked end to end over the real RPC stack:
//
//  * placement is a pure function of registry state (deterministic) and
//    spreads chains across racks;
//  * a chain write commits on every member byte-exactly, and applies
//    exactly once however often the fabric duplicates its messages;
//  * a restarting server re-registers what it actually holds before taking
//    traffic, so a racing repair scan never sees a phantom-empty server;
//  * the repair scanner restores lost replicas from survivors and catches
//    version-diverged members up (the audit goes back to fully replicated);
//  * reads survive a dead chain head via failover and hedging.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "core/client.h"
#include "core/runtime.h"
#include "naming/replica_map.h"
#include "storage/ids.h"
#include "util/clock.h"
#include "util/shared_buffer.h"
#include "test_io.h"

namespace lwfs {
namespace {

std::vector<Buffer> MakeStates(std::uint32_t nranks, std::size_t bytes,
                               std::uint64_t salt) {
  std::vector<Buffer> states;
  states.reserve(nranks);
  for (std::uint32_t r = 0; r < nranks; ++r) {
    states.push_back(PatternBuffer(bytes, salt * 1000 + r));
  }
  return states;
}

// ---------------------------------------------------------------------------
// Placement: deterministic, rack-aware
// ---------------------------------------------------------------------------

TEST(ReplicaMapTest, PlacementIsDeterministicAndRackAware) {
  naming::ReplicaMapOptions options;
  options.servers = 6;
  options.default_factor = 3;
  options.rack_size = 2;
  naming::ReplicaMap a(options);
  naming::ReplicaMap b(options);
  for (std::uint32_t i = 0; i < 16; ++i) {
    const std::uint32_t preferred = i % options.servers;
    auto pa = a.Place(storage::ContainerId{7}, preferred, 0);
    auto pb = b.Place(storage::ContainerId{7}, preferred, 0);
    ASSERT_TRUE(pa.ok() && pb.ok());
    // Same registry state => same oid and same chain: the placement is a
    // pure function, which is what keeps VirtualClock runs bit-identical.
    EXPECT_EQ(pa->oid, pb->oid);
    EXPECT_EQ(pa->chain, pb->chain);
    EXPECT_TRUE(storage::IsReplicatedOid(pa->oid));
    ASSERT_EQ(pa->chain.size(), 3u);
    EXPECT_EQ(pa->chain.front(), preferred);
    const std::set<std::uint32_t> members(pa->chain.begin(), pa->chain.end());
    EXPECT_EQ(members.size(), 3u) << "chain repeats a server";
    std::set<std::uint32_t> racks;
    for (std::uint32_t s : pa->chain) racks.insert(s / options.rack_size);
    EXPECT_EQ(racks.size(), 3u) << "chain does not spread across racks";
  }
}

// ---------------------------------------------------------------------------
// Full-stack fixture
// ---------------------------------------------------------------------------

class ReplicationTest : public ::testing::Test {
 protected:
  void StartRuntime(int servers, std::uint32_t factor,
                    std::uint64_t hedge_after_us = 0,
                    std::chrono::milliseconds breaker_cooldown =
                        rpc::ClientOptions{}.breaker_cooldown) {
    core::RuntimeOptions options;
    options.storage_servers = servers;
    options.replication.replication_factor = factor;
    options.replication.hedge_after_us = hedge_after_us;
    // Small repair chunks so multi-chunk repairs (and the final-chunk
    // version stamp) are exercised by modest objects.
    options.replication.repair_chunk_bytes = 64 << 10;
    options.client_options.default_timeout = std::chrono::milliseconds(100);
    options.client_options.max_retransmits = 4;
    options.client_options.breaker_cooldown = breaker_cooldown;
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
  }

  void ExpectAllMembersHold(const core::ReplicaChain& chain,
                            const Buffer& data) {
    for (std::uint32_t s : chain.servers) {
      auto back =
          runtime_->store(static_cast<int>(s)).Read(chain.oid, 0, data.size());
      ASSERT_TRUE(back.ok()) << "server " << s << ": "
                             << back.status().ToString();
      EXPECT_EQ(*back, data) << "server " << s;
    }
  }

  std::unique_ptr<core::ServiceRuntime> runtime_;
  std::unique_ptr<core::Client> client_;
  storage::ContainerId cid_{};
  security::Capability cap_;
};

// ---------------------------------------------------------------------------
// Chain writes
// ---------------------------------------------------------------------------

TEST_F(ReplicationTest, ChainWriteReachesEveryMember) {
  StartRuntime(/*servers=*/4, /*factor=*/3);
  auto chain = client_->CreateReplicatedObject(cap_, 0, 3);
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  ASSERT_EQ(chain->servers.size(), 3u);

  Buffer data = PatternBuffer(96 << 10, 42);
  ASSERT_TRUE(testio::WriteReplicated(*client_, cap_, *chain, 0,
                                      ByteSpan(data)).ok());
  ExpectAllMembersHold(*chain, data);

  Buffer out(data.size(), 0);
  auto n = testio::ReadReplicated(*client_, cap_, *chain, 0,
                                  MutableByteSpan(out));
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, data.size());
  EXPECT_EQ(out, data);

  auto audit = client_->AuditReplicas();
  ASSERT_TRUE(audit.ok());
  EXPECT_EQ(audit->objects, 1u);
  EXPECT_EQ(audit->fully_replicated, 1u);
  EXPECT_EQ(audit->stale_members, 0u);
}

// Satellite: replica-push and repair ops stay idempotent under the
// at-most-once reply cache.  A duplicated chain-hop delivery must not apply
// twice (appends would double the object) or re-forward down the chain.
TEST_F(ReplicationTest, ChainWritesApplyOnceUnderDuplicateDelivery) {
  StartRuntime(/*servers=*/4, /*factor=*/3);
  runtime_->fabric().injector().Seed(0xD0BBED);
  const core::Deployment& d = runtime_->deployment();
  auto& injector = runtime_->fabric().injector();
  const portals::FaultSpec spec{.duplicate = 0.3};
  injector.SetNode(d.naming, spec);
  for (portals::Nid nid : d.storage) injector.SetNode(nid, spec);

  auto chain = client_->CreateReplicatedObject(cap_, 1, 3);
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  Buffer first = PatternBuffer(4096, 1);
  Buffer second = PatternBuffer(4096, 2);
  ASSERT_TRUE(testio::WriteReplicated(*client_, cap_, *chain, 0,
                                      ByteSpan(first)).ok());
  ASSERT_TRUE(
      testio::WriteReplicated(*client_, cap_, *chain, first.size(),
                              ByteSpan(second))
          .ok());
  Buffer whole = first;
  whole.insert(whole.end(), second.begin(), second.end());
  for (std::uint32_t s : chain->servers) {
    auto attr = runtime_->store(static_cast<int>(s)).GetAttr(chain->oid);
    ASSERT_TRUE(attr.ok()) << "server " << s;
    EXPECT_EQ(attr->size, whole.size()) << "a write applied twice on " << s;
  }
  ExpectAllMembersHold(*chain, whole);

  // Repair ops under the same duplication: force a scan that probes and
  // repairs, then a second scan — both must converge without damage.
  ASSERT_TRUE(runtime_->replica_map()
                  .ReportStale(chain->oid, 2, {chain->servers.back()})
                  .ok());
  auto scan = runtime_->replicator().RunScan();
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan->failed, 0u);
  auto again = runtime_->replicator().RunScan();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->failed, 0u);
  ExpectAllMembersHold(*chain, whole);

  const metrics::Snapshot robustness = runtime_->metrics()->Snapshot();
  EXPECT_GT(robustness.Get("fabric.faults.duplicates"), 0u)
      << "fabric was not hostile";
  EXPECT_GT(robustness.Sum("**.rpc.**.dedup_hits"), 0u)
      << "reply cache never engaged";
}

// ---------------------------------------------------------------------------
// Restart re-registration (no phantom-empty server)
// ---------------------------------------------------------------------------

// Satellite: StorageServer::Restart reports the store's actual holdings to
// the registry before serving traffic.  A stale mark the registry holds in
// error (the member really has the bytes) is corrected by the restart, and
// a racing repair scan finds nothing to do.
TEST_F(ReplicationTest, RestartReRegistersHoldingsWithRegistry) {
  StartRuntime(/*servers=*/4, /*factor=*/3);
  auto chain = client_->CreateReplicatedObject(cap_, 0, 3);
  ASSERT_TRUE(chain.ok());
  Buffer data = PatternBuffer(8192, 5);
  ASSERT_TRUE(testio::WriteReplicated(*client_, cap_, *chain, 0,
                                      ByteSpan(data)).ok());

  const auto member = static_cast<int>(chain->servers.front());
  ASSERT_TRUE(runtime_->replica_map()
                  .ReportStale(chain->oid, 1, {chain->servers.front()})
                  .ok());
  EXPECT_EQ(runtime_->replica_map().Audit().stale_members, 1u);

  runtime_->storage_server(member).Restart();
  EXPECT_EQ(runtime_->replica_map().Audit().stale_members, 0u)
      << "restart did not re-register the store's holdings";

  auto scan = runtime_->replicator().RunScan();
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->repaired, 0u);
  EXPECT_EQ(scan->failed, 0u);
  EXPECT_EQ(scan->bytes_copied, 0u);
  ExpectAllMembersHold(*chain, data);
}

// The inverse phantom: the store really lost the object across the restart.
// The holdings report marks it stale and the next scan re-replicates it
// from a survivor, byte-exactly, restoring the audit to fully replicated.
TEST_F(ReplicationTest, RepairRestoresReplicaLostAcrossRestart) {
  StartRuntime(/*servers=*/4, /*factor=*/3);
  auto chain = client_->CreateReplicatedObject(cap_, 2, 3);
  ASSERT_TRUE(chain.ok());
  // Three repair chunks at the fixture's 64 KiB repair_chunk_bytes, so the
  // final-chunk version stamp is exercised.
  Buffer data = PatternBuffer(192 << 10, 9);
  ASSERT_TRUE(testio::WriteReplicated(*client_, cap_, *chain, 0,
                                      ByteSpan(data)).ok());

  const auto victim = static_cast<int>(chain->servers.back());
  ASSERT_TRUE(runtime_->store(victim).Remove(chain->oid).ok());
  runtime_->storage_server(victim).Restart();
  auto audit = runtime_->replica_map().Audit();
  EXPECT_EQ(audit.under_replicated, 1u);
  EXPECT_EQ(audit.stale_members, 1u);

  auto scan = runtime_->replicator().RunScan();
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan->repaired, 1u);
  EXPECT_EQ(scan->failed, 0u);
  EXPECT_GE(scan->bytes_copied, data.size());

  ExpectAllMembersHold(*chain, data);
  audit = runtime_->replica_map().Audit();
  EXPECT_EQ(audit.objects, 1u);
  EXPECT_EQ(audit.fully_replicated, 1u);
  EXPECT_EQ(audit.stale_members, 0u);
}

// Repair moves survivor bytes without staging them anywhere: the survivor's
// reply slice is forwarded as the repair write's payload, so the only
// budgeted copies are the two store copies (survivor read, member write).
TEST_F(ReplicationTest, RepairScanStagesNoBytes) {
  if (!util::CopyStats::Enabled()) {
    GTEST_SKIP() << "built without LWFS_COUNT_COPIES";
  }
  StartRuntime(/*servers=*/4, /*factor=*/3);
  auto chain = client_->CreateReplicatedObject(cap_, 1, 3);
  ASSERT_TRUE(chain.ok());
  Buffer data = PatternBuffer(192 << 10, 12);
  ASSERT_TRUE(testio::WriteReplicated(*client_, cap_, *chain, 0,
                                      ByteSpan(data)).ok());
  const auto victim = static_cast<int>(chain->servers.back());
  ASSERT_TRUE(runtime_->store(victim).Remove(chain->oid).ok());
  runtime_->storage_server(victim).Restart();

  const util::CopySnapshot base = util::CopyStats::Snapshot();
  auto scan = runtime_->replicator().RunScan();
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  const util::CopySnapshot d = util::CopyStats::Snapshot().Since(base);
  EXPECT_EQ(scan->repaired, 1u);
  EXPECT_EQ(scan->bytes_copied, data.size());
  EXPECT_EQ(d.bytes_of(util::CopyKind::kStage), 0u);
  EXPECT_EQ(d.bytes_of(util::CopyKind::kStore), 2 * data.size());
  ExpectAllMembersHold(*chain, data);
}

// A chain write whose end wraps past 2^64 is refused at the head, before
// any member's store or scheduler sees it.
TEST_F(ReplicationTest, WrappingChainWriteIsRejected) {
  StartRuntime(/*servers=*/4, /*factor=*/3);
  auto chain = client_->CreateReplicatedObject(cap_, 0, 3);
  ASSERT_TRUE(chain.ok());
  Buffer data = PatternBuffer(64 << 10, 13);
  const std::uint64_t wrapping = ~std::uint64_t{0} - 100;
  EXPECT_EQ(
      testio::WriteReplicated(*client_, cap_, *chain, wrapping,
                              ByteSpan(data)).code(),
      ErrorCode::kInvalidArgument);
  for (std::uint32_t s : chain->servers) {
    auto attr = runtime_->store(static_cast<int>(s)).GetAttr(chain->oid);
    ASSERT_TRUE(attr.ok());
    EXPECT_EQ(attr->size, 0u) << "server " << s;
  }
}

// ---------------------------------------------------------------------------
// Degraded writes and version catch-up
// ---------------------------------------------------------------------------

TEST_F(ReplicationTest, DegradedWriteReportsStaleAndRepairCatchesUp) {
  StartRuntime(/*servers=*/4, /*factor=*/3);
  auto chain = client_->CreateReplicatedObject(cap_, 0, 3);
  ASSERT_TRUE(chain.ok());
  Buffer first = PatternBuffer(4096, 10);
  ASSERT_TRUE(testio::WriteReplicated(*client_, cap_, *chain, 0,
                                      ByteSpan(first)).ok());

  // The tail goes dark mid-object: the next write still succeeds (degraded)
  // and reports the unreachable member to the registry.
  const std::uint32_t victim = chain->servers.back();
  const portals::Nid victim_nid = runtime_->deployment().storage[victim];
  runtime_->fabric().SetNodeDown(victim_nid, true);
  Buffer second = PatternBuffer(4096, 11);
  ASSERT_TRUE(
      testio::WriteReplicated(*client_, cap_, *chain, first.size(),
                              ByteSpan(second))
          .ok());
  const metrics::Snapshot stats = client_->metrics()->Snapshot();
  EXPECT_GT(stats.Get("replication.degraded_writes"), 0u);
  EXPECT_GT(stats.Get("replication.stale_reports"), 0u);
  auto audit = client_->AuditReplicas();
  ASSERT_TRUE(audit.ok());
  EXPECT_EQ(audit->under_replicated, 1u);

  // Victim comes back holding version 1 while the chain committed version
  // 2: the scan must copy the survivor bytes *and* catch the version up,
  // or the member would probe stale forever.
  runtime_->fabric().SetNodeDown(victim_nid, false);
  auto scan = runtime_->replicator().RunScan();
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan->repaired, 1u);
  EXPECT_EQ(scan->failed, 0u);

  Buffer whole = first;
  whole.insert(whole.end(), second.begin(), second.end());
  ExpectAllMembersHold(*chain, whole);
  audit = client_->AuditReplicas();
  ASSERT_TRUE(audit.ok());
  EXPECT_EQ(audit->fully_replicated, 1u);
  EXPECT_EQ(audit->stale_members, 0u);

  // And the registry stays converged: a second scan is a no-op.
  auto again = runtime_->replicator().RunScan();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->repaired, 0u);
  EXPECT_EQ(again->bytes_copied, 0u);
}

// A dead *middle* hop must be skipped, not allowed to sever the chain: the
// head forwards past it straight to the tail, so the write commits on every
// reachable member and only the dead one goes stale.  (Regression: the
// forwarder used to drop everything downstream of an unreachable hop,
// leaving a live, created-but-empty tail that reads would then trust.)
TEST_F(ReplicationTest, DeadMiddleHopIsSkippedNotSevered) {
  StartRuntime(/*servers=*/4, /*factor=*/3);
  auto chain = client_->CreateReplicatedObject(cap_, 0, 3);
  ASSERT_TRUE(chain.ok());

  const std::uint32_t middle = chain->servers[1];
  const std::uint32_t tail = chain->servers[2];
  runtime_->fabric().SetNodeDown(runtime_->deployment().storage[middle], true);

  Buffer data = PatternBuffer(32 << 10, 31);
  ASSERT_TRUE(testio::WriteReplicated(*client_, cap_, *chain, 0,
                                      ByteSpan(data)).ok());

  // The tail holds the full bytes even though the hop before it was dark.
  auto held = runtime_->store(static_cast<int>(tail))
                  .Read(chain->oid, 0, data.size());
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  EXPECT_EQ(*held, data);

  // Exactly the dead member is stale; the survivors are current.
  auto audit = client_->AuditReplicas();
  ASSERT_TRUE(audit.ok());
  EXPECT_EQ(audit->under_replicated, 1u);
  EXPECT_EQ(audit->stale_members, 1u);
}

// A deployment total is a sum by name over every endpoint, so the replica
// portal's CRC failures count: the corrupt pull lands on the middle's
// chain-forwarding endpoint, not its data or control endpoint.
TEST_F(ReplicationTest, DeploymentTotalsCoverTheReplicaEndpoint) {
  StartRuntime(/*servers=*/4, /*factor=*/3);
  auto chain = client_->CreateReplicatedObject(cap_, 0, 3);
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  const auto head = static_cast<std::size_t>(chain->servers[0]);
  const auto middle = static_cast<std::size_t>(chain->servers[1]);
  const core::Deployment& d = runtime_->deployment();
  runtime_->fabric().injector().SetLink(d.storage[middle], d.storage[head],
                                        portals::FaultSpec{.corrupt = 1.0});

  const Buffer data = PatternBuffer(256 << 10, 92);
  ASSERT_TRUE(testio::WriteReplicated(*client_, cap_, *chain, 0,
                                      ByteSpan(data)).ok());
  const metrics::Snapshot snap = runtime_->metrics()->Snapshot();
  const std::uint64_t at_replica = snap.Get(
      "storage." + std::to_string(middle) + ".rpc.replica.bulk_crc_failures");
  EXPECT_GT(at_replica, 0u);
  EXPECT_GE(snap.Sum("**.rpc.**.bulk_crc_failures"), at_replica);
}

// A chain hop forwards the CRC it verified instead of re-streaming the
// chunk, and the next hop still checks the bytes it pulls against it:
// corruption on the head -> middle link is rejected at the middle, whose
// store never sees the bad bytes, and a clean retry lands everywhere.
TEST_F(ReplicationTest, ForwardedCrcStillRejectsCorruptionOnTheNextHop) {
  StartRuntime(/*servers=*/4, /*factor=*/3);
  auto chain = client_->CreateReplicatedObject(cap_, 0, 3);
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  const auto head = static_cast<int>(chain->servers[0]);
  const auto middle = static_cast<int>(chain->servers[1]);
  const auto tail = static_cast<int>(chain->servers[2]);
  const core::Deployment& d = runtime_->deployment();
  auto& injector = runtime_->fabric().injector();
  // The middle pulls the chunk from the head; everything on that link
  // arrives with a flipped byte.
  const portals::Nid from = d.storage[static_cast<std::size_t>(middle)];
  const portals::Nid to = d.storage[static_cast<std::size_t>(head)];
  injector.SetLink(from, to, portals::FaultSpec{.corrupt = 1.0});

  const Buffer data = PatternBuffer(256 << 10, 91);
  ASSERT_TRUE(testio::WriteReplicated(*client_, cap_, *chain, 0,
                                      ByteSpan(data)).ok());
  EXPECT_GT(injector.metrics()->Snapshot().Get("corruptions"), 0u);
  EXPECT_GT(runtime_->storage_server(middle).metrics()->Snapshot().Get(
                "rpc.replica.bulk_crc_failures"),
            0u);
  auto untouched = runtime_->store(middle).GetAttr(chain->oid);
  ASSERT_TRUE(untouched.ok());
  EXPECT_EQ(untouched->size, 0u) << "corrupt bytes reached the middle's store";
  for (int s : {head, tail}) {
    auto held = runtime_->store(s).Read(chain->oid, 0, data.size());
    ASSERT_TRUE(held.ok()) << "server " << s;
    EXPECT_TRUE(*held == data) << "server " << s;
  }

  injector.ClearFaults();
  ASSERT_TRUE(testio::WriteReplicated(*client_, cap_, *chain, 0,
                                      ByteSpan(data)).ok());
  ExpectAllMembersHold(*chain, data);
}

// ---------------------------------------------------------------------------
// Hedged / failover reads
// ---------------------------------------------------------------------------

TEST_F(ReplicationTest, ReadsSurviveDownHeadViaFailoverAndHedging) {
  // The last phase trips the dead head's breaker and expects the next read
  // to see it open; a cooldown far longer than the test keeps a slow host
  // from half-opening it in between.
  StartRuntime(/*servers=*/4, /*factor=*/3, /*hedge_after_us=*/500,
               /*breaker_cooldown=*/std::chrono::minutes(1));
  auto chain = client_->CreateReplicatedObject(cap_, 0, 3);
  ASSERT_TRUE(chain.ok());
  Buffer data = PatternBuffer(16 << 10, 21);
  ASSERT_TRUE(testio::WriteReplicated(*client_, cap_, *chain, 0,
                                      ByteSpan(data)).ok());

  const std::uint32_t head = chain->servers.front();
  const portals::Nid head_nid = runtime_->deployment().storage[head];

  // Latency hedge: the head answers, but every message touching it is
  // delayed 5 ms.  The hedge fires at 500 us, lands on a healthy member,
  // and its reply wins the race.
  runtime_->fabric().injector().SetNode(head_nid,
                                        {.delay = 1.0, .delay_us = 5000});
  Buffer out(data.size(), 0);
  auto n = testio::ReadReplicated(*client_, cap_, *chain, 0,
                                  MutableByteSpan(out));
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, data.size());
  EXPECT_EQ(out, data);
  metrics::Snapshot stats = client_->metrics()->Snapshot();
  EXPECT_GT(stats.Get("replication.hedged_reads"), 0u);
  EXPECT_GT(stats.Get("replication.hedge_wins"), 0u);
  // Let the head's late losing reply land first: arriving after the last
  // phase tripped the breaker, that reply would close it again.
  for (int i = 0; i < 2000 && client_->metrics()->Snapshot().Get(
                                  "replication.hedge_loser_bytes") == 0;
       ++i) {
    util::RealClockInstance()->SleepFor(std::chrono::milliseconds(1));
  }
  runtime_->fabric().injector().Reset();

  // Dead head: the read fails over to a surviving member.
  runtime_->fabric().SetNodeDown(head_nid, true);
  std::fill(out.begin(), out.end(), 0);
  n = testio::ReadReplicated(*client_, cap_, *chain, 0, MutableByteSpan(out));
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(out, data);
  stats = client_->metrics()->Snapshot();
  EXPECT_GT(stats.Get("replication.read_failovers"), 0u);

  // Tripped breaker: the hedge fires immediately at issue time instead of
  // waiting out hedge_after_us.
  for (int i = 0; i < 10 && !client_->BreakerOpen(head_nid); ++i) {
    (void)client_->GetAttr(head, cap_, chain->oid);
  }
  ASSERT_TRUE(client_->BreakerOpen(head_nid));
  const std::uint64_t hedged_before = stats.Get("replication.hedged_reads");
  std::fill(out.begin(), out.end(), 0);
  n = testio::ReadReplicated(*client_, cap_, *chain, 0, MutableByteSpan(out));
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(out, data);
  stats = client_->metrics()->Snapshot();
  EXPECT_GT(stats.Get("replication.hedged_reads"), hedged_before);
}

// Satellite regression: a losing hedge must not strand its payload.  Before
// the slice read path, the loser's reply pushed a full object into a pinned
// landing buffer that was then thrown away; now the loser resolves to a
// ref-counted slice whose arrival is tallied (hedge_loser_bytes) and whose
// only cost is a refcount drop.
TEST_F(ReplicationTest, LosingHedgeReplyIsTalliedAndReleased) {
  StartRuntime(/*servers=*/4, /*factor=*/3, /*hedge_after_us=*/500);
  auto chain = client_->CreateReplicatedObject(cap_, 0, 3);
  ASSERT_TRUE(chain.ok());
  Buffer data = PatternBuffer(32 << 10, 23);
  ASSERT_TRUE(testio::WriteReplicated(*client_, cap_, *chain, 0,
                                      ByteSpan(data)).ok());

  // The head still answers, just 5 ms late: the hedge wins the race and the
  // head's full-payload reply lands as a loser after the read returned.
  const portals::Nid head_nid =
      runtime_->deployment().storage[chain->servers.front()];
  runtime_->fabric().injector().SetNode(head_nid,
                                        {.delay = 1.0, .delay_us = 5000});

  auto slice = client_->ReadReplicatedSlice(cap_, *chain, 0, data.size());
  ASSERT_TRUE(slice.ok()) << slice.status().ToString();
  ASSERT_EQ(slice->size(), data.size());
  EXPECT_TRUE(std::equal(data.begin(), data.end(), slice->span().begin()));
  metrics::Snapshot stats = client_->metrics()->Snapshot();
  EXPECT_GT(stats.Get("replication.hedged_reads"), 0u);
  EXPECT_GT(stats.Get("replication.hedge_wins"), 0u);

  // The loser's late reply carries the whole object; poll until the tally
  // proves it was received, counted, and released rather than stranded.
  std::uint64_t tallied = 0;
  for (int i = 0; i < 500 && tallied < data.size(); ++i) {
    tallied =
        client_->metrics()->Snapshot().Get("replication.hedge_loser_bytes");
    util::RealClockInstance()->SleepFor(std::chrono::milliseconds(1));
  }
  EXPECT_GE(tallied, data.size())
      << "the losing hedge's payload was never tallied (stranded or lost)";
}

// ---------------------------------------------------------------------------
// Replicated checkpoints end to end
// ---------------------------------------------------------------------------

TEST_F(ReplicationTest, ReplicatedCheckpointRoundTripsAndSurvivesOutage) {
  StartRuntime(/*servers=*/4, /*factor=*/3);
  ASSERT_TRUE(client_->Mkdir("/ckpt", true).ok());
  checkpoint::LwfsCheckpoint::Config config;
  config.path = "/ckpt/rep";
  config.cid = cid_;
  config.cap = cap_;
  config.replication_factor = 3;
  auto states = MakeStates(6, 2048, 77);
  auto stats = checkpoint::LwfsCheckpoint::Run(*runtime_, config, states);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->creates, 7u);  // 6 rank objects + the metadata object

  auto restored =
      checkpoint::LwfsCheckpoint::Restore(*runtime_, cap_, config.path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored->size(), states.size());
  for (std::size_t r = 0; r < states.size(); ++r) {
    EXPECT_EQ((*restored)[r], states[r]) << "rank " << r;
  }

  // The zero-copy restore returns every rank as a store-owned slice (the
  // hedged replicated reads ride the slice path too), byte-equal to Restore.
  auto slices =
      checkpoint::LwfsCheckpoint::RestoreSlices(*runtime_, cap_, config.path);
  ASSERT_TRUE(slices.ok()) << slices.status().ToString();
  ASSERT_EQ(slices->size(), states.size());
  for (std::size_t r = 0; r < states.size(); ++r) {
    ASSERT_EQ((*slices)[r].size(), states[r].size()) << "rank " << r;
    EXPECT_TRUE(std::equal(states[r].begin(), states[r].end(),
                           (*slices)[r].span().begin()))
        << "rank " << r;
  }

  auto audit = client_->AuditReplicas();
  ASSERT_TRUE(audit.ok());
  EXPECT_EQ(audit->objects, 7u);
  EXPECT_EQ(audit->fully_replicated, 7u);

  // The whole checkpoint is still restorable with one server dark.
  runtime_->fabric().SetNodeDown(runtime_->deployment().storage[0], true);
  restored = checkpoint::LwfsCheckpoint::Restore(*runtime_, cap_, config.path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  for (std::size_t r = 0; r < states.size(); ++r) {
    EXPECT_EQ((*restored)[r], states[r]) << "rank " << r;
  }
}

}  // namespace
}  // namespace lwfs

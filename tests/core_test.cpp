// Integration tests: the full LWFS-core stack (Figure 3) over the portals
// fabric — authentication, authorization, capability-checked object I/O,
// caching, immediate revocation, naming, locks, and distributed txns.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "core/runtime.h"
#include "util/clock.h"
#include "util/shared_buffer.h"
#include "test_io.h"

namespace lwfs::core {
namespace {

class CoreTest : public ::testing::Test {
 protected:
  void StartRuntime(RuntimeOptions options = {}) {
    auto rt = ServiceRuntime::Start(options);
    ASSERT_TRUE(rt.ok()) << rt.status().ToString();
    runtime_ = std::move(*rt);
    runtime_->AddUser("alice", "pw-a", 100);
    runtime_->AddUser("bob", "pw-b", 200);
    client_ = runtime_->MakeClient();
  }

  /// Login + container + full cap, the Figure 8 MAIN() prologue.
  void SetupAliceWorkspace() {
    auto cred = client_->Login("alice", "pw-a");
    ASSERT_TRUE(cred.ok()) << cred.status().ToString();
    cred_ = *cred;
    auto cid = client_->CreateContainer(cred_);
    ASSERT_TRUE(cid.ok()) << cid.status().ToString();
    cid_ = *cid;
    auto cap = client_->GetCap(cred_, cid_, security::kOpAll);
    ASSERT_TRUE(cap.ok()) << cap.status().ToString();
    cap_ = *cap;
  }

  std::unique_ptr<ServiceRuntime> runtime_;
  std::unique_ptr<Client> client_;
  security::Credential cred_;
  storage::ContainerId cid_;
  security::Capability cap_;
};

TEST_F(CoreTest, LoginOverRpc) {
  StartRuntime();
  auto cred = client_->Login("alice", "pw-a");
  ASSERT_TRUE(cred.ok());
  EXPECT_EQ(cred->uid, 100u);
  EXPECT_EQ(client_->Login("alice", "bad").status().code(),
            ErrorCode::kUnauthenticated);
}

TEST_F(CoreTest, ObjectCrudRoundTrip) {
  StartRuntime();
  SetupAliceWorkspace();
  auto oid = client_->CreateObject(0, cap_);
  ASSERT_TRUE(oid.ok());
  Buffer data = PatternBuffer(100000, 9);
  ASSERT_TRUE(client_->WriteObject(0, cap_, *oid, 0, ByteSpan(data)).ok());
  auto attr = client_->GetAttr(0, cap_, *oid);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->size, data.size());
  EXPECT_EQ(attr->cid, cid_);
  auto back = testio::ReadObjectBytes(*client_, 0, cap_, *oid, 0, data.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
  ASSERT_TRUE(client_->RemoveObject(0, cap_, *oid).ok());
  EXPECT_EQ(client_->GetAttr(0, cap_, *oid).status().code(),
            ErrorCode::kNotFound);
}

TEST_F(CoreTest, LargeWriteMovesInChunks) {
  RuntimeOptions options;
  options.storage.bulk_chunk_bytes = 64 << 10;  // force many pulls
  StartRuntime(options);
  SetupAliceWorkspace();
  auto oid = client_->CreateObject(1, cap_);
  ASSERT_TRUE(oid.ok());
  Buffer data = PatternBuffer((1 << 20) + 123, 4);  // not chunk-aligned
  ASSERT_TRUE(client_->WriteObject(1, cap_, *oid, 0, ByteSpan(data)).ok());
  auto back = testio::ReadObjectBytes(*client_, 1, cap_, *oid, 0,
                                      data.size() + 50);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
}

TEST_F(CoreTest, ObjectsLandOnTheAddressedServer) {
  StartRuntime();
  SetupAliceWorkspace();
  ASSERT_TRUE(client_->CreateObject(0, cap_).ok());
  ASSERT_TRUE(client_->CreateObject(2, cap_).ok());
  EXPECT_EQ(runtime_->store(0).ObjectCount(), 1u);
  EXPECT_EQ(runtime_->store(1).ObjectCount(), 0u);
  EXPECT_EQ(runtime_->store(2).ObjectCount(), 1u);
  EXPECT_FALSE(client_->CreateObject(99, cap_).ok());  // no such server
}

TEST_F(CoreTest, CapabilityOpsAreEnforced) {
  StartRuntime();
  SetupAliceWorkspace();
  auto read_only = client_->GetCap(cred_, cid_, security::kOpRead);
  ASSERT_TRUE(read_only.ok());
  EXPECT_EQ(client_->CreateObject(0, *read_only).status().code(),
            ErrorCode::kPermissionDenied);
  auto oid = client_->CreateObject(0, cap_);
  ASSERT_TRUE(oid.ok());
  Buffer data = {1, 2, 3};
  EXPECT_EQ(client_->WriteObject(0, *read_only, *oid, 0, ByteSpan(data)).code(),
            ErrorCode::kPermissionDenied);
  EXPECT_TRUE(testio::ReadObjectBytes(*client_, 0, *read_only, *oid, 0,
                                      1).ok());
}

TEST_F(CoreTest, ForgedCapabilityRejectedOverTheWire) {
  StartRuntime();
  SetupAliceWorkspace();
  security::Capability forged = cap_;
  forged.cid = storage::ContainerId{cid_.value + 1};  // another container
  EXPECT_EQ(client_->CreateObject(0, forged).status().code(),
            ErrorCode::kPermissionDenied);
  forged = cap_;
  forged.expires_us += 12345;  // tampered expiry breaks the tag
  EXPECT_EQ(client_->CreateObject(0, forged).status().code(),
            ErrorCode::kPermissionDenied);
}

TEST_F(CoreTest, CrossContainerAccessDenied) {
  StartRuntime();
  SetupAliceWorkspace();
  auto oid = client_->CreateObject(0, cap_);
  ASSERT_TRUE(oid.ok());
  // A valid capability for a *different* container must not reach alice's
  // object — and must not even learn it exists.
  auto other_cid = client_->CreateContainer(cred_);
  ASSERT_TRUE(other_cid.ok());
  auto other_cap = client_->GetCap(cred_, *other_cid, security::kOpAll);
  ASSERT_TRUE(other_cap.ok());
  EXPECT_EQ(testio::ReadObjectBytes(*client_, 0, *other_cap, *oid, 0,
                                    1).status().code(),
            ErrorCode::kNotFound);
}

TEST_F(CoreTest, CapCacheEliminatesRepeatVerifies) {
  StartRuntime();
  SetupAliceWorkspace();
  auto& server = runtime_->storage_server(0);
  const std::uint64_t before =
      server.metrics()->Snapshot().Get("remote_verifies");
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client_->CreateObject(0, cap_).ok());
  }
  // One miss (first use), nine hits (Figure 4-b caching).
  EXPECT_EQ(server.metrics()->Snapshot().Get("remote_verifies"), before + 1);
  EXPECT_GE(server.cap_cache().hits(), 9u);
}

TEST_F(CoreTest, CapCacheDisabledVerifiesEveryRequest) {
  RuntimeOptions options;
  options.storage.verify_mode = VerifyMode::kAuthzEveryRequest;
  StartRuntime(options);
  SetupAliceWorkspace();
  auto& server = runtime_->storage_server(0);
  const std::uint64_t before =
      server.metrics()->Snapshot().Get("remote_verifies");
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client_->CreateObject(0, cap_).ok());
  }
  EXPECT_EQ(server.metrics()->Snapshot().Get("remote_verifies"), before + 10);
}

TEST_F(CoreTest, ChmodRevokesImmediatelyAcrossTheWire) {
  StartRuntime();
  runtime_->AddUser("carol", "pw-c", 300);
  SetupAliceWorkspace();
  auto carol_client = runtime_->MakeClient();
  auto carol = carol_client->Login("carol", "pw-c");
  ASSERT_TRUE(carol.ok());
  ASSERT_TRUE(client_->SetGrant(cred_, cid_, 300,
                                security::kOpRead | security::kOpWrite |
                                    security::kOpCreate)
                  .ok());
  auto write_cap = carol_client->GetCap(*carol, cid_,
                                        security::kOpWrite | security::kOpCreate);
  auto read_cap = carol_client->GetCap(*carol, cid_, security::kOpRead);
  ASSERT_TRUE(write_cap.ok() && read_cap.ok());

  // Warm both caps into server 0's cache.
  auto oid = carol_client->CreateObject(0, *write_cap);
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(testio::ReadObjectBytes(*carol_client, 0, *read_cap, *oid, 0,
                                      1).ok());

  // Alice chmods carol to read-only: the server's cached write cap must be
  // invalidated before SetGrant returns ("immediate revocation", §2.4).
  ASSERT_TRUE(client_->SetGrant(cred_, cid_, 300, security::kOpRead).ok());
  Buffer data = {1};
  EXPECT_EQ(
      carol_client->WriteObject(0, *write_cap, *oid, 0, ByteSpan(data)).code(),
      ErrorCode::kPermissionDenied);
  // Partial revocation: the read capability still works.
  EXPECT_TRUE(testio::ReadObjectBytes(*carol_client, 0, *read_cap, *oid, 0,
                                      1).ok());
}

TEST_F(CoreTest, RefreshCapOverRpc) {
  StartRuntime();
  SetupAliceWorkspace();
  auto fresh = client_->RefreshCap(cred_, cap_);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->ops, cap_.ops);
  EXPECT_TRUE(client_->CreateObject(0, *fresh).ok());
}

TEST_F(CoreTest, NamingOverRpc) {
  StartRuntime();
  SetupAliceWorkspace();
  ASSERT_TRUE(client_->Mkdir("/ckpt", true).ok());
  auto oid = client_->CreateObject(1, cap_);
  ASSERT_TRUE(oid.ok());
  storage::ObjectRef ref{cid_, 1, *oid};
  ASSERT_TRUE(client_->LinkName("/ckpt/state", ref).ok());
  auto back = client_->LookupName("/ckpt/state");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, ref);
  auto entries = client_->ListNames("/ckpt");
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 1u);
  EXPECT_EQ((*entries)[0].name, "state");
  ASSERT_TRUE(client_->RenameName("/ckpt/state", "/ckpt/state2").ok());
  ASSERT_TRUE(client_->UnlinkName("/ckpt/state2").ok());
  EXPECT_EQ(client_->LookupName("/ckpt/state2").status().code(),
            ErrorCode::kNotFound);
}

TEST_F(CoreTest, LocksOverRpc) {
  StartRuntime();
  SetupAliceWorkspace();
  txn::LockKey key{cid_.value, 1};
  auto lock = client_->TryLock(key, {0, 100}, txn::LockMode::kExclusive);
  ASSERT_TRUE(lock.ok());
  auto second_client = runtime_->MakeClient();
  EXPECT_EQ(second_client->TryLock(key, {0, 100}, txn::LockMode::kExclusive)
                .status()
                .code(),
            ErrorCode::kResourceExhausted);
  // Blocking acquire on another thread completes once we release.
  std::thread other([&] {
    auto got = second_client->LockBlocking(key, {0, 100},
                                           txn::LockMode::kExclusive);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(second_client->Unlock(*got).ok());
  });
  util::RealClockInstance()->SleepFor(std::chrono::milliseconds(20));
  ASSERT_TRUE(client_->Unlock(*lock).ok());
  other.join();
}

TEST_F(CoreTest, TransactionCommitPublishesName) {
  StartRuntime();
  SetupAliceWorkspace();
  ASSERT_TRUE(client_->Mkdir("/ckpt", true).ok());
  TxnParticipants participants;
  participants.storage_servers = {0, 1};
  participants.naming = true;
  auto txn = client_->BeginTxn(0, cap_, participants);
  ASSERT_TRUE(txn.ok()) << txn.status().ToString();

  auto oid = client_->CreateObject(1, cap_, (*txn)->id());
  ASSERT_TRUE(oid.ok());
  Buffer data = {1, 2, 3};
  ASSERT_TRUE(client_->WriteObject(1, cap_, *oid, 0, ByteSpan(data)).ok());
  ASSERT_TRUE(client_->StageLinkName((*txn)->id(), "/ckpt/run",
                                     storage::ObjectRef{cid_, 1, *oid})
                  .ok());
  EXPECT_EQ(client_->LookupName("/ckpt/run").status().code(),
            ErrorCode::kNotFound);  // invisible before commit
  ASSERT_TRUE((*txn)->Commit().ok());
  auto ref = client_->LookupName("/ckpt/run");
  ASSERT_TRUE(ref.ok());
  auto back = testio::ReadObjectBytes(*client_, ref->server_index, cap_,
                                      ref->oid, 0, 3);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
  EXPECT_EQ(*(*txn)->journal()->Outcome((*txn)->id()), txn::TxnOutcome::kFinished);
}

TEST_F(CoreTest, TransactionAbortRollsBackCreates) {
  StartRuntime();
  SetupAliceWorkspace();
  ASSERT_TRUE(client_->Mkdir("/ckpt", true).ok());
  TxnParticipants participants;
  participants.storage_servers = {1};
  participants.naming = true;
  auto txn = client_->BeginTxn(0, cap_, participants);
  ASSERT_TRUE(txn.ok());
  auto oid = client_->CreateObject(1, cap_, (*txn)->id());
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(client_->StageLinkName((*txn)->id(), "/ckpt/run",
                                     storage::ObjectRef{cid_, 1, *oid})
                  .ok());
  const std::uint64_t objects_before = runtime_->store(1).ObjectCount();
  ASSERT_TRUE((*txn)->Abort().ok());
  // The created object was compensated away and the name never appeared.
  EXPECT_EQ(runtime_->store(1).ObjectCount(), objects_before - 1);
  EXPECT_EQ(client_->LookupName("/ckpt/run").status().code(),
            ErrorCode::kNotFound);
}

TEST_F(CoreTest, RemoveInTransactionIsDeferred) {
  StartRuntime();
  SetupAliceWorkspace();
  auto oid = client_->CreateObject(0, cap_);
  ASSERT_TRUE(oid.ok());
  TxnParticipants participants;
  participants.storage_servers = {0};
  auto txn = client_->BeginTxn(0, cap_, participants);
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(client_->RemoveObject(0, cap_, *oid, (*txn)->id()).ok());
  EXPECT_TRUE(client_->GetAttr(0, cap_, *oid).ok());  // still there
  ASSERT_TRUE((*txn)->Commit().ok());
  EXPECT_EQ(client_->GetAttr(0, cap_, *oid).status().code(),
            ErrorCode::kNotFound);
}

TEST_F(CoreTest, BlockBackendWorksEndToEnd) {
  RuntimeOptions options;
  options.backend = RuntimeOptions::Backend::kBlock;
  options.device_blocks = 4096;
  options.block_size = 4096;
  StartRuntime(options);
  SetupAliceWorkspace();
  auto oid = client_->CreateObject(0, cap_);
  ASSERT_TRUE(oid.ok());
  Buffer data = PatternBuffer(100000, 2);
  ASSERT_TRUE(client_->WriteObject(0, cap_, *oid, 0, ByteSpan(data)).ok());
  auto back = testio::ReadObjectBytes(*client_, 0, cap_, *oid, 0, data.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
}

TEST_F(CoreTest, ListObjectsSeesOnlyOwnContainer) {
  StartRuntime();
  SetupAliceWorkspace();
  auto a = client_->CreateObject(0, cap_);
  auto b = client_->CreateObject(0, cap_);
  ASSERT_TRUE(a.ok() && b.ok());
  auto other_cid = client_->CreateContainer(cred_);
  auto other_cap = client_->GetCap(cred_, *other_cid, security::kOpAll);
  ASSERT_TRUE(other_cap.ok());
  ASSERT_TRUE(client_->CreateObject(0, *other_cap).ok());
  auto list = client_->ListObjects(0, cap_);
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->size(), 2u);
}

TEST_F(CoreTest, ConcurrentClientsOnDistinctServers) {
  RuntimeOptions options;
  options.storage_servers = 4;
  StartRuntime(options);
  SetupAliceWorkspace();
  constexpr int kClients = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      auto c = runtime_->MakeClient();
      const auto server = static_cast<std::uint32_t>(i % 4);
      auto oid = c->CreateObject(server, cap_);
      if (!oid.ok()) {
        failures.fetch_add(1);
        return;
      }
      Buffer data = PatternBuffer(50000, static_cast<std::uint64_t>(i));
      if (!c->WriteObject(server, cap_, *oid, 0, ByteSpan(data)).ok()) {
        failures.fetch_add(1);
        return;
      }
      auto back = testio::ReadObjectBytes(*c, server, cap_, *oid, 0,
                                          data.size());
      if (!back.ok() || *back != data) failures.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// TSan target: many clients pull overlapping sub-ranges of one object as
// store-owned slices concurrently.  Every reply aliases the same backing
// store buffer while refcounts churn across threads; each reader also keeps
// its previous slice alive one iteration so lifetimes overlap and the last
// drop happens on an arbitrary thread.
TEST_F(CoreTest, ConcurrentSliceReadersShareOneStoreBuffer) {
  StartRuntime();
  SetupAliceWorkspace();
  auto oid = client_->CreateObject(0, cap_);
  ASSERT_TRUE(oid.ok());
  const Buffer data = PatternBuffer(256 << 10, 37);
  ASSERT_TRUE(client_->WriteObject(0, cap_, *oid, 0, ByteSpan(data)).ok());

  constexpr int kReaders = 8;
  constexpr int kIterations = 24;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      auto c = runtime_->MakeClient();
      util::SharedSlice held;  // overlaps this iteration's slice lifetime
      for (int i = 0; i < kIterations; ++i) {
        // Overlapping, shifting windows: every pair of readers shares bytes.
        const std::uint64_t offset =
            static_cast<std::uint64_t>((t * 13 + i * 7) % 128) << 10;
        const std::uint64_t length = 64 << 10;
        auto slice = testio::ReadObjectSlice(*c, 0, cap_, *oid, offset, length);
        if (!slice.ok() || slice->size() != length ||
            !std::equal(slice->span().begin(), slice->span().end(),
                        data.begin() + static_cast<std::ptrdiff_t>(offset))) {
          failures.fetch_add(1);
          return;
        }
        held = std::move(*slice);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(CoreTest, BatchPipelinesWritesAndReadsAcrossServers) {
  RuntimeOptions options;
  options.storage_servers = 4;
  StartRuntime(options);
  SetupAliceWorkspace();

  constexpr std::uint32_t kObjects = 16;
  constexpr std::size_t kBytes = 20000;
  std::vector<std::pair<std::uint32_t, storage::ObjectId>> objects;
  std::vector<Buffer> payloads;
  for (std::uint32_t i = 0; i < kObjects; ++i) {
    const auto server = i % 4;
    auto oid = client_->CreateObject(server, cap_);
    ASSERT_TRUE(oid.ok()) << oid.status().ToString();
    objects.emplace_back(server, *oid);
    payloads.push_back(PatternBuffer(kBytes, i));
  }

  {
    Batch batch(client_.get(), /*window=*/4);
    for (std::uint32_t i = 0; i < kObjects; ++i) {
      ASSERT_TRUE(
          batch
              .Write(objects[i].first, cap_, objects[i].second,
                     {{0, util::SharedSlice::External(payloads[i])}})
              .ok());
      EXPECT_LE(batch.inflight(), batch.window());
    }
    ASSERT_TRUE(batch.Drain().ok()) << batch.first_error().ToString();
    EXPECT_EQ(batch.inflight(), 0u);
  }

  // Read everything back through a window, asking for more than was
  // written so the short-read counts prove each retire decoded its own
  // reply (not a neighbour's).
  std::vector<Buffer> back(kObjects);
  std::vector<IoResult> reads(kObjects);
  {
    Batch batch(client_.get(), /*window=*/4);
    for (std::uint32_t i = 0; i < kObjects; ++i) {
      back[i] = Buffer(kBytes + 100);
      ASSERT_TRUE(batch
                      .Read(objects[i].first, cap_, objects[i].second,
                            {{0, back[i].size(), MutableByteSpan(back[i])}},
                            &reads[i])
                      .ok());
    }
    ASSERT_TRUE(batch.Drain().ok()) << batch.first_error().ToString();
  }
  for (std::uint32_t i = 0; i < kObjects; ++i) {
    EXPECT_EQ(reads[i].bytes, kBytes) << "object " << i;
    back[i].resize(kBytes);
    EXPECT_EQ(back[i], payloads[i]) << "object " << i;
  }
}

TEST_F(CoreTest, BatchStickyErrorStopsIssuingButStillDrains) {
  StartRuntime();
  SetupAliceWorkspace();
  auto oid = client_->CreateObject(0, cap_);
  ASSERT_TRUE(oid.ok());
  Buffer data = PatternBuffer(1000, 3);

  Batch batch(client_.get(), /*window=*/2);
  ASSERT_TRUE(
      batch.Write(0, cap_, *oid, {{0, util::SharedSlice::External(data)}})
          .ok());
  // Writing a nonexistent object surfaces the error either at issue (when
  // the window forces a retire) or at Drain(); it must stick either way.
  storage::ObjectId bogus{0xdeadbeef};
  for (int i = 0; i < 4; ++i) {
    if (!batch.Write(0, cap_, bogus, {{0, util::SharedSlice::External(data)}})
             .ok()) {
      break;
    }
  }
  EXPECT_FALSE(batch.Drain().ok());
  EXPECT_FALSE(batch.first_error().ok());
  EXPECT_EQ(batch.inflight(), 0u);
  // The first (valid) write still landed.
  auto back = testio::ReadObjectBytes(*client_, 0, cap_, *oid, 0, data.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
}

TEST_F(CoreTest, AsyncHandlesRetireInAnyOrder) {
  RuntimeOptions options;
  options.storage_servers = 4;
  StartRuntime(options);
  SetupAliceWorkspace();

  // Issue creates on all four servers, then await them newest-first: the
  // completion queue hands results to whichever handle asks, regardless of
  // issue order.
  std::vector<PendingCreate> creates;
  for (std::uint32_t s = 0; s < 4; ++s) {
    auto pending = client_->CreateObjectAsync(s, cap_);
    ASSERT_TRUE(pending.ok()) << pending.status().ToString();
    creates.push_back(std::move(*pending));
  }
  std::vector<storage::ObjectId> oids(4);
  for (std::uint32_t s = 4; s-- > 0;) {
    auto oid = creates[s].Await();
    ASSERT_TRUE(oid.ok()) << oid.status().ToString();
    oids[s] = *oid;
  }

  std::vector<Buffer> payloads;
  std::vector<PendingIo> writes;
  for (std::uint32_t s = 0; s < 4; ++s) {
    payloads.push_back(PatternBuffer(30000, 40 + s));
    auto io = client_->WriteObjectAsync(
        s, cap_, oids[s], {{0, util::SharedSlice::External(payloads[s])}});
    ASSERT_TRUE(io.ok()) << io.status().ToString();
    writes.push_back(std::move(*io));
  }
  for (std::uint32_t s = 4; s-- > 0;) {
    auto n = writes[s].Await();
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    EXPECT_EQ(n->bytes, payloads[s].size());
  }

  std::vector<Buffer> back(4);
  std::vector<PendingIo> reads;
  for (std::uint32_t s = 0; s < 4; ++s) {
    back[s] = Buffer(payloads[s].size());
    auto io = client_->ReadObjectAsync(
        s, cap_, oids[s], {{0, back[s].size(), MutableByteSpan(back[s])}});
    ASSERT_TRUE(io.ok()) << io.status().ToString();
    reads.push_back(std::move(*io));
  }
  for (std::uint32_t s = 4; s-- > 0;) {
    auto n = reads[s].Await();
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    EXPECT_EQ(n->bytes, payloads[s].size());
    EXPECT_EQ(back[s], payloads[s]);
  }
}

// ---------------------------------------------------------------------------
// Span reads: slice reads plus one copy into the caller's span
// ---------------------------------------------------------------------------

class SpanReadTest : public CoreTest {
 protected:
  void SetUp() override {
    StartRuntime();
    SetupAliceWorkspace();
    auto oid = client_->CreateObject(0, cap_);
    ASSERT_TRUE(oid.ok());
    oid_ = *oid;
    data_ = PatternBuffer(10000, 21);
    ASSERT_TRUE(client_->WriteObject(0, cap_, oid_, 0, ByteSpan(data_)).ok());
  }

  storage::ObjectId oid_;
  Buffer data_;
};

TEST_F(SpanReadTest, ShortReadAtEofFillsOnlyTheBytesHeld) {
  Buffer out(4000, 0xEE);
  auto n = client_->ReadObject(0, cap_, oid_, 8000, MutableByteSpan(out));
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  ASSERT_EQ(*n, 2000u);
  EXPECT_TRUE(std::equal(out.begin(), out.begin() + 2000, data_.begin() + 8000));
  // Bytes past the short read are the caller's, untouched.
  EXPECT_TRUE(std::all_of(out.begin() + 2000, out.end(),
                          [](std::uint8_t b) { return b == 0xEE; }));
}

TEST_F(SpanReadTest, ReadPastEofReturnsZero) {
  Buffer out(100, 0xEE);
  auto n = client_->ReadObject(0, cap_, oid_, 20000, MutableByteSpan(out));
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, 0u);
  EXPECT_TRUE(std::all_of(out.begin(), out.end(),
                          [](std::uint8_t b) { return b == 0xEE; }));
}

TEST_F(SpanReadTest, BufferLargerThanTheObjectGetsTheWholeObject) {
  Buffer out(1 << 20, 0);
  auto n = client_->ReadObject(0, cap_, oid_, 0, MutableByteSpan(out));
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  ASSERT_EQ(*n, data_.size());
  EXPECT_TRUE(std::equal(data_.begin(), data_.end(), out.begin()));
}

TEST_F(SpanReadTest, AllocWithOversizedLengthReturnsExactlyTheObject) {
  auto back = testio::ReadObjectBytes(*client_, 0, cap_, oid_, 0, 64 << 20);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, data_);
  auto tail = testio::ReadObjectBytes(*client_, 0, cap_, oid_, 9990, 64 << 20);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(*tail, Buffer(data_.begin() + 9990, data_.end()));
}

TEST_F(SpanReadTest, BatchInterleavesSpanAndSliceReads) {
  constexpr std::size_t kPiece = 1000;
  std::vector<Buffer> spans(5, Buffer(kPiece, 0));
  std::vector<IoResult> span_reads(5);
  std::vector<IoResult> slice_reads(5);
  {
    Batch batch(client_.get(), 3);
    for (std::size_t i = 0; i < 5; ++i) {
      const std::uint64_t at = 2 * i * kPiece;
      ASSERT_TRUE(batch
                      .Read(0, cap_, oid_,
                            {{at, kPiece, MutableByteSpan(spans[i])}},
                            &span_reads[i])
                      .ok());
      ASSERT_TRUE(
          batch.Read(0, cap_, oid_, {{at + kPiece, kPiece}}, &slice_reads[i])
              .ok());
    }
    ASSERT_TRUE(batch.Drain().ok());
  }
  for (std::size_t i = 0; i < 5; ++i) {
    const auto at = static_cast<std::ptrdiff_t>(2 * i * kPiece);
    EXPECT_EQ(span_reads[i].bytes, kPiece);
    const util::SharedSlice& slice = slice_reads[i].slices.front();
    EXPECT_TRUE(std::equal(spans[i].begin(), spans[i].end(),
                           data_.begin() + at));
    ASSERT_EQ(slice.size(), kPiece);
    EXPECT_TRUE(std::equal(slice.span().begin(), slice.span().end(),
                           data_.begin() + at + static_cast<std::ptrdiff_t>(kPiece)));
  }
}

TEST_F(CoreTest, RevokedCredentialStopsAuthzOperations) {
  StartRuntime();
  SetupAliceWorkspace();
  ASSERT_TRUE(client_->RevokeCred(cred_.cred_id).ok());
  EXPECT_EQ(client_->CreateContainer(cred_).status().code(),
            ErrorCode::kUnauthenticated);
  EXPECT_EQ(client_->GetCap(cred_, cid_, security::kOpRead).status().code(),
            ErrorCode::kUnauthenticated);
}

}  // namespace
}  // namespace lwfs::core

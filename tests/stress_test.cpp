// Whole-stack concurrency stress: many client threads exercising every
// service at once — object I/O, file-system ops, checkpoints, policy
// changes with revocation, transactions — while invariants are checked at
// the end.  No operation may crash, wedge, or corrupt unrelated state.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <thread>

#include "checkpoint/checkpoint.h"
#include "core/runtime.h"
#include "lwfsfs/lwfsfs.h"
#include "util/clock.h"
#include "util/rng.h"
#include "test_io.h"

namespace lwfs {
namespace {

TEST(StressTest, MixedWorkloadAcrossAllServices) {
  core::RuntimeOptions options;
  options.storage_servers = 4;
  options.storage.worker_threads = 2;
  auto runtime = core::ServiceRuntime::Start(options).value();
  runtime->AddUser("owner", "pw", 1);
  runtime->AddUser("guest", "pw", 2);

  auto owner = runtime->MakeClient();
  auto owner_cred = owner->Login("owner", "pw").value();
  auto cid = owner->CreateContainer(owner_cred).value();
  auto owner_cap = owner->GetCap(owner_cred, cid, security::kOpAll).value();
  ASSERT_TRUE(owner->Mkdir("/stress", true).ok());
  ASSERT_TRUE(owner->SetGrant(owner_cred, cid, 2,
                              security::kOpRead | security::kOpWrite |
                                  security::kOpCreate)
                  .ok());

  std::atomic<int> hard_failures{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;

  // Writer threads: object create/write/read round trips.
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      auto client = runtime->MakeClient();
      Rng rng(static_cast<std::uint64_t>(t) + 1);
      while (!stop.load()) {
        const auto server = static_cast<std::uint32_t>(rng.NextBelow(4));
        auto oid = client->CreateObject(server, owner_cap);
        if (!oid.ok()) {
          hard_failures.fetch_add(1);
          continue;
        }
        Buffer data = PatternBuffer(1 + rng.NextBelow(20000), rng.NextU64());
        if (!client->WriteObject(server, owner_cap, *oid, 0, ByteSpan(data))
                 .ok()) {
          hard_failures.fetch_add(1);
          continue;
        }
        auto back =
            testio::ReadObjectBytes(*client, server, owner_cap, *oid, 0,
                                    data.size());
        if (!back.ok() || *back != data) hard_failures.fetch_add(1);
        (void)client->RemoveObject(server, owner_cap, *oid);
      }
    });
  }

  // Guest thread: reads/writes under a grant that keeps flipping — denials
  // are expected (the policy-change race), crashes/corruption are not.
  threads.emplace_back([&] {
    auto client = runtime->MakeClient();
    auto cred = client->Login("guest", "pw").value();
    Rng rng(99);
    while (!stop.load()) {
      auto cap = client->GetCap(cred, cid,
                                security::kOpWrite | security::kOpCreate);
      if (!cap.ok()) continue;  // grant currently revoked: fine
      auto oid = client->CreateObject(0, *cap);
      if (oid.ok()) {
        Buffer data = PatternBuffer(100, rng.NextU64());
        (void)client->WriteObject(0, *cap, *oid, 0, ByteSpan(data));
      }
    }
  });

  // Policy churn thread: chmod the guest in and out (drives revocation
  // and cache invalidation continuously).
  threads.emplace_back([&] {
    auto client = runtime->MakeClient();
    auto cred = client->Login("owner", "pw").value();
    bool granted = true;
    while (!stop.load()) {
      granted = !granted;
      Status s = client->SetGrant(
          cred, cid, 2,
          granted ? (security::kOpRead | security::kOpWrite |
                     security::kOpCreate)
                  : security::kOpRead);
      if (!s.ok()) hard_failures.fetch_add(1);
      util::RealClockInstance()->SleepFor(std::chrono::milliseconds(2));
    }
  });

  // File-system thread: create/write/read/remove through LwfsFs.
  threads.emplace_back([&] {
    auto client = runtime->MakeClient();
    auto fs = fs::LwfsFs::Mount(client.get(), owner_cap, "/stress",
                                fs::FsOptions{4096, 0,
                                              fs::FsConsistency::kRelaxed})
                  .value();
    Rng rng(7);
    int seq = 0;
    while (!stop.load()) {
      const std::string path = "/f" + std::to_string(seq++ % 8);
      if (fs->Exists(path)) {
        (void)fs->Remove(path);
        continue;
      }
      auto file = fs->Create(path);
      if (!file.ok()) {
        hard_failures.fetch_add(1);
        continue;
      }
      Buffer data = PatternBuffer(1 + rng.NextBelow(30000), rng.NextU64());
      if (!testio::WriteAt(*fs, *file, 0, ByteSpan(data)).ok()) {
        hard_failures.fetch_add(1);
        continue;
      }
      Buffer out(data.size(), 0);
      auto n = testio::ReadAt(*fs, *file, 0, MutableByteSpan(out));
      if (!n.ok() || *n != data.size() || out != data) {
        hard_failures.fetch_add(1);
      }
    }
  });

  // Transaction thread: commit/abort alternation.
  threads.emplace_back([&] {
    auto client = runtime->MakeClient();
    bool commit = false;
    while (!stop.load()) {
      commit = !commit;
      core::TxnParticipants participants;
      participants.storage_servers = {1, 2};
      auto txn = client->BeginTxn(3, owner_cap, participants);
      if (!txn.ok()) {
        hard_failures.fetch_add(1);
        continue;
      }
      auto oid = client->CreateObject(1, owner_cap, (*txn)->id());
      if (!oid.ok()) {
        hard_failures.fetch_add(1);
        (void)(*txn)->Abort();
        continue;
      }
      Status s = commit ? (*txn)->Commit() : (*txn)->Abort();
      if (!s.ok()) hard_failures.fetch_add(1);
    }
  });

  // Periodic checkpoints over the same container while everything churns.
  int checkpoints_ok = 0;
  for (int round = 0; round < 3; ++round) {
    std::vector<Buffer> states;
    for (int r = 0; r < 4; ++r) {
      states.push_back(PatternBuffer(5000, static_cast<std::uint64_t>(round * 4 + r)));
    }
    checkpoint::LwfsCheckpoint::Config config{
        "/stress/ckpt" + std::to_string(round), cid, owner_cap, 3};
    auto stats = checkpoint::LwfsCheckpoint::Run(*runtime, config, states);
    if (stats.ok()) {
      auto restored = checkpoint::LwfsCheckpoint::Restore(*runtime, owner_cap,
                                                          config.path);
      if (restored.ok() && (*restored)[2] == states[2]) ++checkpoints_ok;
    }
    util::RealClockInstance()->SleepFor(std::chrono::milliseconds(30));
  }

  stop.store(true);
  for (auto& t : threads) t.join();

  EXPECT_EQ(hard_failures.load(), 0);
  EXPECT_EQ(checkpoints_ok, 3);
  // The services are all still healthy.
  EXPECT_TRUE(owner->CreateObject(0, owner_cap).ok());
  EXPECT_TRUE(owner->LookupName("/stress/ckpt2").ok());
}

// A windowed write burst must cost exactly what the serial protocol costs:
// per write one request put, one server-directed bulk pull, one reply put —
// overlap buys wall-clock, never extra messages, and the engine's internal
// wakeups stay off the fabric.  Pinning the counts here keeps the async
// path honest under load.
TEST(StressTest, WindowedWriteBurstWireCountsAreExact) {
  core::RuntimeOptions options;
  options.storage_servers = 4;
  options.storage.worker_threads = 2;
  auto runtime = core::ServiceRuntime::Start(options).value();
  runtime->AddUser("owner", "pw", 1);

  auto client = runtime->MakeClient();
  auto cred = client->Login("owner", "pw").value();
  auto cid = client->CreateContainer(cred).value();
  auto cap = client->GetCap(cred, cid, security::kOpAll).value();

  // Pre-create the targets; this also warms every server's capability
  // cache so the measured burst carries no verify traffic (the Figure 8
  // setup: capabilities acquired once, outside the timed loop).
  constexpr std::uint32_t kWrites = 24;
  constexpr std::size_t kBytes = 16000;  // < one bulk chunk -> 1 get each
  std::vector<std::pair<std::uint32_t, storage::ObjectId>> objects;
  for (std::uint32_t i = 0; i < kWrites; ++i) {
    const auto server = i % 4;
    auto oid = client->CreateObject(server, cap);
    ASSERT_TRUE(oid.ok()) << oid.status().ToString();
    objects.emplace_back(server, *oid);
  }

  const Buffer payload = PatternBuffer(kBytes, 77);
  runtime->fabric().metrics()->Reset();
  {
    core::Batch batch(client.get(), /*window=*/8);
    for (const auto& [server, oid] : objects) {
      ASSERT_TRUE(batch
                      .Write(server, cap, oid,
                             {{0, util::SharedSlice::External(payload)}})
                      .ok());
    }
    ASSERT_TRUE(batch.Drain().ok()) << batch.first_error().ToString();
  }
  const metrics::Snapshot stats = runtime->fabric().metrics()->Snapshot();
  EXPECT_EQ(stats.Get("puts"), 2u * kWrites);  // request + reply per write
  EXPECT_EQ(stats.Get("gets"), 1u * kWrites);  // one server-directed pull each
  EXPECT_EQ(stats.Get("get_bytes"), kWrites * kBytes);
  EXPECT_LT(stats.Get("put_bytes"), kWrites * 1000u);  // requests stay small

  // And the data really landed.
  for (std::uint32_t i = 0; i < kWrites; ++i) {
    auto back = testio::ReadObjectBytes(*client, objects[i].first, cap,
                                        objects[i].second, 0, kBytes);
    ASSERT_TRUE(back.ok());
    ASSERT_EQ(*back, payload);
  }
}

// TSan target for the multi-worker data plane + I/O scheduler: many client
// threads push mixed reads and writes at the same and different objects
// through the async window.  Every write fills its whole extent with one
// byte value, so a torn extent (bytes from two writers interleaved) is
// detectable by a single scan: each extent must read back
// all-from-one-writer, whichever writer won.
TEST(StressTest, ConcurrentExtentWritesAreNeverTorn) {
  constexpr std::uint32_t kServers = 2;
  constexpr std::uint32_t kThreads = 6;
  constexpr std::uint32_t kOpsPerThread = 48;
  constexpr std::size_t kExtent = 512;
  constexpr std::uint64_t kSlots = 16;  // shared extents contended for

  core::RuntimeOptions options;
  options.storage_servers = kServers;
  options.storage.worker_threads = 4;
  // A small per-op cost keeps extents queued at the scheduler so batches
  // actually merge while the workers race.
  options.storage.modeled_op_latency_us = 10;
  auto runtime = core::ServiceRuntime::Start(options).value();
  runtime->AddUser("owner", "pw", 1);

  auto owner = runtime->MakeClient();
  auto cred = owner->Login("owner", "pw").value();
  auto cid = owner->CreateContainer(cred).value();
  auto cap = owner->GetCap(cred, cid, security::kOpAll).value();

  // One contended object per server, plus one private object per thread.
  std::vector<storage::ObjectId> shared(kServers);
  for (std::uint32_t s = 0; s < kServers; ++s) {
    shared[s] = owner->CreateObject(s, cap).value();
  }
  std::vector<storage::ObjectId> private_oids(kThreads);
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    private_oids[t] = owner->CreateObject(t % kServers, cap).value();
  }

  std::atomic<int> hard_failures{0};
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto client = runtime->MakeClient();
      Rng rng(1000 + t);
      const std::uint8_t fill = static_cast<std::uint8_t>(1 + t);
      const Buffer payload(kExtent, fill);
      // One read buffer per window slot: concurrent in-flight reads into a
      // single shared buffer would race, and the client-side bulk checksum
      // now detects exactly that as kDataLoss.  Slot i%window is free by
      // the time op i issues (the batch retires the oldest op first).
      constexpr std::size_t kWindow = 8;
      std::array<Buffer, kWindow> read_back;
      read_back.fill(Buffer(kExtent, 0));
      core::Batch batch(client.get(), kWindow);
      for (std::uint32_t i = 0; i < kOpsPerThread; ++i) {
        const bool use_shared = rng.NextBelow(2) == 0;
        const std::uint32_t server =
            use_shared ? static_cast<std::uint32_t>(rng.NextBelow(kServers))
                       : t % kServers;
        const storage::ObjectId oid =
            use_shared ? shared[server] : private_oids[t];
        const std::uint64_t offset = rng.NextBelow(kSlots) * kExtent;
        Buffer& slot = read_back[i % kWindow];
        Status s =
            rng.NextBelow(3) == 0
                ? batch.Read(server, cap, oid,
                             {{offset, slot.size(), MutableByteSpan(slot)}})
                : batch.Write(server, cap, oid,
                              {{offset, util::SharedSlice::External(payload)}});
        if (!s.ok()) {
          hard_failures.fetch_add(1);
          break;
        }
      }
      if (!batch.Drain().ok()) hard_failures.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(hard_failures.load(), 0);

  // Shared extents: all-from-one-writer (any writer, or untouched zeros).
  for (std::uint32_t s = 0; s < kServers; ++s) {
    for (std::uint64_t slot = 0; slot < kSlots; ++slot) {
      auto back =
          testio::ReadObjectBytes(*owner, s, cap, shared[s], slot * kExtent,
                                  kExtent);
      ASSERT_TRUE(back.ok()) << back.status().ToString();
      if (back->empty()) continue;  // slot never written (short object)
      const std::uint8_t first = (*back)[0];
      for (std::uint8_t byte : *back) {
        ASSERT_EQ(byte, first) << "torn extent on server " << s << " slot "
                               << slot;
      }
    }
  }
  // Private extents: exactly the owner's fill everywhere they exist.
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    auto attr = owner->GetAttr(t % kServers, cap, private_oids[t]).value();
    auto back = testio::ReadObjectBytes(*owner, t % kServers, cap,
                                        private_oids[t], 0,
                                       attr.size);
    ASSERT_TRUE(back.ok());
    const std::uint8_t fill = static_cast<std::uint8_t>(1 + t);
    for (std::size_t i = 0; i < back->size(); ++i) {
      const std::uint8_t byte = (*back)[i];
      // Holes between written slots read as zero.
      ASSERT_TRUE(byte == fill || byte == 0)
          << "foreign byte in private object of thread " << t;
    }
  }
}

}  // namespace
}  // namespace lwfs

// Server-side I/O scheduler: extent-merge planning (adjacent, overlapping,
// out-of-order, cross-object), per-run medium accounting pinned through the
// scheduler counters, which thread services a synchronous run (the caller
// when idle and unmodeled, else the scheduler thread), staging-pool flow
// control, and the scheduled data path end to end on a live runtime.
#include <gtest/gtest.h>

#include <future>
#include <thread>

#include "core/io_scheduler.h"
#include "core/runtime.h"
#include "util/clock.h"
#include "test_io.h"

namespace lwfs {
namespace {

using core::IoScheduler;
using core::MergedRun;
using core::PendingExtent;
using core::PlanRuns;
using core::StagingPool;

PendingExtent Write(std::uint64_t oid, std::uint64_t offset,
                    std::uint64_t length) {
  return PendingExtent{storage::ObjectId{oid}, true, offset, length};
}

PendingExtent Read(std::uint64_t oid, std::uint64_t offset,
                   std::uint64_t length) {
  return PendingExtent{storage::ObjectId{oid}, false, offset, length};
}

TEST(PlanRunsTest, AdjacentExtentsMergeIntoOneRun) {
  const std::vector<PendingExtent> batch = {Write(1, 0, 100),
                                            Write(1, 100, 50)};
  auto runs = PlanRuns(batch);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].offset, 0u);
  EXPECT_EQ(runs[0].end, 150u);
  EXPECT_EQ(runs[0].bytes(), 150u);
  EXPECT_EQ(runs[0].members, (std::vector<std::size_t>{0, 1}));
}

TEST(PlanRunsTest, OverlappingExtentsMergeAndRunCoversTheUnion) {
  const std::vector<PendingExtent> batch = {Write(1, 0, 100),
                                            Write(1, 50, 100)};
  auto runs = PlanRuns(batch);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].offset, 0u);
  EXPECT_EQ(runs[0].end, 150u);  // union, not the 200-byte sum
}

TEST(PlanRunsTest, OutOfOrderExtentsAreElevatorSortedThenMerged) {
  // Arrival order 200, 0, 100 — the elevator pass services 0, 100, 200 and
  // the three touching extents collapse into one contiguous run.
  const std::vector<PendingExtent> batch = {Write(7, 200, 100),
                                            Write(7, 0, 100),
                                            Write(7, 100, 100)};
  auto runs = PlanRuns(batch);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].offset, 0u);
  EXPECT_EQ(runs[0].end, 300u);
  // Members come back in offset order (input indices 1, 2, 0).
  EXPECT_EQ(runs[0].members, (std::vector<std::size_t>{1, 2, 0}));
}

TEST(PlanRunsTest, GapsSplitRuns) {
  const std::vector<PendingExtent> batch = {Write(1, 0, 10), Write(1, 20, 10)};
  auto runs = PlanRuns(batch);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].end, 10u);
  EXPECT_EQ(runs[1].offset, 20u);
}

TEST(PlanRunsTest, CrossObjectExtentsNeverMerge) {
  // Byte-adjacent offsets on different objects are different media regions.
  const std::vector<PendingExtent> batch = {Write(1, 0, 100), Write(2, 100, 100),
                                            Write(1, 100, 100)};
  auto runs = PlanRuns(batch);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].oid.value, 1u);
  EXPECT_EQ(runs[0].bytes(), 200u);
  EXPECT_EQ(runs[1].oid.value, 2u);
}

TEST(PlanRunsTest, ReadsAndWritesOnTheSameBytesStaySeparateRuns) {
  const std::vector<PendingExtent> batch = {Write(1, 0, 100), Read(1, 100, 100)};
  auto runs = PlanRuns(batch);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_NE(runs[0].is_write, runs[1].is_write);
}

TEST(PlanRunsTest, CoalesceOffKeepsArrivalOrderOneRunPerExtent) {
  const std::vector<PendingExtent> batch = {
      Write(1, 8192, 4096), Write(1, 0, 4096), Write(1, 4096, 4096)};
  auto runs = PlanRuns(batch, /*coalesce=*/false);
  ASSERT_EQ(runs.size(), 3u);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].offset, batch[i].offset);
    EXPECT_EQ(runs[i].bytes(), 4096u);
    EXPECT_EQ(runs[i].members, std::vector<std::size_t>{i});
  }
}

// The remote_verifies_-style pin for merging: stall the scheduler inside a
// first batch, queue strided extents behind it, and check the counters —
// the medium is charged exactly `runs` times, never once per extent, and
// the merged members execute in offset order.
TEST(IoSchedulerTest, ChargesMediumOncePerMergedRun) {
  IoScheduler sched(core::IoSchedulerOptions{});
  sched.Start();

  std::promise<void> started;
  std::promise<void> release;
  auto released = release.get_future().share();
  auto first = sched.Submit(storage::ObjectId{1}, 0, 64, [&] {
    started.set_value();
    released.wait();
    return OkStatus();
  });
  started.get_future().wait();  // scheduler is now inside batch 1

  std::mutex order_mutex;
  std::vector<std::uint64_t> service_order;
  auto tracked = [&](std::uint64_t offset) {
    return [&, offset] {
      std::lock_guard<std::mutex> lock(order_mutex);
      service_order.push_back(offset);
      return OkStatus();
    };
  };
  // Three touching extents on object 2, submitted out of order, plus one
  // disjoint extent on object 3 — batch 2 must plan two runs.
  auto a = sched.Submit(storage::ObjectId{2}, 8192, 4096, tracked(8192));
  auto b = sched.Submit(storage::ObjectId{2}, 0, 4096, tracked(0));
  auto c = sched.Submit(storage::ObjectId{2}, 4096, 4096, tracked(4096));
  auto d = sched.Submit(storage::ObjectId{3}, 0, 4096, tracked(0));
  release.set_value();

  EXPECT_TRUE(first->Await().ok());
  EXPECT_TRUE(a->Await().ok());
  EXPECT_TRUE(b->Await().ok());
  EXPECT_TRUE(c->Await().ok());
  EXPECT_TRUE(d->Await().ok());

  const metrics::Snapshot stats = sched.metrics()->Snapshot();
  EXPECT_EQ(stats.Get("requests"), 5u);
  // Batch 1, the merged object-2 run, object 3.
  EXPECT_EQ(stats.Get("runs"), 3u);
  // Two extents absorbed into the object-2 run.
  EXPECT_EQ(stats.Get("merges"), 2u);
  EXPECT_EQ(stats.Get("coalesced_bytes"), 12288u);
  EXPECT_GE(stats.Total("queue_depth").high_water, 4u);
  {
    std::lock_guard<std::mutex> lock(order_mutex);
    ASSERT_EQ(service_order.size(), 4u);
    // Object 2's merged run services 0, 4096, 8192 ascending; object 3 last.
    EXPECT_EQ(service_order[0], 0u);
    EXPECT_EQ(service_order[1], 4096u);
    EXPECT_EQ(service_order[2], 8192u);
  }
  sched.Stop();
}

TEST(IoSchedulerTest, ResetStatsZeroesCountersIncludingHighWaterMark) {
  IoScheduler sched(core::IoSchedulerOptions{});
  sched.Start();
  auto ticket = sched.Submit(storage::ObjectId{1}, 0, 10,
                             [] { return OkStatus(); });
  EXPECT_TRUE(ticket->Await().ok());
  EXPECT_GT(sched.metrics()->Snapshot().Get("requests"), 0u);
  EXPECT_GE(sched.metrics()->Snapshot().Total("queue_depth").high_water, 1u);
  sched.metrics()->Reset();
  const metrics::Snapshot stats = sched.metrics()->Snapshot();
  EXPECT_EQ(stats.Get("requests"), 0u);
  EXPECT_EQ(stats.Get("runs"), 0u);
  EXPECT_EQ(stats.Total("queue_depth").high_water, 0u);
  sched.Stop();
}

TEST(IoSchedulerTest, StopDrainsQueuedExtentsAndRejectsNewOnes) {
  auto sched = std::make_unique<IoScheduler>(core::IoSchedulerOptions{});
  sched->Start();
  std::atomic<int> serviced{0};
  std::vector<std::shared_ptr<core::IoTicket>> tickets;
  for (int i = 0; i < 16; ++i) {
    tickets.push_back(sched->Submit(storage::ObjectId{1},
                                    static_cast<std::uint64_t>(i) * 10, 10,
                                    [&] {
                                      serviced.fetch_add(1);
                                      return OkStatus();
                                    }));
  }
  sched->Stop();
  for (auto& t : tickets) EXPECT_TRUE(t->Await().ok());
  EXPECT_EQ(serviced.load(), 16);
  auto late = sched->Submit(storage::ObjectId{1}, 0, 10,
                            [] { return OkStatus(); });
  EXPECT_EQ(late->Await().code(), ErrorCode::kUnavailable);
}

// An idle scheduler with no modeled medium has nothing to plan and nothing
// to charge: a synchronous write runs on the caller, as one counted run.
TEST(IoSchedulerTest, IdleUnmodeledWriteRunsOnTheCallingThread) {
  IoScheduler sched(core::IoSchedulerOptions{});
  sched.Start();
  std::thread::id serviced_on;
  EXPECT_TRUE(sched
                  .Write(storage::ObjectId{1}, 0, 64,
                         [&] {
                           serviced_on = std::this_thread::get_id();
                           return OkStatus();
                         })
                  .ok());
  EXPECT_EQ(serviced_on, std::this_thread::get_id());
  const metrics::Snapshot stats = sched.metrics()->Snapshot();
  EXPECT_EQ(stats.Get("requests"), 1u);
  EXPECT_EQ(stats.Get("runs"), 1u);
  EXPECT_EQ(stats.Get("inline"), 1u);
  EXPECT_EQ(stats.Total("queue_depth").high_water, 0u);
  sched.Stop();
}

TEST(IoSchedulerTest, IdleUnmodeledReadRunsOnTheCallingThread) {
  IoScheduler sched(core::IoSchedulerOptions{});
  sched.Start();
  const Buffer stored = PatternBuffer(256, 3);
  std::thread::id serviced_on;
  auto slice = sched.Read(
      storage::ObjectId{1}, 64, 128,
      [&](std::uint64_t off, std::uint64_t len) -> Result<util::SharedSlice> {
        serviced_on = std::this_thread::get_id();
        return util::SharedSlice::External(
            ByteSpan(stored.data() + off, static_cast<std::size_t>(len)));
      });
  ASSERT_TRUE(slice.ok());
  EXPECT_EQ(serviced_on, std::this_thread::get_id());
  EXPECT_EQ(Buffer(slice->span().begin(), slice->span().end()),
            Buffer(stored.begin() + 64, stored.begin() + 192));
  const metrics::Snapshot stats = sched.metrics()->Snapshot();
  EXPECT_EQ(stats.Get("runs"), 1u);
  EXPECT_EQ(stats.Get("inline"), 1u);
  sched.Stop();
}

// A run that charges modeled medium time always queues, so the medium's
// busy horizon stays with the one scheduler thread.
TEST(IoSchedulerTest, ModeledMediumRunsOnTheSchedulerThread) {
  core::IoSchedulerOptions options;
  options.modeled_op_latency_us = 1;
  IoScheduler sched(options);
  sched.Start();
  std::thread::id wrote_on;
  std::thread::id read_on;
  EXPECT_TRUE(sched
                  .Write(storage::ObjectId{1}, 0, 64,
                         [&] {
                           wrote_on = std::this_thread::get_id();
                           return OkStatus();
                         })
                  .ok());
  EXPECT_TRUE(sched
                  .Read(storage::ObjectId{1}, 0, 64,
                        [&](std::uint64_t, std::uint64_t)
                            -> Result<util::SharedSlice> {
                          read_on = std::this_thread::get_id();
                          return util::SharedSlice{};
                        })
                  .ok());
  EXPECT_NE(wrote_on, std::thread::id{});
  EXPECT_NE(wrote_on, std::this_thread::get_id());
  EXPECT_EQ(read_on, wrote_on);
  const metrics::Snapshot stats = sched.metrics()->Snapshot();
  EXPECT_EQ(stats.Get("runs"), 2u);
  EXPECT_EQ(stats.Get("inline"), 0u);
  sched.Stop();
}

// Synchronous runs that arrive while a batch holds the medium queue behind
// it and are planned together: touching writes merge into one run, and
// touching reads share one store read.
TEST(IoSchedulerTest, SynchronousRunsQueueBehindABatchInServiceAndMerge) {
  IoScheduler sched(core::IoSchedulerOptions{});
  sched.Start();

  std::promise<void> started;
  std::promise<void> release;
  auto released = release.get_future().share();
  auto first = sched.Submit(storage::ObjectId{1}, 0, 64, [&] {
    started.set_value();
    released.wait();
    return OkStatus();
  });
  started.get_future().wait();  // scheduler is now inside batch 1

  std::mutex order_mutex;
  std::vector<std::uint64_t> service_order;
  std::atomic<int> store_reads{0};
  const Buffer stored = PatternBuffer(8192, 9);
  std::vector<std::thread> writers;
  for (std::uint64_t offset : {8192u, 0u, 4096u}) {
    writers.emplace_back([&, offset] {
      EXPECT_TRUE(sched
                      .Write(storage::ObjectId{2}, offset, 4096,
                             [&, offset] {
                               std::lock_guard<std::mutex> lock(order_mutex);
                               service_order.push_back(offset);
                               return OkStatus();
                             })
                      .ok());
    });
  }
  std::vector<std::promise<Result<util::SharedSlice>>> read_results(2);
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < read_results.size(); ++r) {
    readers.emplace_back([&, r] {
      read_results[r].set_value(sched.Read(
          storage::ObjectId{3}, r * 4096, 4096,
          [&](std::uint64_t off,
              std::uint64_t len) -> Result<util::SharedSlice> {
            store_reads.fetch_add(1);
            return util::SharedSlice::External(ByteSpan(
                stored.data() + off, static_cast<std::size_t>(len)));
          }));
    });
  }
  // All five queue behind the stalled batch before it ends.
  while (sched.metrics()->Snapshot().Get("queue_depth") < 5) {
    util::RealClockInstance()->SleepFor(std::chrono::milliseconds(1));
  }
  release.set_value();
  for (auto& t : writers) t.join();
  for (auto& t : readers) t.join();
  EXPECT_TRUE(first->Await().ok());

  for (std::size_t r = 0; r < read_results.size(); ++r) {
    auto slice = read_results[r].get_future().get();
    ASSERT_TRUE(slice.ok());
    const auto at = static_cast<std::ptrdiff_t>(r * 4096);
    EXPECT_EQ(Buffer(slice->span().begin(), slice->span().end()),
              Buffer(stored.begin() + at, stored.begin() + at + 4096));
  }
  EXPECT_EQ(store_reads.load(), 1);
  const metrics::Snapshot stats = sched.metrics()->Snapshot();
  EXPECT_EQ(stats.Get("requests"), 6u);
  EXPECT_EQ(stats.Get("inline"), 0u);
  // Batch 1, the merged object-2 writes, the merged object-3 reads.
  EXPECT_EQ(stats.Get("runs"), 3u);
  EXPECT_EQ(stats.Get("merges"), 3u);
  {
    std::lock_guard<std::mutex> lock(order_mutex);
    EXPECT_EQ(service_order, (std::vector<std::uint64_t>{0, 4096, 8192}));
  }
  sched.Stop();
}

// Stop while a worker services an inline run: what queued behind the run
// is still serviced once it ends, then the scheduler thread joins and
// later runs are refused.
TEST(IoSchedulerTest, StopDuringAnInlineRunDrainsTheQueueAndJoins) {
  IoScheduler sched(core::IoSchedulerOptions{});
  sched.Start();

  std::promise<void> started;
  std::promise<void> release;
  auto released = release.get_future().share();
  std::promise<Status> inline_status;
  std::thread servicer([&] {
    inline_status.set_value(sched.Write(storage::ObjectId{1}, 0, 64, [&] {
      started.set_value();
      released.wait();
      return OkStatus();
    }));
  });
  started.get_future().wait();  // the worker is inside its inline run

  std::atomic<int> serviced{0};
  std::vector<std::shared_ptr<core::IoTicket>> queued;
  for (int i = 0; i < 4; ++i) {
    queued.push_back(sched.Submit(storage::ObjectId{2},
                                  static_cast<std::uint64_t>(i) * 10, 10,
                                  [&] {
                                    serviced.fetch_add(1);
                                    return OkStatus();
                                  }));
  }
  std::atomic<bool> stop_called{false};
  std::atomic<bool> stopped{false};
  std::thread stopper([&] {
    stop_called.store(true);
    sched.Stop();
    stopped.store(true);
  });
  while (!stop_called.load()) std::this_thread::yield();
  util::RealClockInstance()->SleepFor(std::chrono::milliseconds(20));
  // The queue cannot drain while the inline run holds the medium.
  EXPECT_FALSE(stopped.load());
  EXPECT_EQ(serviced.load(), 0);

  release.set_value();
  stopper.join();
  servicer.join();
  EXPECT_TRUE(inline_status.get_future().get().ok());
  for (auto& t : queued) EXPECT_TRUE(t->Await().ok());
  EXPECT_EQ(serviced.load(), 4);
  const metrics::Snapshot stats = sched.metrics()->Snapshot();
  EXPECT_EQ(stats.Get("inline"), 1u);
  EXPECT_EQ(stats.Get("runs"), 2u);  // the inline run, the merged batch
  EXPECT_EQ(sched.Write(storage::ObjectId{1}, 0, 10, [] { return OkStatus(); })
                .code(),
            ErrorCode::kUnavailable);
}

TEST(StagingPoolTest, AcquireBlocksUntilSpaceIsReleased) {
  StagingPool pool(100);
  ASSERT_TRUE(pool.Acquire(80).ok());
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    EXPECT_TRUE(pool.Acquire(50).ok());
    acquired.store(true);
  });
  util::RealClockInstance()->SleepFor(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired.load());
  pool.Release(80);
  waiter.join();
  EXPECT_TRUE(acquired.load());
  EXPECT_EQ(pool.metrics()->Snapshot().Get("waits"), 1u);
  pool.Release(50);
}

TEST(StagingPoolTest, TryAcquireNeverBlocksAndTakesOnlyFreeSpace) {
  StagingPool pool(100);
  EXPECT_TRUE(pool.TryAcquire(80));
  EXPECT_FALSE(pool.TryAcquire(50));  // would exceed capacity: no wait
  pool.Release(80);
  EXPECT_TRUE(pool.TryAcquire(50));
  pool.Release(50);
}

// The shutdown hook: Close must wake a blocked Acquire with kUnavailable
// and fail all later acquires, so StorageServer::Stop never hangs joining
// a worker stalled on the pool.
TEST(StagingPoolTest, CloseWakesBlockedAcquireWithUnavailable) {
  StagingPool pool(100);
  ASSERT_TRUE(pool.Acquire(100).ok());
  std::promise<Status> woke;
  std::thread waiter([&] { woke.set_value(pool.Acquire(50)); });
  auto result = woke.get_future();
  util::RealClockInstance()->SleepFor(std::chrono::milliseconds(20));
  pool.Close();
  waiter.join();
  EXPECT_EQ(result.get().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(pool.Acquire(1).code(), ErrorCode::kUnavailable);
  EXPECT_FALSE(pool.TryAcquire(1));
  pool.Release(100);  // outstanding reservations still drain
}

// End to end on the live stack: concurrent strided writes through the
// async window land intact and the server reports scheduler activity.
TEST(SchedServerTest, ConcurrentStridedWritesRoundTripThroughScheduler) {
  core::RuntimeOptions options;
  options.storage_servers = 1;
  options.storage.worker_threads = 4;
  // A small op cost keeps the medium busy enough for extents to queue up
  // behind it and merge; small enough to keep the test fast.
  options.storage.modeled_op_latency_us = 20;
  auto runtime = core::ServiceRuntime::Start(options).value();
  runtime->AddUser("u", "pw", 1);
  auto client = runtime->MakeClient();
  auto cred = client->Login("u", "pw").value();
  auto cid = client->CreateContainer(cred).value();
  auto cap = client->GetCap(cred, cid, security::kOpAll).value();
  auto oid = client->CreateObject(0, cap).value();

  constexpr std::size_t kExtent = 4096;
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint32_t kPerThread = 32;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto worker = runtime->MakeClient();
      const Buffer payload(kExtent, static_cast<std::uint8_t>('A' + t));
      core::Batch batch(worker.get(), /*window=*/8);
      for (std::uint32_t i = 0; i < kPerThread; ++i) {
        // Interleaved stride: consecutive offsets come from different
        // threads, so only server-side coalescing can join them.
        const std::uint64_t offset = (i * kThreads + t) * kExtent;
        if (!batch.Write(0, cap, oid,
                         {{offset, util::SharedSlice::External(payload)}})
                 .ok()) {
          failures.fetch_add(1);
          return;
        }
      }
      if (!batch.Drain().ok()) failures.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);

  // Every extent reads back all-from-its-writer.
  for (std::uint32_t i = 0; i < kPerThread; ++i) {
    for (std::uint32_t t = 0; t < kThreads; ++t) {
      const std::uint64_t offset = (i * kThreads + t) * kExtent;
      auto back = testio::ReadObjectBytes(*client, 0, cap, oid, offset,
                                          kExtent);
      ASSERT_TRUE(back.ok());
      ASSERT_EQ(back->size(), kExtent);
      for (std::uint8_t byte : *back) {
        ASSERT_EQ(byte, static_cast<std::uint8_t>('A' + t));
      }
    }
  }

  const metrics::Snapshot stats =
      runtime->storage_server(0).metrics()->Snapshot();
  // The writes, plus the reads.
  EXPECT_GE(stats.Get("sched.requests"), kThreads * kPerThread);
  EXPECT_GT(stats.Get("sched.runs"), 0u);
  EXPECT_LE(stats.Get("sched.runs"), stats.Get("sched.requests"));
  // Concurrency actually queued.
  EXPECT_GE(stats.Total("sched.queue_depth").high_water, 2u);
}

// The scheduler-off configuration is the server_sched bench's per-request
// FIFO baseline: the one scheduler services every extent as its own run in
// arrival order, so adjacent extents that queue together never merge.
TEST(SchedServerTest, SchedulerOffPathStillRoundTrips) {
  core::RuntimeOptions options;
  options.storage_servers = 1;
  options.storage.scheduler = false;
  options.storage.modeled_op_latency_us = 10;
  auto runtime = core::ServiceRuntime::Start(options).value();
  runtime->AddUser("u", "pw", 1);
  auto client = runtime->MakeClient();
  auto cred = client->Login("u", "pw").value();
  auto cid = client->CreateContainer(cred).value();
  auto cap = client->GetCap(cred, cid, security::kOpAll).value();
  auto oid = client->CreateObject(0, cap).value();

  // Sixteen touching 4 KiB writes, eight in flight at a time: with
  // coalescing on, the ones that queue together would merge.
  constexpr std::size_t kExtent = 4096;
  const Buffer payload = PatternBuffer(16 * kExtent, 42);
  {
    core::Batch batch(client.get(), 8);
    for (std::size_t at = 0; at < payload.size(); at += kExtent) {
      ASSERT_TRUE(batch
                      .Write(0, cap, oid,
                             {{at, util::SharedSlice::External(ByteSpan(
                                       payload.data() + at, kExtent))}})
                      .ok());
    }
    ASSERT_TRUE(batch.Drain().ok());
  }
  auto back = testio::ReadObjectBytes(*client, 0, cap, oid, 0, payload.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, payload);

  const metrics::Snapshot stats =
      runtime->storage_server(0).metrics()->Snapshot();
  EXPECT_EQ(stats.Get("sched.requests"), 17u);  // 16 write extents + 1 read
  EXPECT_EQ(stats.Get("sched.runs"), stats.Get("sched.requests"));
  EXPECT_EQ(stats.Get("sched.merges"), 0u);
  EXPECT_EQ(stats.Get("sched.coalesced_bytes"), 0u);
}

// On an idle server with no modeled medium a single-chunk write and a read
// are each serviced on their worker, while a multi-chunk write keeps every
// chunk queued so the pull of chunk N+1 overlaps the store copy of chunk N.
TEST(SchedServerTest, SingleChunkRunsServiceInlineMultiChunkWritesQueue) {
  core::RuntimeOptions options;
  options.storage_servers = 1;
  options.storage.bulk_chunk_bytes = 64 << 10;
  auto runtime = core::ServiceRuntime::Start(options).value();
  runtime->AddUser("u", "pw", 1);
  auto client = runtime->MakeClient();
  auto cred = client->Login("u", "pw").value();
  auto cid = client->CreateContainer(cred).value();
  auto cap = client->GetCap(cred, cid, security::kOpAll).value();
  auto oid = client->CreateObject(0, cap).value();
  const auto& sched = runtime->storage_server(0).metrics();

  // Nothing has queued yet, so the scheduler thread holds no run.
  const Buffer small = PatternBuffer(64 << 10, 11);
  ASSERT_TRUE(client->WriteObject(0, cap, oid, 0, ByteSpan(small)).ok());
  metrics::Snapshot stats = sched->Snapshot();
  EXPECT_EQ(stats.Get("sched.requests"), 1u);
  EXPECT_EQ(stats.Get("sched.inline"), 1u);
  auto back = testio::ReadObjectBytes(*client, 0, cap, oid, 0, small.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, small);
  stats = sched->Snapshot();
  EXPECT_EQ(stats.Get("sched.requests"), 2u);
  EXPECT_EQ(stats.Get("sched.inline"), 2u);
  EXPECT_EQ(stats.Total("sched.queue_depth").high_water, 0u);

  const Buffer large = PatternBuffer(4 * (64 << 10), 12);  // 4 chunks
  ASSERT_TRUE(client->WriteObject(0, cap, oid, 0, ByteSpan(large)).ok());
  stats = sched->Snapshot();
  EXPECT_EQ(stats.Get("sched.requests"), 6u);
  EXPECT_EQ(stats.Get("sched.inline"), 2u);
  EXPECT_GE(stats.Total("sched.queue_depth").high_water, 1u);
  back = testio::ReadObjectBytes(*client, 0, cap, oid, 0, large.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, large);
}

// Multi-chunk requests squeeze through a staging pool clamped to the
// two-chunk minimum: per-request memory stays bounded and data is intact.
TEST(SchedServerTest, LargeWriteSurvivesTinyStagingPool) {
  core::RuntimeOptions options;
  options.storage_servers = 1;
  options.storage.bulk_chunk_bytes = 4096;
  options.storage.staging_bytes = 1;  // clamped up to 2 chunks
  auto runtime = core::ServiceRuntime::Start(options).value();
  runtime->AddUser("u", "pw", 1);
  auto client = runtime->MakeClient();
  auto cred = client->Login("u", "pw").value();
  auto cid = client->CreateContainer(cred).value();
  auto cap = client->GetCap(cred, cid, security::kOpAll).value();
  auto oid = client->CreateObject(0, cap).value();

  const Buffer payload = PatternBuffer(64 << 10, 7);  // 16 chunks
  ASSERT_TRUE(client->WriteObject(0, cap, oid, 0, ByteSpan(payload)).ok());
  auto back = testio::ReadObjectBytes(*client, 0, cap, oid, 0, payload.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, payload);
}

// Regression: concurrent multi-chunk reads through a staging pool clamped
// to the two-chunk minimum.  A read worker used to hold chunk N's
// reservation while blocking for chunk N+1's space — with more than one
// reader in flight, every worker held one chunk and waited forever for a
// second.  Workers now retire their own pipeline before blocking, so all
// readers complete at any pool size.
TEST(SchedServerTest, ConcurrentLargeReadsSurviveTinyStagingPool) {
  core::RuntimeOptions options;
  options.storage_servers = 1;
  options.storage.worker_threads = 4;
  options.storage.bulk_chunk_bytes = 4096;
  options.storage.staging_bytes = 1;  // clamped up to 2 chunks
  auto runtime = core::ServiceRuntime::Start(options).value();
  runtime->AddUser("u", "pw", 1);
  auto client = runtime->MakeClient();
  auto cred = client->Login("u", "pw").value();
  auto cid = client->CreateContainer(cred).value();
  auto cap = client->GetCap(cred, cid, security::kOpAll).value();
  auto oid = client->CreateObject(0, cap).value();

  const Buffer payload = PatternBuffer(64 << 10, 5);  // 16 chunks each read
  ASSERT_TRUE(client->WriteObject(0, cap, oid, 0, ByteSpan(payload)).ok());

  constexpr int kReaders = 4;
  std::atomic<int> intact{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      auto worker = runtime->MakeClient();
      auto back = testio::ReadObjectBytes(*worker, 0, cap, oid, 0,
                                          payload.size());
      if (back.ok() && *back == payload) intact.fetch_add(1);
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(intact.load(), kReaders);
}

}  // namespace
}  // namespace lwfs

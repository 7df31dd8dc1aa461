// Tests for the traditional-PFS baseline: striping math, MDS behaviour,
// and the full client/MDS stack over the LWFS core's storage servers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <limits>
#include <map>
#include <numeric>
#include <string>
#include <thread>

#include "core/runtime.h"
#include "pfs/layout.h"
#include "pfs/pfs_runtime.h"
#include "util/clock.h"
#include "util/rng.h"
#include "test_io.h"

namespace lwfs::pfs {
namespace {

// ---- MapExtent ----------------------------------------------------------------

TEST(LayoutTest, SingleStripeIsIdentity) {
  auto chunks = MapExtent(1 << 20, 1, 12345, 9999);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].stripe_index, 0u);
  EXPECT_EQ(chunks[0].object_offset, 12345u);
  EXPECT_EQ(chunks[0].length, 9999u);
}

TEST(LayoutTest, RoundRobinAcrossStripes) {
  // stripe_size=10, 3 stripes; extent [5, 35) crosses three stripes.
  auto chunks = MapExtent(10, 3, 5, 30);
  ASSERT_EQ(chunks.size(), 4u);
  EXPECT_EQ(chunks[0].stripe_index, 0u);
  EXPECT_EQ(chunks[0].object_offset, 5u);
  EXPECT_EQ(chunks[0].length, 5u);
  EXPECT_EQ(chunks[1].stripe_index, 1u);
  EXPECT_EQ(chunks[1].object_offset, 0u);
  EXPECT_EQ(chunks[1].length, 10u);
  EXPECT_EQ(chunks[2].stripe_index, 2u);
  EXPECT_EQ(chunks[2].length, 10u);
  // Wraps to stripe 0, second "row" of the round-robin.
  EXPECT_EQ(chunks[3].stripe_index, 0u);
  EXPECT_EQ(chunks[3].object_offset, 10u);
  EXPECT_EQ(chunks[3].length, 5u);
}

TEST(LayoutTest, EmptyAndDegenerateInputs) {
  EXPECT_TRUE(MapExtent(10, 3, 0, 0).empty());
  EXPECT_TRUE(MapExtent(0, 3, 0, 10).empty());
  EXPECT_TRUE(MapExtent(10, 0, 0, 10).empty());
}

struct MapExtentCase {
  std::uint32_t stripe_size;
  std::uint32_t stripe_count;
  std::uint64_t offset;
  std::uint64_t length;
};

class MapExtentPropertyTest : public ::testing::TestWithParam<MapExtentCase> {};

TEST_P(MapExtentPropertyTest, ChunksPartitionTheExtent) {
  const auto& c = GetParam();
  auto chunks = MapExtent(c.stripe_size, c.stripe_count, c.offset, c.length);
  // 1. Lengths sum to the extent length and file offsets are contiguous.
  std::uint64_t sum = 0;
  std::uint64_t expect_offset = c.offset;
  for (const StripeChunk& chunk : chunks) {
    EXPECT_EQ(chunk.file_offset, expect_offset);
    EXPECT_GT(chunk.length, 0u);
    EXPECT_LE(chunk.length, c.stripe_size);
    EXPECT_LT(chunk.stripe_index, c.stripe_count);
    // Chunks never straddle a stripe boundary within the object.
    EXPECT_EQ(chunk.object_offset / c.stripe_size,
              (chunk.object_offset + chunk.length - 1) / c.stripe_size);
    expect_offset += chunk.length;
    sum += chunk.length;
  }
  EXPECT_EQ(sum, c.length);
  // 2. The mapping is injective: no two chunks overlap in any object.
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    for (std::size_t j = i + 1; j < chunks.size(); ++j) {
      if (chunks[i].stripe_index != chunks[j].stripe_index) continue;
      const bool disjoint =
          chunks[i].object_offset + chunks[i].length <= chunks[j].object_offset ||
          chunks[j].object_offset + chunks[j].length <= chunks[i].object_offset;
      EXPECT_TRUE(disjoint);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MapExtentPropertyTest,
    ::testing::Values(MapExtentCase{64, 4, 0, 1000},
                      MapExtentCase{64, 4, 63, 2},
                      MapExtentCase{64, 1, 1000, 10000},
                      MapExtentCase{1, 7, 3, 100},
                      MapExtentCase{4096, 16, 123456789, 7654321},
                      MapExtentCase{1 << 20, 8, 512ull << 20, 512ull << 20},
                      MapExtentCase{512, 3, 511, 1026}));

// ---- Full PFS stack --------------------------------------------------------------

class PfsTest : public ::testing::Test {
 protected:
  void StartRuntime(PfsRuntimeOptions options = {}) {
    auto core = core::ServiceRuntime::Start({});
    ASSERT_TRUE(core.ok()) << core.status().ToString();
    core_ = std::move(*core);
    auto rt = PfsRuntime::Start(core_.get(), options);
    ASSERT_TRUE(rt.ok()) << rt.status().ToString();
    runtime_ = std::move(*rt);
  }

  std::unique_ptr<core::ServiceRuntime> core_;
  std::unique_ptr<PfsRuntime> runtime_;
};

TEST_F(PfsTest, CreateAllocatesStripeObjectsOnOsts) {
  StartRuntime();
  auto client = runtime_->MakeClient();
  auto file = client->Create("/data", 4);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ(file->attr.layout.stripes.size(), 4u);
  // One stripe object on each OST.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(core_->store(i).ObjectCount(), 1u);
  }
  EXPECT_EQ(runtime_->mds().creates_served(), 1u);
}

TEST_F(PfsTest, CreateExistingFails) {
  StartRuntime();
  auto client = runtime_->MakeClient();
  ASSERT_TRUE(client->Create("/data", 1).ok());
  EXPECT_EQ(client->Create("/data", 1).status().code(),
            ErrorCode::kAlreadyExists);
}

TEST_F(PfsTest, OpenReturnsSameLayout) {
  StartRuntime();
  auto client = runtime_->MakeClient();
  auto created = client->Create("/data", 2);
  ASSERT_TRUE(created.ok());
  auto opened = client->Open("/data");
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened->attr.ino, created->attr.ino);
  ASSERT_EQ(opened->attr.layout.stripes.size(), 2u);
  EXPECT_EQ(opened->attr.layout.stripes[0].oid,
            created->attr.layout.stripes[0].oid);
  EXPECT_EQ(client->Open("/ghost").status().code(), ErrorCode::kNotFound);
}

class PfsStripingTest
    : public PfsTest,
      public ::testing::WithParamInterface<std::pair<std::uint32_t, std::size_t>> {};

TEST_P(PfsStripingTest, WriteReadRoundTripAcrossStripes) {
  PfsRuntimeOptions options;
  options.mds.default_stripe_size = 4096;
  StartRuntime(options);
  auto [stripe_count, total_bytes] = GetParam();
  auto client = runtime_->MakeClient(ConsistencyMode::kRelaxed);
  auto file = client->Create("/striped", stripe_count);
  ASSERT_TRUE(file.ok());
  Buffer data = PatternBuffer(total_bytes, 42);
  ASSERT_TRUE(testio::WriteAt(*client, *file, 0, ByteSpan(data)).ok());
  Buffer back(total_bytes, 0);
  auto n = testio::ReadAt(*client, *file, 0, MutableByteSpan(back));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, total_bytes);
  EXPECT_EQ(back, data);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PfsStripingTest,
    ::testing::Values(std::make_pair(1u, std::size_t{10000}),
                      std::make_pair(2u, std::size_t{4096}),
                      std::make_pair(4u, std::size_t{100000}),
                      std::make_pair(3u, std::size_t{4095}),
                      std::make_pair(4u, std::size_t{4097})));

TEST_F(PfsTest, WriteAtOffsetAndSparseRead) {
  PfsRuntimeOptions options;
  options.mds.default_stripe_size = 1024;
  StartRuntime(options);
  auto client = runtime_->MakeClient(ConsistencyMode::kRelaxed);
  auto file = client->Create("/sparse", 2);
  ASSERT_TRUE(file.ok());
  Buffer data = PatternBuffer(3000, 7);
  ASSERT_TRUE(testio::WriteAt(*client, *file, 5000, ByteSpan(data)).ok());
  Buffer back(3000, 0);
  auto n = testio::ReadAt(*client, *file, 5000, MutableByteSpan(back));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 3000u);
  EXPECT_EQ(back, data);
}

TEST_F(PfsTest, ReadSliceRoundTripsAndClampsAtEof) {
  PfsRuntimeOptions options;
  options.mds.default_stripe_size = 4096;
  StartRuntime(options);
  // Default (POSIX-locking) client: the slice read takes and releases the
  // MDS extent lock like the span path does.
  auto client = runtime_->MakeClient();
  auto file = client->Create("/slices", 4);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  Buffer data = PatternBuffer(100000, 23);
  ASSERT_TRUE(testio::WriteAt(*client, *file, 0, ByteSpan(data)).ok());

  // Striped read: per-OST slices gather into one payload.
  auto whole = testio::ReadSliceAt(*client, *file, 0, data.size());
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  ASSERT_EQ(whole->size(), data.size());
  EXPECT_TRUE(std::equal(data.begin(), data.end(), whole->span().begin()));

  // Single-stripe read: the OST's store-owned slice passes through.
  auto one = testio::ReadSliceAt(*client, *file, 4096, 2048);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  ASSERT_EQ(one->size(), 2048u);
  EXPECT_TRUE(std::equal(data.begin() + 4096, data.begin() + 4096 + 2048,
                         one->span().begin()));

  // Short at EOF, like the span Read.
  auto tail = testio::ReadSliceAt(*client, *file, 99000, 5000);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail->size(), 1000u);
}

/// Per-op call counts (`rpc.op.<opcode>.calls`) in a client registry.
std::map<std::string, std::uint64_t> OpCalls(const metrics::Snapshot& snap) {
  std::map<std::string, std::uint64_t> calls;
  for (const auto& [name, value] : snap.cells()) {
    if (name.starts_with("rpc.op.") && name.ends_with(".calls")) {
      calls[name] = value.value;
    }
  }
  return calls;
}

/// The per-op call counts `run` adds to `client`'s registry.
std::map<std::string, std::uint64_t> OpCallsDuring(
    PfsClient& client, const std::function<void()>& run) {
  const auto before = OpCalls(client.metrics()->Snapshot());
  run();
  auto delta = OpCalls(client.metrics()->Snapshot());
  for (auto& [name, n] : delta) {
    const auto it = before.find(name);
    if (it != before.end()) n -= it->second;
  }
  std::erase_if(delta, [](const auto& cell) { return cell.second == 0; });
  return delta;
}

TEST_F(PfsTest, ListIoMatchesSingleCalls) {
  PfsRuntimeOptions options;
  options.mds.default_stripe_size = 1024;
  StartRuntime(options);
  auto client = runtime_->MakeClient(ConsistencyMode::kRelaxed);
  auto list_file = client->Create("/list", 4);
  auto single_file = client->Create("/single", 4);
  ASSERT_TRUE(list_file.ok() && single_file.ok());
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> extents = {
      {0, 700}, {1500, 1200}, {5000, 100}, {7000, 3000}, {20000, 50}};
  std::vector<Buffer> data;
  std::vector<core::WritePiece> pieces;
  for (std::size_t i = 0; i < extents.size(); ++i) {
    data.push_back(PatternBuffer(extents[i].second, 60 + i));
  }
  for (std::size_t i = 0; i < extents.size(); ++i) {
    pieces.push_back(
        {extents[i].first, util::SharedSlice::External(data[i])});
  }

  const auto list_writes = OpCallsDuring(*client, [&] {
    auto done = core::Await(client->WriteAsync(*list_file, pieces));
    ASSERT_TRUE(done.ok()) << done.status().ToString();
    EXPECT_EQ(done->bytes, 700u + 1200 + 100 + 3000 + 50);
  });
  const auto single_writes = OpCallsDuring(*client, [&] {
    for (std::size_t i = 0; i < extents.size(); ++i) {
      ASSERT_TRUE(testio::WriteAt(*client, *single_file, extents[i].first,
                                  ByteSpan(data[i]))
                      .ok());
    }
  });
  EXPECT_EQ(list_writes, single_writes);
  EXPECT_FALSE(list_writes.empty());

  // Odd extents land in caller spans, even ones resolve to slices.
  std::vector<Buffer> spans;
  for (const auto& extent : extents) spans.emplace_back(extent.second, 0);
  std::vector<core::ReadExtent> reads;
  for (std::size_t i = 0; i < extents.size(); ++i) {
    const MutableByteSpan out =
        i % 2 == 1 ? MutableByteSpan(spans[i]) : MutableByteSpan{};
    reads.push_back({extents[i].first, extents[i].second, out});
  }
  core::IoResult listed;
  const auto list_reads = OpCallsDuring(*client, [&] {
    auto done = core::Await(client->ReadAsync(*list_file, reads));
    ASSERT_TRUE(done.ok()) << done.status().ToString();
    listed = std::move(*done);
  });
  const auto single_reads = OpCallsDuring(*client, [&] {
    for (std::size_t i = 0; i < extents.size(); ++i) {
      auto got = testio::ReadSliceAt(*client, *single_file, extents[i].first,
                                     extents[i].second);
      ASSERT_TRUE(got.ok());
      EXPECT_TRUE(std::ranges::equal(got->span(), data[i])) << i;
    }
  });
  EXPECT_EQ(list_reads, single_reads);
  EXPECT_EQ(listed.bytes, 700u + 1200 + 100 + 3000 + 50);
  ASSERT_EQ(listed.slices.size(), extents.size());
  for (std::size_t i = 0; i < extents.size(); ++i) {
    if (i % 2 == 1) {
      EXPECT_TRUE(listed.slices[i].empty()) << i;
      EXPECT_EQ(spans[i], data[i]) << i;
    } else {
      EXPECT_TRUE(std::ranges::equal(listed.slices[i].span(), data[i])) << i;
    }
  }
}

// pfs learns sizes only at Sync, so each extent of a list ends at its own
// first short stripe chunk — a hole in a stripe object ends it like EOF.
TEST_F(PfsTest, ListReadEndsEachExtentAtItsFirstShortChunk) {
  PfsRuntimeOptions options;
  options.mds.default_stripe_size = 1024;
  StartRuntime(options);
  auto client = runtime_->MakeClient(ConsistencyMode::kRelaxed);
  auto file = client->Create("/holes", 4);
  ASSERT_TRUE(file.ok());
  const Buffer head = PatternBuffer(100, 1);
  const Buffer far = PatternBuffer(100, 2);
  ASSERT_TRUE(testio::WriteAt(*client, *file, 0, ByteSpan(head)).ok());
  ASSERT_TRUE(testio::WriteAt(*client, *file, 2048, ByteSpan(far)).ok());

  auto done = core::Await(client->ReadAsync(
      *file, {{50, 100}, {1024, 10}, {2048, 100}, {0, 10}}));
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  ASSERT_EQ(done->slices.size(), 4u);
  EXPECT_EQ(done->slices[0].size(), 50u);  // short inside stripe 0
  EXPECT_TRUE(std::ranges::equal(done->slices[0].span(),
                                 ByteSpan(head).subspan(50)));
  EXPECT_EQ(done->slices[1].size(), 0u);   // stripe 1 holds nothing
  EXPECT_TRUE(std::ranges::equal(done->slices[2].span(), far));
  EXPECT_TRUE(std::ranges::equal(done->slices[3].span(),
                                 ByteSpan(head).first(10)));
  EXPECT_EQ(done->bytes, 50u + 0 + 100 + 10);
}

TEST_F(PfsTest, SyncPublishesSize) {
  StartRuntime();
  auto client = runtime_->MakeClient();
  auto file = client->Create("/sized", 1);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(
      testio::WriteAt(*client, *file, 0, ByteSpan(Buffer(500, 1))).ok());
  ASSERT_TRUE(client->Sync(*file, 500).ok());
  auto attr = client->GetAttr("/sized");
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->size, 500u);
}

TEST_F(PfsTest, UnlinkRemovesStripeObjects) {
  StartRuntime();
  auto client = runtime_->MakeClient();
  auto file = client->Create("/gone", 4);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(client->Unlink("/gone").ok());
  EXPECT_EQ(client->Open("/gone").status().code(), ErrorCode::kNotFound);
  for (int i = 0; i < core_->storage_count(); ++i) {
    EXPECT_EQ(core_->store(i).ObjectCount(), 0u);
  }
}

TEST_F(PfsTest, PosixLockingSerializesOverlappingRegions) {
  PfsRuntimeOptions options;
  options.mds.lock_granularity = 1 << 20;
  StartRuntime(options);
  auto client = runtime_->MakeClient(ConsistencyMode::kPosixLocking);
  auto file = client->Create("/locked", 2);
  ASSERT_TRUE(file.ok());

  // Two threads write overlapping regions under POSIX locking; both must
  // complete (serialized, not deadlocked) and the file must contain one of
  // the two writes in the overlap, not a mix at lock granularity.
  std::atomic<int> failures{0};
  auto writer = [&](std::uint8_t fill) {
    auto c = runtime_->MakeClient(ConsistencyMode::kPosixLocking);
    Buffer data(200000, fill);
    for (int i = 0; i < 3; ++i) {
      if (!testio::WriteAt(*c, *file, 0,
                           ByteSpan(data)).ok()) failures.fetch_add(1);
    }
  };
  std::thread t1(writer, 0xAA), t2(writer, 0xBB);
  t1.join();
  t2.join();
  EXPECT_EQ(failures.load(), 0);
  Buffer back(200000, 0);
  auto n = testio::ReadAt(*runtime_->MakeClient(), *file, 0,
                          MutableByteSpan(back));
  ASSERT_TRUE(n.ok());
  EXPECT_TRUE(back[0] == 0xAA || back[0] == 0xBB);
  for (std::size_t i = 1; i < back.size(); ++i) {
    ASSERT_EQ(back[i], back[0]) << "torn write at byte " << i;
  }
}

TEST_F(PfsTest, MdsLockGranularityMakesNearbyWritesConflict) {
  // The Figure 9 shared-file effect in miniature: disjoint ranges within
  // one lock granule conflict at the MDS.
  MdsService mds(
      1, [](std::uint32_t) { return storage::ObjectId{1}; },
      [](std::uint32_t, storage::ObjectId) { return OkStatus(); },
      MdsOptions{.default_stripe_size = 1 << 20,
                 .lock_granularity = 64ull << 20,
                 .create_delay_hook = {}});
  auto file = mds.Create("/f", 1);
  ASSERT_TRUE(file.ok());
  auto l1 = mds.TryLock(file->ino, 0, 1 << 20, txn::LockMode::kExclusive, 1);
  ASSERT_TRUE(l1.ok());
  // A disjoint byte range, but the same 64 MB granule: conflict.
  auto l2 = mds.TryLock(file->ino, 10ull << 20, 11ull << 20,
                        txn::LockMode::kExclusive, 2);
  EXPECT_EQ(l2.status().code(), ErrorCode::kResourceExhausted);
  // A range in a different granule: no conflict.
  auto l3 = mds.TryLock(file->ino, 128ull << 20, 129ull << 20,
                        txn::LockMode::kExclusive, 2);
  EXPECT_TRUE(l3.ok());
}

TEST_F(PfsTest, RelaxedModeSkipsLockTraffic) {
  StartRuntime();
  auto client = runtime_->MakeClient(ConsistencyMode::kRelaxed);
  auto file = client->Create("/relaxed", 2);
  ASSERT_TRUE(file.ok());
  const std::uint64_t ops_before = runtime_->mds().metadata_ops();
  ASSERT_TRUE(
      testio::WriteAt(*client, *file, 0, ByteSpan(Buffer(1000, 1))).ok());
  // No lock acquire/release round trips hit the MDS.
  EXPECT_EQ(runtime_->mds().metadata_ops(), ops_before);
}

TEST_F(PfsTest, EveryCreateHitsTheMds) {
  StartRuntime();
  constexpr int kClients = 6;
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      auto c = runtime_->MakeClient();
      ASSERT_TRUE(c->Create("/f" + std::to_string(i), 1).ok());
    });
  }
  for (auto& t : threads) t.join();
  // The centralized-create bottleneck, observable: m creates, all through
  // one MDS.
  EXPECT_EQ(runtime_->mds().creates_served(), static_cast<std::uint64_t>(kClients));
  auto names = runtime_->mds().List();
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names->size(), static_cast<std::size_t>(kClients));
}

// Regression: a write whose end wraps past 2^64 mapped its wrapped part
// onto the file's first bytes (and, on the old OST, aborted the process).
// The striped engine refuses it before locking or sending anything.
TEST_F(PfsTest, WrappingWriteLeavesTheFileUntouched) {
  StartRuntime();
  auto client = runtime_->MakeClient(ConsistencyMode::kRelaxed);
  auto file = client->Create("/wrap", 4);
  ASSERT_TRUE(file.ok());
  const Buffer head = PatternBuffer(100, 1);
  ASSERT_TRUE(testio::WriteAt(*client, *file, 0, ByteSpan(head)).ok());
  const Buffer payload = PatternBuffer(200, 2);
  EXPECT_EQ(testio::WriteAt(*client, *file,
                            std::numeric_limits<std::uint64_t>::max() - 99,
                            ByteSpan(payload))
                .code(),
            ErrorCode::kInvalidArgument);
  Buffer back(head.size(), 0);
  auto n = testio::ReadAt(*client, *file, 0, MutableByteSpan(back));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, head.size());
  EXPECT_EQ(back, head);
}

// ---- pfs over the LWFS core ---------------------------------------------------

// Stripe objects live in the MDS's container: the capability the MDS hands
// out with the file reads them, a capability for any other container does
// not.
TEST_F(PfsTest, StripeObjectsAreProtectedByTheMdsCapability) {
  PfsRuntimeOptions options;
  options.mds.default_stripe_size = 4096;
  StartRuntime(options);
  auto client = runtime_->MakeClient(ConsistencyMode::kRelaxed);
  auto file = client->Create("/guarded", 2);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(
      testio::WriteAt(*client, *file, 0, ByteSpan(Buffer(5000, 9))).ok());

  core_->AddUser("other", "pw", 7);
  auto other = core_->MakeClient();
  auto cred = other->Login("other", "pw");
  ASSERT_TRUE(cred.ok());
  auto cid = other->CreateContainer(*cred);
  ASSERT_TRUE(cid.ok());
  auto cap = other->GetCap(*cred, *cid, security::kOpAll);
  ASSERT_TRUE(cap.ok());
  ASSERT_NE(cap->cid, file->cap.cid);
  for (const StripeTarget& stripe : file->attr.layout.stripes) {
    auto attr = core_->store(static_cast<int>(stripe.server))
                    .GetAttr(stripe.oid);
    ASSERT_TRUE(attr.ok());
    EXPECT_EQ(attr->cid, file->cap.cid);
    EXPECT_FALSE(
        testio::ReadObjectSlice(*other, stripe.server, *cap, stripe.oid, 0, 100)
            .ok());
    auto granted = testio::ReadObjectSlice(*other, stripe.server, file->cap,
                                          stripe.oid, 0, 100);
    ASSERT_TRUE(granted.ok()) << granted.status().ToString();
    EXPECT_EQ(granted->size(), 100u);
  }
}

// The MDS renews its stripe capability, so a deployment older than the
// capability TTL still creates and writes files.
TEST(PfsCapabilityTest, MdsRenewsItsCapabilityPastTheTtl) {
  std::atomic<std::int64_t> now_us{0};
  core::RuntimeOptions options;
  options.authn.now = [&now_us] { return now_us.load(); };
  options.authn.credential_ttl_us = 1000LL * 3600 * 1000 * 1000;
  options.authz.now = [&now_us] { return now_us.load(); };
  auto core = core::ServiceRuntime::Start(options);
  ASSERT_TRUE(core.ok()) << core.status().ToString();
  auto pfs = PfsRuntime::Start(core->get(), {});
  ASSERT_TRUE(pfs.ok()) << pfs.status().ToString();
  auto client = (*pfs)->MakeClient();
  const Buffer data = PatternBuffer(10000, 5);
  auto before = client->Create("/before", 2);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_TRUE(testio::WriteAt(*client, *before, 0, ByteSpan(data)).ok());

  now_us = options.authz.capability_ttl_us + 1;
  auto after = client->Create("/after", 2);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_GT(after->cap.expires_us, now_us.load());
  Status wrote = testio::WriteAt(*client, *after, 0, ByteSpan(data));
  ASSERT_TRUE(wrote.ok()) << wrote.ToString();
  Buffer back(data.size());
  auto read = testio::ReadAt(*client, *after, 0, MutableByteSpan(back));
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(back, data);
}

// The MDS also renews its credential: with default TTLs, a deployment older
// than twice the credential TTL still creates, writes and reads files.
TEST(PfsCapabilityTest, MdsRenewsItsCredentialPastTheTtl) {
  std::atomic<std::int64_t> now_us{0};
  core::RuntimeOptions options;
  options.authn.now = [&now_us] { return now_us.load(); };
  options.authz.now = [&now_us] { return now_us.load(); };
  auto core = core::ServiceRuntime::Start(options);
  ASSERT_TRUE(core.ok()) << core.status().ToString();
  auto pfs = PfsRuntime::Start(core->get(), {});
  ASSERT_TRUE(pfs.ok()) << pfs.status().ToString();
  auto client = (*pfs)->MakeClient();
  const Buffer data = PatternBuffer(10000, 6);
  auto before = client->Create("/before", 2);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_TRUE(testio::WriteAt(*client, *before, 0, ByteSpan(data)).ok());

  now_us = 2 * options.authn.credential_ttl_us;
  auto after = client->Create("/after", 2);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  Status wrote = testio::WriteAt(*client, *after, 0, ByteSpan(data));
  ASSERT_TRUE(wrote.ok()) << wrote.ToString();
  Buffer back(data.size());
  auto read = testio::ReadAt(*client, *after, 0, MutableByteSpan(back));
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(back, data);
  EXPECT_EQ(
      (*pfs)->mds_server().metrics()->Snapshot().Get("caps.relogins"), 1u);
}

// A relaxed pfs write is an LWFS object write: the same server scheduler
// work, and on the modeled medium the same virtual time.
TEST(PfsOverCoreTest, RelaxedWriteCostsWhatAnLwfsWriteCosts) {
  util::VirtualClock clock;
  util::Clock::ThreadGuard guard(&clock);
  core::RuntimeOptions options;
  options.storage_servers = 1;
  options.clock = &clock;
  options.storage.modeled_disk_mb_s = 100;
  options.storage.modeled_op_latency_us = 50;
  auto core = core::ServiceRuntime::Start(options);
  ASSERT_TRUE(core.ok()) << core.status().ToString();
  auto pfs = PfsRuntime::Start(core->get(), {});
  ASSERT_TRUE(pfs.ok()) << pfs.status().ToString();

  (*core)->AddUser("u", "p", 1);
  auto lwfs = (*core)->MakeClient();
  auto cred = lwfs->Login("u", "p");
  ASSERT_TRUE(cred.ok());
  auto cid = lwfs->CreateContainer(*cred);
  ASSERT_TRUE(cid.ok());
  auto cap = lwfs->GetCap(*cred, *cid, security::kOpAll);
  ASSERT_TRUE(cap.ok());
  auto oid = lwfs->CreateObject(0, *cap);
  ASSERT_TRUE(oid.ok());
  auto client = (*pfs)->MakeClient(ConsistencyMode::kRelaxed);
  auto file = client->Create("/same", 1);
  ASSERT_TRUE(file.ok());

  const Buffer data = PatternBuffer(256 << 10, 4);
  auto measure = [&](const std::function<Status()>& write) {
    (*core)->metrics()->Reset();
    const util::Clock::TimePoint start = clock.Now();
    EXPECT_TRUE(write().ok());
    return std::make_pair((*core)->storage_server(0).metrics()->Snapshot(),
                          clock.Now() - start);
  };
  const auto [lwfs_stats, lwfs_time] = measure([&] {
    return lwfs->WriteObject(0, *cap, *oid, 0, ByteSpan(data));
  });
  const auto [pfs_stats, pfs_time] =
      measure([&] { return testio::WriteAt(*client, *file, 0,
                                           ByteSpan(data)); });

  EXPECT_EQ(lwfs_stats.Get("sched.requests"), 1u);
  for (const char* cell : {"sched.requests", "sched.runs", "sched.merges",
                           "sched.coalesced_bytes"}) {
    EXPECT_EQ(pfs_stats.Get(cell), lwfs_stats.Get(cell)) << cell;
  }
  EXPECT_EQ(pfs_stats.Total("sched.queue_depth").high_water,
            lwfs_stats.Total("sched.queue_depth").high_water);
  EXPECT_GT(lwfs_time.count(), 0);
  EXPECT_EQ(pfs_time, lwfs_time);
}

}  // namespace
}  // namespace lwfs::pfs

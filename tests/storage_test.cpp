// Tests for the object-storage substrate: the allocator, and every backend
// through the common ObjectStore interface (parameterized).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "storage/block_allocator.h"
#include "storage/object_store.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace lwfs::storage {
namespace {

// ---- BlockAllocator ---------------------------------------------------------

TEST(BlockAllocatorTest, StartsFullyFree) {
  BlockAllocator alloc(100);
  EXPECT_EQ(alloc.free_blocks(), 100u);
  EXPECT_EQ(alloc.allocated_blocks(), 0u);
  EXPECT_TRUE(alloc.CheckInvariants());
}

TEST(BlockAllocatorTest, AllocateAndFreeRoundTrip) {
  BlockAllocator alloc(100);
  auto extents = alloc.Allocate(40);
  ASSERT_TRUE(extents.ok());
  EXPECT_EQ(alloc.free_blocks(), 60u);
  for (const Extent& e : *extents) ASSERT_TRUE(alloc.Free(e).ok());
  EXPECT_EQ(alloc.free_blocks(), 100u);
  EXPECT_EQ(alloc.free_extent_count(), 1u);  // fully coalesced
  EXPECT_TRUE(alloc.CheckInvariants());
}

TEST(BlockAllocatorTest, ExhaustionFailsCleanly) {
  BlockAllocator alloc(10);
  ASSERT_TRUE(alloc.Allocate(10).ok());
  auto more = alloc.Allocate(1);
  EXPECT_EQ(more.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_TRUE(alloc.CheckInvariants());
}

TEST(BlockAllocatorTest, FragmentationSplitsAllocations) {
  BlockAllocator alloc(30);
  auto a = alloc.Allocate(10);
  auto b = alloc.Allocate(10);
  auto c = alloc.Allocate(10);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  // Free the middle, then ask for more than any single hole.
  for (const Extent& e : *b) ASSERT_TRUE(alloc.Free(e).ok());
  EXPECT_FALSE(alloc.AllocateContiguous(11).ok());
  auto split = alloc.Allocate(10);
  ASSERT_TRUE(split.ok());
  EXPECT_TRUE(alloc.CheckInvariants());
}

TEST(BlockAllocatorTest, DoubleFreeRejected) {
  BlockAllocator alloc(20);
  auto e = alloc.AllocateContiguous(5);
  ASSERT_TRUE(e.ok());
  ASSERT_TRUE(alloc.Free(*e).ok());
  EXPECT_FALSE(alloc.Free(*e).ok());
  EXPECT_TRUE(alloc.CheckInvariants());
}

TEST(BlockAllocatorTest, FreeOutOfRangeRejected) {
  BlockAllocator alloc(20);
  EXPECT_EQ(alloc.Free(Extent{15, 10}).code(), ErrorCode::kOutOfRange);
}

TEST(BlockAllocatorTest, CoalescesWithBothNeighbours) {
  BlockAllocator alloc(30);
  auto a = alloc.AllocateContiguous(10);  // [0,10)
  auto b = alloc.AllocateContiguous(10);  // [10,20)
  auto c = alloc.AllocateContiguous(10);  // [20,30)
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ASSERT_TRUE(alloc.Free(*a).ok());
  ASSERT_TRUE(alloc.Free(*c).ok());
  EXPECT_EQ(alloc.free_extent_count(), 2u);
  ASSERT_TRUE(alloc.Free(*b).ok());  // merges all three
  EXPECT_EQ(alloc.free_extent_count(), 1u);
  EXPECT_EQ(alloc.free_blocks(), 30u);
}

TEST(BlockAllocatorTest, RandomWorkloadPreservesInvariants) {
  BlockAllocator alloc(1000);
  Rng rng(99);
  std::vector<Extent> held;
  for (int step = 0; step < 2000; ++step) {
    if (held.empty() || rng.NextDouble() < 0.55) {
      auto got = alloc.Allocate(1 + rng.NextBelow(20));
      if (got.ok()) {
        held.insert(held.end(), got->begin(), got->end());
      }
    } else {
      const std::size_t idx = static_cast<std::size_t>(rng.NextBelow(held.size()));
      ASSERT_TRUE(alloc.Free(held[idx]).ok());
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    ASSERT_TRUE(alloc.CheckInvariants()) << "step " << step;
  }
}

// ---- ObjectStore (all backends) ----------------------------------------------

enum class Backend { kMemory, kBlock, kFile };

std::string BackendName(Backend b) {
  switch (b) {
    case Backend::kMemory: return "Memory";
    case Backend::kBlock: return "Block";
    case Backend::kFile: return "File";
  }
  return "?";
}

class ObjectStoreTest : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override {
    switch (GetParam()) {
      case Backend::kMemory:
        store_ = std::make_unique<MemObjectStore>();
        break;
      case Backend::kBlock:
        store_ = std::make_unique<BlockObjectStore>(4096, 512);
        break;
      case Backend::kFile: {
        dir_ = std::filesystem::temp_directory_path() /
               ("lwfs_store_test_" + std::to_string(::getpid()) + "_" +
                ::testing::UnitTest::GetInstance()->current_test_info()->name());
        std::filesystem::remove_all(dir_);
        auto opened = FileObjectStore::Open(dir_.string());
        ASSERT_TRUE(opened.ok()) << opened.status().ToString();
        store_ = std::move(*opened);
        break;
      }
    }
  }

  void TearDown() override {
    store_.reset();
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  std::unique_ptr<ObjectStore> store_;
  std::filesystem::path dir_;
  const ContainerId cid_{7};
};

TEST_P(ObjectStoreTest, CreateAssignsUniqueIds) {
  auto a = store_->Create(cid_);
  auto b = store_->Create(cid_);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(*a, *b);
  EXPECT_EQ(store_->ObjectCount(), 2u);
}

TEST_P(ObjectStoreTest, CreateRejectsInvalidContainer) {
  EXPECT_FALSE(store_->Create(kInvalidContainer).ok());
}

TEST_P(ObjectStoreTest, WriteReadRoundTrip) {
  auto oid = store_->Create(cid_);
  ASSERT_TRUE(oid.ok());
  Buffer data = PatternBuffer(3000, 5);
  ASSERT_TRUE(store_->Write(*oid, 0, ByteSpan(data)).ok());
  auto back = store_->Read(*oid, 0, data.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
}

TEST_P(ObjectStoreTest, WriteAtOffsetExtendsWithZeros) {
  auto oid = store_->Create(cid_);
  ASSERT_TRUE(oid.ok());
  Buffer data = {1, 2, 3};
  ASSERT_TRUE(store_->Write(*oid, 1000, ByteSpan(data)).ok());
  auto attr = store_->GetAttr(*oid);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->size, 1003u);
  auto hole = store_->Read(*oid, 500, 10);
  ASSERT_TRUE(hole.ok());
  EXPECT_EQ(*hole, Buffer(10, 0));
  auto tail = store_->Read(*oid, 1000, 3);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(*tail, data);
}

TEST_P(ObjectStoreTest, OverwriteInPlace) {
  auto oid = store_->Create(cid_);
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(store_->Write(*oid, 0, ByteSpan(Buffer(100, 0xAA))).ok());
  ASSERT_TRUE(store_->Write(*oid, 50, ByteSpan(Buffer(10, 0xBB))).ok());
  auto back = store_->Read(*oid, 45, 20);
  ASSERT_TRUE(back.ok());
  for (int i = 0; i < 5; ++i) EXPECT_EQ((*back)[static_cast<std::size_t>(i)], 0xAA);
  for (int i = 5; i < 15; ++i) EXPECT_EQ((*back)[static_cast<std::size_t>(i)], 0xBB);
  for (int i = 15; i < 20; ++i) EXPECT_EQ((*back)[static_cast<std::size_t>(i)], 0xAA);
}

TEST_P(ObjectStoreTest, ReadPastEofIsShort) {
  auto oid = store_->Create(cid_);
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(store_->Write(*oid, 0, ByteSpan(Buffer(10, 1))).ok());
  auto r = store_->Read(*oid, 5, 100);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 5u);
  auto beyond = store_->Read(*oid, 100, 10);
  ASSERT_TRUE(beyond.ok());
  EXPECT_TRUE(beyond->empty());
}

TEST_P(ObjectStoreTest, TruncateShrinkAndGrow) {
  auto oid = store_->Create(cid_);
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(store_->Write(*oid, 0, ByteSpan(Buffer(2000, 0xCC))).ok());
  ASSERT_TRUE(store_->Truncate(*oid, 700).ok());
  auto attr = store_->GetAttr(*oid);
  EXPECT_EQ(attr->size, 700u);
  ASSERT_TRUE(store_->Truncate(*oid, 1500).ok());
  auto grown = store_->Read(*oid, 700, 800);
  ASSERT_TRUE(grown.ok());
  EXPECT_EQ(*grown, Buffer(800, 0));  // regrown region reads zero
}

TEST_P(ObjectStoreTest, RemoveMakesObjectVanish) {
  auto oid = store_->Create(cid_);
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(store_->Remove(*oid).ok());
  EXPECT_EQ(store_->Read(*oid, 0, 1).status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(store_->Remove(*oid).code(), ErrorCode::kNotFound);
  EXPECT_EQ(store_->ObjectCount(), 0u);
}

TEST_P(ObjectStoreTest, OpsOnMissingObjectFail) {
  ObjectId ghost{424242};
  EXPECT_EQ(store_->Write(ghost, 0, ByteSpan(Buffer{1})).code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(store_->GetAttr(ghost).status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(store_->Truncate(ghost, 10).code(), ErrorCode::kNotFound);
}

TEST_P(ObjectStoreTest, ListFiltersByContainer) {
  ContainerId other{8};
  auto a = store_->Create(cid_);
  auto b = store_->Create(other);
  auto c = store_->Create(cid_);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  auto list = store_->List(cid_);
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->size(), 2u);
  EXPECT_EQ((*list)[0], *a);
  EXPECT_EQ((*list)[1], *c);
}

TEST_P(ObjectStoreTest, CreateWithIdAndConflict) {
  ASSERT_TRUE(store_->CreateWithId(cid_, ObjectId{500}).ok());
  EXPECT_EQ(store_->CreateWithId(cid_, ObjectId{500}).code(),
            ErrorCode::kAlreadyExists);
  // The id generator must not collide with explicit ids.
  auto next = store_->Create(cid_);
  ASSERT_TRUE(next.ok());
  EXPECT_GT(next->value, 500u);
}

TEST_P(ObjectStoreTest, VersionBumpsOnMutation) {
  auto oid = store_->Create(cid_);
  ASSERT_TRUE(oid.ok());
  auto v0 = store_->GetAttr(*oid)->version;
  ASSERT_TRUE(store_->Write(*oid, 0, ByteSpan(Buffer{1})).ok());
  auto v1 = store_->GetAttr(*oid)->version;
  ASSERT_TRUE(store_->Truncate(*oid, 0).ok());
  auto v2 = store_->GetAttr(*oid)->version;
  EXPECT_LT(v0, v1);
  EXPECT_LT(v1, v2);
}

TEST_P(ObjectStoreTest, RandomOpsAgainstReferenceModel) {
  // Property test: every backend behaves like a simple map<oid, bytes>.
  Rng rng(GetParam() == Backend::kMemory ? 1 : GetParam() == Backend::kBlock ? 2 : 3);
  std::map<std::uint64_t, Buffer> model;
  std::vector<ObjectId> live;
  const int steps = GetParam() == Backend::kFile ? 150 : 600;
  for (int step = 0; step < steps; ++step) {
    const double roll = rng.NextDouble();
    if (live.empty() || roll < 0.2) {
      auto oid = store_->Create(cid_);
      ASSERT_TRUE(oid.ok());
      live.push_back(*oid);
      model[oid->value] = {};
    } else if (roll < 0.6) {
      const ObjectId oid = live[static_cast<std::size_t>(rng.NextBelow(live.size()))];
      const std::uint64_t offset = rng.NextBelow(5000);
      Buffer data = PatternBuffer(1 + rng.NextBelow(2000), rng.NextU64());
      ASSERT_TRUE(store_->Write(oid, offset, ByteSpan(data)).ok());
      Buffer& m = model[oid.value];
      if (m.size() < offset + data.size()) m.resize(offset + data.size(), 0);
      std::copy(data.begin(), data.end(),
                m.begin() + static_cast<std::ptrdiff_t>(offset));
    } else if (roll < 0.9) {
      const ObjectId oid = live[static_cast<std::size_t>(rng.NextBelow(live.size()))];
      const std::uint64_t offset = rng.NextBelow(6000);
      const std::uint64_t len = 1 + rng.NextBelow(3000);
      auto got = store_->Read(oid, offset, len);
      ASSERT_TRUE(got.ok());
      const Buffer& m = model[oid.value];
      Buffer expect;
      if (offset < m.size()) {
        const std::uint64_t n = std::min<std::uint64_t>(len, m.size() - offset);
        expect.assign(m.begin() + static_cast<std::ptrdiff_t>(offset),
                      m.begin() + static_cast<std::ptrdiff_t>(offset + n));
      }
      ASSERT_EQ(*got, expect) << "step " << step;
    } else {
      const std::size_t idx = static_cast<std::size_t>(rng.NextBelow(live.size()));
      ASSERT_TRUE(store_->Remove(live[idx]).ok());
      model.erase(live[idx].value);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    }
  }
  EXPECT_EQ(store_->ObjectCount(), model.size());
}

INSTANTIATE_TEST_SUITE_P(Backends, ObjectStoreTest,
                         ::testing::Values(Backend::kMemory, Backend::kBlock,
                                           Backend::kFile),
                         [](const auto& info) { return BackendName(info.param); });

// ---- Backend-specific behaviour ------------------------------------------------

TEST(BlockObjectStoreTest, InvariantsHoldUnderWorkload) {
  BlockObjectStore store(512, 256);
  Rng rng(4);
  std::vector<ObjectId> live;
  for (int step = 0; step < 500; ++step) {
    if (live.empty() || rng.NextDouble() < 0.4) {
      auto oid = store.Create(ContainerId{1});
      ASSERT_TRUE(oid.ok());
      live.push_back(*oid);
    } else if (rng.NextDouble() < 0.7) {
      const ObjectId oid = live[static_cast<std::size_t>(rng.NextBelow(live.size()))];
      Buffer data = PatternBuffer(1 + rng.NextBelow(1024), rng.NextU64());
      // Writes may hit device-full; that must fail cleanly.
      (void)store.Write(oid, rng.NextBelow(2048), ByteSpan(data));
    } else {
      const std::size_t idx = static_cast<std::size_t>(rng.NextBelow(live.size()));
      ASSERT_TRUE(store.Remove(live[idx]).ok());
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    ASSERT_TRUE(store.CheckInvariants()) << "step " << step;
  }
}

TEST(BlockObjectStoreTest, DeviceFullSurfacesAsResourceExhausted) {
  BlockObjectStore store(8, 512);  // 4 KiB device
  auto oid = store.Create(ContainerId{1});
  ASSERT_TRUE(oid.ok());
  EXPECT_TRUE(store.Write(*oid, 0, ByteSpan(Buffer(4096, 1))).ok());
  auto second = store.Create(ContainerId{1});
  ASSERT_TRUE(second.ok());  // creates are metadata-only
  EXPECT_EQ(store.Write(*second, 0, ByteSpan(Buffer(512, 1))).code(),
            ErrorCode::kResourceExhausted);
}

TEST(BlockObjectStoreTest, RemoveReleasesBlocksForReuse) {
  BlockObjectStore store(8, 512);
  auto a = store.Create(ContainerId{1});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(store.Write(*a, 0, ByteSpan(Buffer(4096, 0xFF))).ok());
  ASSERT_TRUE(store.Remove(*a).ok());
  EXPECT_EQ(store.FreeBlocks(), 8u);
  auto b = store.Create(ContainerId{1});
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(store.Write(*b, 0, ByteSpan(Buffer(512, 1))).ok());
  // Recycled blocks must not leak the previous object's bytes.
  auto back = store.Read(*b, 0, 512);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ((*back)[0], 1);
}

// ---- MemObjectStore extents ------------------------------------------------------

constexpr std::uint64_t kExtent = MemObjectStore::kExtentBytes;

template <typename B>
auto At(B& bytes, std::uint64_t i) {
  return bytes.begin() + static_cast<std::ptrdiff_t>(i);
}

// [offset, offset + n) through Read and through ReadSlice: both must return
// the same bytes, and the slice's cached CRC must be the CRC of its bytes.
Buffer ReadBoth(MemObjectStore& store, ObjectId oid, std::uint64_t offset,
                std::uint64_t n) {
  auto buf = store.Read(oid, offset, n);
  auto slice = store.ReadSlice(oid, offset, n);
  if (!buf.ok() || !slice.ok()) {
    ADD_FAILURE() << "read failed";
    return {};
  }
  EXPECT_TRUE(std::equal(buf->begin(), buf->end(), slice->span().begin(),
                         slice->span().end()));
  if (!slice->empty()) {
    EXPECT_TRUE(slice->has_cached_crc());
    EXPECT_EQ(slice->cached_crc(), Crc32(slice->span()));
  }
  return std::move(*buf);
}

TEST(MemObjectStoreTest, HolesReadAsZeros) {
  MemObjectStore store;
  auto oid = store.Create(ContainerId{1});
  ASSERT_TRUE(oid.ok());
  const Buffer a = PatternBuffer(100, 1);
  const Buffer b = PatternBuffer(100, 2);
  ASSERT_TRUE(store.Write(*oid, 10, ByteSpan(a)).ok());
  ASSERT_TRUE(store.Write(*oid, 3 * kExtent + 5, ByteSpan(b)).ok());
  // Extents 1 and 2 were never written.
  Buffer expect(3 * kExtent + 105, 0);
  std::copy(a.begin(), a.end(), At(expect, 10));
  std::copy(b.begin(), b.end(), At(expect, 3 * kExtent + 5));
  EXPECT_TRUE(ReadBoth(store, *oid, 0, expect.size()) == expect);
  EXPECT_TRUE(ReadBoth(store, *oid, kExtent + 17, kExtent) ==
              Buffer(kExtent, 0));
}

TEST(MemObjectStoreTest, WritesStraddleExtentBoundaries) {
  MemObjectStore store;
  auto oid = store.Create(ContainerId{1});
  ASSERT_TRUE(oid.ok());
  // 2.5 extents from just short of the first boundary, then an overwrite
  // across the second.
  const Buffer big = PatternBuffer(5 * kExtent / 2, 3);
  const Buffer patch = PatternBuffer(4096, 4);
  ASSERT_TRUE(store.Write(*oid, kExtent - 1000, ByteSpan(big)).ok());
  ASSERT_TRUE(store.Write(*oid, 2 * kExtent - 2048, ByteSpan(patch)).ok());
  Buffer expect(kExtent - 1000 + big.size(), 0);
  std::copy(big.begin(), big.end(), At(expect, kExtent - 1000));
  std::copy(patch.begin(), patch.end(), At(expect, 2 * kExtent - 2048));
  auto attr = store.GetAttr(*oid);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->size, expect.size());
  EXPECT_TRUE(ReadBoth(store, *oid, 0, expect.size()) == expect);
  // A read that starts and ends mid-extent.
  EXPECT_TRUE(ReadBoth(store, *oid, kExtent - 7, kExtent + 14) ==
              Buffer(At(expect, kExtent - 7), At(expect, 2 * kExtent + 7)));
}

TEST(MemObjectStoreTest, WriteFarBeyondEofLeavesAHole) {
  MemObjectStore store;
  auto oid = store.Create(ContainerId{1});
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(store.Write(*oid, 0, ByteSpan(Buffer(64, 0x11))).ok());
  const std::uint64_t far = 12 * kExtent + 123;
  ASSERT_TRUE(store.Write(*oid, far, ByteSpan(Buffer(64, 0x22))).ok());
  auto attr = store.GetAttr(*oid);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->size, far + 64);
  EXPECT_TRUE(ReadBoth(store, *oid, 64, far - 64) == Buffer(far - 64, 0));
  EXPECT_EQ(ReadBoth(store, *oid, far, 64), Buffer(64, 0x22));
  // Only the two written extents were ever allocated.
  ASSERT_TRUE(store.Remove(*oid).ok());
  EXPECT_EQ(store.FreeExtents(), 2u);
}

TEST(MemObjectStoreTest, TruncateShrinkThenGrowReadsZeros) {
  MemObjectStore store;
  auto oid = store.Create(ContainerId{1});
  ASSERT_TRUE(oid.ok());
  const Buffer data = PatternBuffer(3 * kExtent, 5);
  ASSERT_TRUE(store.Write(*oid, 0, ByteSpan(data)).ok());
  const std::uint64_t cut = kExtent + 123;
  ASSERT_TRUE(store.Truncate(*oid, cut).ok());
  EXPECT_EQ(store.FreeExtents(), 1u);  // extent 2 retired, extent 1 cut
  ASSERT_TRUE(store.Truncate(*oid, 3 * kExtent).ok());
  Buffer expect(3 * kExtent, 0);
  std::copy(data.begin(), At(data, cut), expect.begin());
  EXPECT_TRUE(ReadBoth(store, *oid, 0, expect.size()) == expect);
  // A write past the cut, inside the cut extent, leaves the gap zero.
  ASSERT_TRUE(store.Write(*oid, cut + 1000, ByteSpan(Buffer(10, 0x33))).ok());
  std::fill_n(At(expect, cut + 1000), 10, 0x33);
  EXPECT_TRUE(ReadBoth(store, *oid, 0, expect.size()) == expect);
}

TEST(MemObjectStoreTest, RecycledExtentNeverLeaksPreviousBytes) {
  MemObjectStore store;
  auto first = store.Create(ContainerId{1});
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(store.Write(*first, 0, ByteSpan(Buffer(2 * kExtent, 0xEE))).ok());
  ASSERT_TRUE(store.Remove(*first).ok());
  ASSERT_EQ(store.FreeExtents(), 2u);

  auto second = store.Create(ContainerId{1});
  ASSERT_TRUE(second.ok());
  // Partial writes into both recycled extents, with gaps on either side.
  ASSERT_TRUE(store.Write(*second, 5000, ByteSpan(Buffer(100, 0x01))).ok());
  ASSERT_TRUE(
      store.Write(*second, kExtent + 7000, ByteSpan(Buffer(100, 0x02))).ok());
  EXPECT_EQ(store.FreeExtents(), 0u);  // both came off the free list
  ASSERT_TRUE(store.Truncate(*second, 2 * kExtent).ok());
  Buffer expect(2 * kExtent, 0);
  std::fill_n(At(expect, 5000), 100, 0x01);
  std::fill_n(At(expect, kExtent + 7000), 100, 0x02);
  EXPECT_TRUE(ReadBoth(store, *second, 0, expect.size()) == expect);
}

TEST(MemObjectStoreTest, FreeListIsBounded) {
  MemObjectStore store;
  auto oid = store.Create(ContainerId{1});
  ASSERT_TRUE(oid.ok());
  // One byte per extent allocates it while touching a single page.
  for (std::uint64_t i = 0; i < MemObjectStore::kMaxFreeExtents + 3; ++i) {
    ASSERT_TRUE(store.Write(*oid, i * kExtent, ByteSpan(Buffer{7})).ok());
  }
  ASSERT_TRUE(store.Remove(*oid).ok());
  EXPECT_EQ(store.FreeExtents(), MemObjectStore::kMaxFreeExtents);
}

TEST(MemObjectStoreTest, GatheredReadSliceCarriesTheCrcOfItsBytes) {
  MemObjectStore store;
  auto oid = store.Create(ContainerId{1});
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(
      store.Write(*oid, kExtent / 2, ByteSpan(PatternBuffer(kExtent, 6))).ok());
  ASSERT_TRUE(
      store.Write(*oid, 3 * kExtent, ByteSpan(PatternBuffer(kExtent / 4, 7)))
          .ok());
  // One gather over written bytes, an undefined extent tail, a hole and a
  // second written extent.
  auto slice = store.ReadSlice(*oid, 1000, 3 * kExtent);
  ASSERT_TRUE(slice.ok());
  ASSERT_EQ(slice->size(), 3 * kExtent);
  ASSERT_TRUE(slice->has_cached_crc());
  EXPECT_EQ(slice->cached_crc(), Crc32(slice->span()));
}

// Readers gather across extents while another thread churns objects through
// the free list; under TSan this checks that the store mutex guards both.
TEST(MemObjectStoreTest, ConcurrentGathersAndRecyclingAreRaceFree) {
  MemObjectStore store;
  auto oid = store.Create(ContainerId{1});
  ASSERT_TRUE(oid.ok());
  const Buffer data = PatternBuffer(3 * kExtent, 8);
  ASSERT_TRUE(store.Write(*oid, 0, ByteSpan(data)).ok());
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 10; ++i) {
        const auto offset =
            static_cast<std::uint64_t>(t * 7919 + i * 65537) % kExtent;
        auto slice = store.ReadSlice(*oid, offset, 2 * kExtent);
        if (!slice.ok() || slice->size() != 2 * kExtent ||
            !std::equal(slice->span().begin(), slice->span().end(),
                        At(data, offset)) ||
            slice->cached_crc() != Crc32(slice->span())) {
          failures.fetch_add(1);
        }
      }
    });
  }
  threads.emplace_back([&] {
    const Buffer fill(2 * kExtent + 100, 0x5A);
    for (int i = 0; i < 10; ++i) {
      auto other = store.Create(ContainerId{2});
      if (!other.ok() || !store.Write(*other, 0, ByteSpan(fill)).ok() ||
          !store.Remove(*other).ok()) {
        failures.fetch_add(1);
      }
    }
  });
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(FileObjectStoreTest, PersistsAcrossReopen) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("lwfs_persist_test_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  Buffer data = PatternBuffer(1234, 77);
  ObjectId oid;
  {
    auto store = FileObjectStore::Open(dir.string());
    ASSERT_TRUE(store.ok());
    auto created = (*store)->Create(ContainerId{3});
    ASSERT_TRUE(created.ok());
    oid = *created;
    ASSERT_TRUE((*store)->Write(oid, 0, ByteSpan(data)).ok());
  }
  {
    auto store = FileObjectStore::Open(dir.string());
    ASSERT_TRUE(store.ok());
    EXPECT_EQ((*store)->ObjectCount(), 1u);
    auto back = (*store)->Read(oid, 0, data.size());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, data);
    auto attr = (*store)->GetAttr(oid);
    ASSERT_TRUE(attr.ok());
    EXPECT_EQ(attr->cid, ContainerId{3});
    // Fresh ids must not collide with recovered ones.
    auto fresh = (*store)->Create(ContainerId{3});
    ASSERT_TRUE(fresh.ok());
    EXPECT_NE(*fresh, oid);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace lwfs::storage

// Payload integrity on the write path: the one fused copy+CRC kernel, piece
// checksums, the store's verified write (publish on verify), and the end to
// end property that a corrupt write never becomes readable.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "core/runtime.h"
#include "storage/object_store.h"
#include "test_io.h"
#include "util/buffer_pool.h"
#include "util/crc32.h"
#include "util/shared_buffer.h"

namespace lwfs {
namespace {

constexpr std::uint64_t kExtent = storage::kExtentBytes;

// ---------------------------------------------------------------------------
// The fused kernel
// ---------------------------------------------------------------------------

// Crc32CopyUpdate against memcpy + Crc32 and against the table kernel, at
// the fuse-chunk edges and past several chunks, with both ends misaligned.
TEST(CopyCrcKernelTest, MatchesMemcpyPlusCrcAtEveryEdge) {
  const std::size_t chunk = 128u << 10;
  const std::size_t lengths[] = {0,         1,         7,
                                 chunk - 1, chunk,     chunk + 1,
                                 (3u << 20) + 5};
  constexpr std::size_t kSrcSkew = 3;
  constexpr std::size_t kDstSkew = 5;
  constexpr std::size_t kGuard = 16;
  for (std::size_t n : lengths) {
    SCOPED_TRACE("length " + std::to_string(n));
    const Buffer src_mem = PatternBuffer(n + kSrcSkew, n + 1);
    const std::uint8_t* src = src_mem.data() + kSrcSkew;
    Buffer dst_mem(n + kDstSkew + kGuard, 0xEE);
    std::uint8_t* dst = dst_mem.data() + kDstSkew;

    const std::uint32_t fused =
        Crc32Final(Crc32CopyUpdate(Crc32Init(), dst, src, n));
    EXPECT_EQ(std::memcmp(dst, src, n), 0);
    EXPECT_EQ(fused, Crc32(ByteSpan(src, n)));
    EXPECT_EQ(fused,
              Crc32Final(detail::Crc32UpdateSw(Crc32Init(), src, n)));
    // Nothing outside [dst, dst + n) is touched.
    for (std::size_t i = 0; i < kDstSkew; ++i) EXPECT_EQ(dst_mem[i], 0xEE);
    for (std::size_t i = 0; i < kGuard; ++i) EXPECT_EQ(dst[n + i], 0xEE);

    // State form: it continues a running register like Crc32Update.
    const std::uint32_t seed = 0x12345678u;
    EXPECT_EQ(Crc32CopyUpdate(seed, dst, src, n), Crc32Update(seed, src, n));
  }
}

TEST(CopyCrcKernelTest, ReadPoolGatherCachesTheKernelsCrc) {
  auto pool = util::ReadBufferPool::Create();
  const Buffer a = PatternBuffer((128u << 10) + 3, 1);
  const Buffer b = PatternBuffer(7, 2);
  const ByteSpan parts[] = {ByteSpan(a), ByteSpan(b)};
  util::SharedSlice out = pool->CopyOut(parts, util::CopyKind::kStore);
  Buffer joined = a;
  joined.insert(joined.end(), b.begin(), b.end());
  ASSERT_EQ(out.size(), joined.size());
  EXPECT_TRUE(std::equal(joined.begin(), joined.end(), out.span().begin()));
  ASSERT_TRUE(out.has_cached_crc());
  EXPECT_EQ(out.cached_crc(), Crc32(ByteSpan(joined)));
}

// ---------------------------------------------------------------------------
// Piece checksums
// ---------------------------------------------------------------------------

TEST(PieceCrcTest, PiecesAreCutAtExtentBoundariesOfTheObjectOffset) {
  EXPECT_EQ(storage::PieceCount(0, 0), 0u);
  EXPECT_EQ(storage::PieceCount(0, 1), 1u);
  EXPECT_EQ(storage::PieceCount(0, kExtent), 1u);
  EXPECT_EQ(storage::PieceCount(0, kExtent + 1), 2u);
  EXPECT_EQ(storage::PieceCount(kExtent - 1, 2), 2u);
  EXPECT_EQ(storage::PieceCount(100, 3 * kExtent), 4u);

  const Buffer data = PatternBuffer(3 * kExtent, 9);
  const std::uint64_t offset = 100;
  const auto crcs = storage::PieceCrcs(offset, ByteSpan(data));
  ASSERT_EQ(crcs.size(), 4u);
  EXPECT_EQ(crcs[0], Crc32(ByteSpan(data).first(kExtent - offset)));
  EXPECT_EQ(crcs[3], Crc32(ByteSpan(data).last(offset)));
  EXPECT_EQ(storage::CombinePieceCrcs(offset, data.size(), crcs),
            Crc32(ByteSpan(data)));
}

// ---------------------------------------------------------------------------
// Verified writes: publish on verify
// ---------------------------------------------------------------------------

class VerifiedWriteTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    if (GetParam()) {
      store_ = std::make_unique<storage::MemObjectStore>();
    } else {
      store_ = std::make_unique<storage::BlockObjectStore>(8192, 4096);
    }
    oid_ = store_->Create(storage::ContainerId{1}).value();
  }

  Buffer ReadAll(std::uint64_t n) {
    auto got = store_->Read(oid_, 0, n);
    EXPECT_TRUE(got.ok());
    return got.ok() ? *got : Buffer{};
  }

  std::unique_ptr<storage::ObjectStore> store_;
  storage::ObjectId oid_{};
};

TEST_P(VerifiedWriteTest, MatchingPiecesLandAsOneWrite) {
  // Unaligned: a partial piece, two whole extents and a partial tail.
  const std::uint64_t offset = kExtent - 4096;
  const Buffer data = PatternBuffer(2 * kExtent + 8192, 3);
  const auto crcs = storage::PieceCrcs(offset, ByteSpan(data));
  ASSERT_EQ(crcs.size(), 4u);
  const util::SharedSlice slice =
      util::SharedSlice::FromBuffer(Buffer(data));
  ASSERT_TRUE(store_->WriteVerified(oid_, offset, slice, crcs).ok());
  const Buffer back = ReadAll(offset + data.size());
  EXPECT_TRUE(std::all_of(back.begin(), back.begin() + offset,
                          [](std::uint8_t b) { return b == 0; }));
  EXPECT_TRUE(std::equal(data.begin(), data.end(), back.begin() + offset));
  EXPECT_EQ(store_->GetAttr(oid_)->version, 1u);

  // The single-checksum form (a chain hop's or a repair's claim).
  const std::uint32_t whole = Crc32(ByteSpan(data));
  ASSERT_TRUE(store_->WriteVerified(oid_, offset, slice, {&whole, 1}).ok());
  EXPECT_EQ(store_->GetAttr(oid_)->version, 2u);
}

TEST_P(VerifiedWriteTest, ABadPieceLandsNothingOfThePayload) {
  const Buffer old_bytes(4 * kExtent, 0xAA);
  ASSERT_TRUE(store_->Write(oid_, 0, ByteSpan(old_bytes)).ok());
  const storage::ObjAttr before = store_->GetAttr(oid_).value();

  // New bytes over extents 0..3 plus a partial fifth; the third piece's
  // bytes were flipped in flight after the client checksummed them.
  const std::uint64_t offset = 0;
  Buffer sent(4 * kExtent + 512, 0xBB);
  const auto crcs = storage::PieceCrcs(offset, ByteSpan(sent));
  sent[2 * kExtent + 77] ^= 0x01;
  const util::SharedSlice slice = util::SharedSlice::FromBuffer(Buffer(sent));
  EXPECT_EQ(store_->WriteVerified(oid_, offset, slice, crcs).code(),
            ErrorCode::kDataLoss);
  const std::uint32_t whole = Crc32(ByteSpan(Buffer(sent.size(), 0xBB)));
  EXPECT_EQ(store_->WriteVerified(oid_, offset, slice, {&whole, 1}).code(),
            ErrorCode::kDataLoss);

  EXPECT_EQ(ReadAll(old_bytes.size() + 4096), old_bytes);
  const storage::ObjAttr after = store_->GetAttr(oid_).value();
  EXPECT_EQ(after.size, before.size);
  EXPECT_EQ(after.version, before.version);

  // A checksum list that is neither per piece nor one is refused.
  const std::uint32_t two[] = {1, 2};
  EXPECT_EQ(store_->WriteVerified(oid_, offset, slice, two).code(),
            ErrorCode::kInvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(Stores, VerifiedWriteTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Memory" : "Block";
                         });

TEST(MemVerifiedWriteTest, RefusedExtentsGoBackToTheFreeList) {
  storage::MemObjectStore store;
  const auto oid = store.Create(storage::ContainerId{1}).value();
  const Buffer old_bytes(2 * kExtent, 0x11);
  ASSERT_TRUE(store.Write(oid, 0, ByteSpan(old_bytes)).ok());
  Buffer sent(2 * kExtent, 0x22);
  const auto crcs = storage::PieceCrcs(0, ByteSpan(sent));
  sent[5] ^= 0x80;
  EXPECT_EQ(store.WriteVerified(oid, 0,
                                util::SharedSlice::FromBuffer(std::move(sent)),
                                crcs)
                .code(),
            ErrorCode::kDataLoss);
  EXPECT_EQ(store.FreeExtents(), 2u);
  EXPECT_EQ(*store.Read(oid, 0, old_bytes.size()), old_bytes);

  // A good overwrite takes those extents and retires the ones it replaces.
  const Buffer fresh(2 * kExtent, 0x33);
  ASSERT_TRUE(store.WriteVerified(oid, 0,
                                  util::SharedSlice::FromBuffer(Buffer(fresh)),
                                  storage::PieceCrcs(0, ByteSpan(fresh)))
                  .ok());
  EXPECT_EQ(store.FreeExtents(), 2u);
  EXPECT_EQ(*store.Read(oid, 0, fresh.size()), fresh);
}

// Whole-extent pieces are copied outside the store lock and published
// under it: a concurrent reader sees each extent all old or all new.
TEST(MemVerifiedWriteTest, ReadersNeverSeeAHalfCopiedExtent) {
  storage::MemObjectStore store;
  const auto oid = store.Create(storage::ContainerId{1}).value();
  const Buffer a(2 * kExtent, 0x5A);
  const Buffer b(2 * kExtent, 0xA5);
  ASSERT_TRUE(store.Write(oid, 0, ByteSpan(a)).ok());
  const util::SharedSlice slices[] = {
      util::SharedSlice::FromBuffer(Buffer(a)),
      util::SharedSlice::FromBuffer(Buffer(b))};
  const std::vector<std::uint32_t> crcs[] = {
      storage::PieceCrcs(0, ByteSpan(a)), storage::PieceCrcs(0, ByteSpan(b))};

  std::atomic<bool> done{false};
  std::atomic<int> torn{0};
  std::thread reader([&] {
    while (!done.load()) {
      auto got = store.ReadSlice(oid, 0, 2 * kExtent);
      if (!got.ok()) continue;
      for (std::uint64_t e = 0; e < 2; ++e) {
        const ByteSpan ext = got->span().subspan(e * kExtent, kExtent);
        const std::uint8_t first = ext.front();
        if ((first != 0x5A && first != 0xA5) ||
            !std::all_of(ext.begin(), ext.end(),
                         [first](std::uint8_t x) { return x == first; })) {
          torn.fetch_add(1);
        }
      }
    }
  });
  for (int i = 0; i < 40; ++i) {
    EXPECT_TRUE(
        store.WriteVerified(oid, 0, slices[i % 2], crcs[i % 2]).ok());
  }
  done.store(true);
  reader.join();
  EXPECT_EQ(torn.load(), 0);
}

// ---------------------------------------------------------------------------
// End to end: a corrupt write never becomes readable
// ---------------------------------------------------------------------------

class CorruptWriteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::RuntimeOptions options;
    options.storage_servers = 1;
    options.client_options.max_retransmits = 0;
    runtime_ = core::ServiceRuntime::Start(options).value();
    runtime_->AddUser("u", "p", 1);
    client_ = runtime_->MakeClient();
    auto cred = client_->Login("u", "p").value();
    auto cid = client_->CreateContainer(cred).value();
    cap_ = client_->GetCap(cred, cid, security::kOpAll).value();
    oid_ = client_->CreateObject(0, cap_).value();
  }

  /// Write `data` at 0 while everything the server sends the client —
  /// its pulls of the payload among it — arrives with a flipped byte.
  Status WriteThroughCorruptLink(const Buffer& data) {
    auto& injector = runtime_->fabric().injector();
    injector.SetLink(runtime_->deployment().storage[0], client_->nid(),
                     portals::FaultSpec{.corrupt = 1.0});
    Status s = client_->WriteObject(0, cap_, oid_, 0, ByteSpan(data));
    injector.ClearFaults();
    return s;
  }

  std::unique_ptr<core::ServiceRuntime> runtime_;
  std::unique_ptr<core::Client> client_;
  security::Capability cap_;
  storage::ObjectId oid_{};
};

TEST_F(CorruptWriteTest, PartialExtentWriteLeavesTheOldBytes) {
  const Buffer old_bytes(64 << 10, 0xAA);
  ASSERT_TRUE(client_->WriteObject(0, cap_, oid_, 0, ByteSpan(old_bytes)).ok());
  EXPECT_EQ(WriteThroughCorruptLink(Buffer(64 << 10, 0xBB)).code(),
            ErrorCode::kDataLoss);
  auto back = testio::ReadObjectBytes(*client_, 0, cap_, oid_, 0,
                                      old_bytes.size());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, old_bytes) << "a byte no write put there was readable";
}

TEST_F(CorruptWriteTest, WholeExtentWriteReadsOldOrNewPieceByPiece) {
  const Buffer old_bytes = PatternBuffer(4 * kExtent, 21);
  const Buffer new_bytes = PatternBuffer(4 * kExtent, 22);
  ASSERT_TRUE(client_->WriteObject(0, cap_, oid_, 0, ByteSpan(old_bytes)).ok());
  EXPECT_EQ(WriteThroughCorruptLink(new_bytes).code(), ErrorCode::kDataLoss);
  auto back = testio::ReadObjectBytes(*client_, 0, cap_, oid_, 0,
                                      old_bytes.size());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->size(), old_bytes.size());
  for (std::uint64_t piece = 0; piece < 4; ++piece) {
    const auto at = static_cast<std::ptrdiff_t>(piece * kExtent);
    const auto len = static_cast<std::ptrdiff_t>(kExtent);
    const bool is_old = std::equal(back->begin() + at, back->begin() + at + len,
                                   old_bytes.begin() + at);
    const bool is_new = std::equal(back->begin() + at, back->begin() + at + len,
                                   new_bytes.begin() + at);
    EXPECT_TRUE(is_old || is_new) << "piece " << piece << " is torn";
  }
}

// ---------------------------------------------------------------------------
// Checksum passes per byte
// ---------------------------------------------------------------------------

// A slice write streams its bytes through one standalone CRC, on the
// client; the server checks them inside its store copy, so it runs none.
// A slice read runs none on either side.
TEST(ChecksumPassTest, SliceWriteChecksumsOnceOnTheClientOnly) {
  if (!util::CopyStats::Enabled()) {
    GTEST_SKIP() << "built without LWFS_COUNT_COPIES";
  }
  core::RuntimeOptions options;
  options.storage_servers = 1;
  auto runtime = core::ServiceRuntime::Start(options).value();
  runtime->AddUser("u", "p", 1);
  auto client = runtime->MakeClient();
  auto cred = client->Login("u", "p").value();
  auto cid = client->CreateContainer(cred).value();
  auto cap = client->GetCap(cred, cid, security::kOpAll).value();
  auto oid = client->CreateObject(0, cap).value();

  const std::size_t n = 4 * kExtent;
  const util::SharedSlice payload =
      util::SharedSlice::FromBuffer(PatternBuffer(n, 5));
  util::CopySnapshot base = util::CopyStats::Snapshot();
  ASSERT_TRUE(testio::WriteObjectSlice(*client, 0, cap, oid, 0, payload).ok());
  util::CopySnapshot d = util::CopyStats::Snapshot().Since(base);
  EXPECT_EQ(d.crc_bytes_of(util::CrcSide::kClient), n);
  EXPECT_EQ(d.crc_bytes_of(util::CrcSide::kServer), 0u);

  base = util::CopyStats::Snapshot();
  auto back = testio::ReadObjectSlice(*client, 0, cap, oid, 0, n);
  ASSERT_TRUE(back.ok());
  d = util::CopyStats::Snapshot().Since(base);
  EXPECT_EQ(d.crc_bytes_of(util::CrcSide::kClient), 0u);
  EXPECT_EQ(d.crc_bytes_of(util::CrcSide::kServer), 0u);
}

}  // namespace
}  // namespace lwfs

// SharedSlice / Frame / CopyStats unit tests: the ownership and aliasing
// rules the zero-copy data path depends on.  Lifetime tests deliberately
// drop parents before touching children — ASan runs catch any slice that
// fails to keep its bytes alive, and the concurrent test gives TSan real
// cross-thread refcount traffic.
#include <algorithm>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/buffer_pool.h"
#include "util/bytes.h"
#include "util/crc32.h"
#include "util/shared_buffer.h"

namespace lwfs::util {
namespace {

Buffer MakeBytes(std::size_t n, std::uint8_t seed = 1) {
  Buffer b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>(seed + i * 7);
  }
  return b;
}

TEST(SharedSlice, FromBufferAdoptsWithoutCopying) {
  Buffer b = MakeBytes(64);
  const std::uint8_t* raw = b.data();
  const CopySnapshot before = CopyStats::Snapshot();
  SharedSlice s = SharedSlice::FromBuffer(std::move(b));
  const CopySnapshot delta = CopyStats::Snapshot().Since(before);
  EXPECT_EQ(s.data(), raw);  // same storage: adopted, not copied
  EXPECT_TRUE(s.owned());
  for (int i = 0; i < kCopyKinds; ++i) EXPECT_EQ(delta.copies[i], 0u);
}

TEST(SharedSlice, SubSliceKeepsParentBufferAlive) {
  SharedSlice child;
  {
    SharedSlice parent = SharedSlice::FromBuffer(MakeBytes(256));
    child = parent.Slice(100, 50);
    EXPECT_EQ(child.use_count(), 2);
  }  // parent handle gone; child must still pin the buffer
  EXPECT_EQ(child.use_count(), 1);
  ASSERT_EQ(child.size(), 50u);
  const Buffer expect = MakeBytes(256);
  EXPECT_EQ(0, std::memcmp(child.data(), expect.data() + 100, 50));
}

TEST(SharedSlice, SliceClampsOutOfRangeBounds) {
  SharedSlice s = SharedSlice::FromBuffer(MakeBytes(10));
  EXPECT_EQ(s.Slice(4, 100).size(), 6u);   // length clamped
  EXPECT_EQ(s.Slice(50, 10).size(), 0u);   // offset clamped to end
  EXPECT_EQ(s.Slice(10, 0).size(), 0u);
}

TEST(SharedSlice, ExternalSliceIsBorrowedNotOwned) {
  Buffer b = MakeBytes(32);
  SharedSlice s = SharedSlice::External(ByteSpan(b));
  EXPECT_FALSE(s.owned());
  EXPECT_EQ(s.data(), b.data());
  // Sub-slices of an external slice are external too.
  EXPECT_FALSE(s.Slice(1, 4).owned());
}

TEST(SharedSlice, CopyAndToBufferAreCounted) {
  if (!CopyStats::Enabled()) GTEST_SKIP() << "built without LWFS_COUNT_COPIES";
  Buffer b = MakeBytes(128);
  const CopySnapshot before = CopyStats::Snapshot();
  SharedSlice s = SharedSlice::Copy(ByteSpan(b), CopyKind::kStage);
  Buffer back = s.ToBuffer(CopyKind::kDeliver);
  const CopySnapshot delta = CopyStats::Snapshot().Since(before);
  EXPECT_EQ(delta.copies_of(CopyKind::kStage), 1u);
  EXPECT_EQ(delta.bytes_of(CopyKind::kStage), 128u);
  EXPECT_EQ(delta.copies_of(CopyKind::kDeliver), 1u);
  EXPECT_EQ(delta.bytes_of(CopyKind::kDeliver), 128u);
  EXPECT_EQ(back, b);
  EXPECT_EQ(delta.budget_bytes(), 128u);  // only kStage counts against budget
}

TEST(SharedSlice, DecodedSliceOutlivesDecoderAndSource) {
  SharedSlice decoded;
  {
    Encoder enc;
    enc.PutU32(7);
    enc.PutSlice(SharedSlice::FromBuffer(MakeBytes(40, 9)));
    SharedSlice wire = SharedSlice::FromBuffer(std::move(enc).Take());
    {
      Decoder dec(wire);
      ASSERT_TRUE(dec.GetU32().ok());
      auto taken = dec.TakeSlice();
      ASSERT_TRUE(taken.ok());
      decoded = *taken;
      // Zero-copy: the decoded slice aliases the wire frame's storage.
      EXPECT_EQ(decoded.owner().get(), wire.owner().get());
    }  // decoder gone
  }  // wire handle gone; decoded still pins the frame
  ASSERT_EQ(decoded.size(), 40u);
  const Buffer expect = MakeBytes(40, 9);
  EXPECT_EQ(0, std::memcmp(decoded.data(), expect.data(), 40));
}

TEST(SharedSlice, TakeSliceFromUnownedInputFallsBackToCopy) {
  Encoder enc;
  enc.PutSlice(SharedSlice::FromBuffer(MakeBytes(16)));
  Buffer wire = std::move(enc).Take();
  Decoder dec(wire);  // plain span: no owner
  auto taken = dec.TakeSlice();
  ASSERT_TRUE(taken.ok());
  EXPECT_TRUE(taken->owned());  // safe to hold: copied, not aliased
  EXPECT_NE(static_cast<const void*>(taken->data()),
            static_cast<const void*>(wire.data() + 4));
}

TEST(SharedSlice, TakeSliceRejectsTruncatedInput) {
  Encoder enc;
  enc.PutU32(100);  // claims 100 payload bytes that are not there
  Buffer wire = std::move(enc).Take();
  Decoder dec(wire);
  EXPECT_FALSE(dec.TakeSlice().ok());
}

TEST(SharedSlice, ConcurrentCopyAndDropIsRaceFree) {
  // Refcount churn from many threads against one buffer: TSan checks the
  // control-block traffic, ASan checks nobody touches freed bytes.
  SharedSlice root = SharedSlice::FromBuffer(MakeBytes(4096));
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&root, t] {
      for (int i = 0; i < 1000; ++i) {
        SharedSlice local = root.Slice(static_cast<std::size_t>(t) * 16,
                                       static_cast<std::size_t>(i % 64));
        SharedSlice copy = local;
        volatile std::size_t touch = copy.size();
        (void)touch;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(root.use_count(), 1);
}

TEST(Crc32, MatchesKnownCastagnoliVector) {
  // The canonical CRC32-C check value: crc32c("123456789") = 0xE3069283.
  // Pins the polynomial so the table fallback and the SSE4.2 instruction
  // can never drift apart silently.
  const char* s = "123456789";
  EXPECT_EQ(
      lwfs::Crc32(ByteSpan(reinterpret_cast<const std::uint8_t*>(s), 9)),
      0xE3069283u);
}

#ifdef LWFS_CRC32_HW
// The 3-stream kernel against the slicing-by-8 table at every length through
// three long blocks plus a short-block tail, from every start alignment, and
// at 1 MiB.  The table's CRC of each prefix extends the previous one by a
// byte, so the sweep is linear in the reference.
TEST(Crc32, HardwareAndTableFallbackAgree) {
  if (!lwfs::detail::Crc32HwAvailable()) GTEST_SKIP() << "no SSE4.2";
  constexpr std::size_t kMaxLen = 3 * 8192 + 1024;
  const Buffer b = PatternBuffer((1u << 20) + 8, 13);
  for (std::size_t start = 0; start < 8; ++start) {
    const std::uint8_t* p = b.data() + start;
    std::uint32_t sw = lwfs::Crc32Init();
    for (std::size_t n = 0; n <= kMaxLen; ++n) {
      ASSERT_EQ(lwfs::detail::Crc32UpdateHw(lwfs::Crc32Init(), p, n), sw)
          << "start " << start << " length " << n;
      sw = lwfs::detail::Crc32UpdateSw(sw, p + n, 1);
    }
    EXPECT_EQ(lwfs::detail::Crc32UpdateHw(lwfs::Crc32Init(), p, 1u << 20),
              lwfs::detail::Crc32UpdateSw(lwfs::Crc32Init(), p, 1u << 20))
        << "start " << start << " length 1 MiB";
  }
}
#endif

// Streaming a buffer in pieces gives the one-shot CRC whatever the split;
// the piece sizes cross different mixes of long-block, short-block and
// tail paths.
TEST(Crc32, ChainedUpdatesMatchOneShotAtArbitrarySplits) {
  const Buffer b = PatternBuffer(200000, 21);
  const std::uint32_t whole = lwfs::Crc32(ByteSpan(b));
  for (std::size_t step : {1u, 255u, 769u, 8191u, 24577u, 65536u, 100003u}) {
    std::uint32_t crc = lwfs::Crc32Init();
    for (std::size_t off = 0; off < b.size(); off += step) {
      crc = lwfs::Crc32Update(crc, b.data() + off,
                              std::min(step, b.size() - off));
    }
    EXPECT_EQ(lwfs::Crc32Final(crc), whole) << "step " << step;
  }
}

TEST(Crc32, CombineMatchesDirectConcatenation) {
  Buffer all = MakeBytes(50000, 9);
  for (std::size_t split : {0u, 1u, 3u, 255u, 4096u, 49999u, 50000u}) {
    const std::uint32_t a = lwfs::Crc32(ByteSpan(all.data(), split));
    const std::uint32_t b =
        lwfs::Crc32(ByteSpan(all.data() + split, all.size() - split));
    EXPECT_EQ(lwfs::Crc32Combine(a, b, all.size() - split),
              lwfs::Crc32(ByteSpan(all)))
        << "split " << split;
  }
}

TEST(SharedSlice, CachedCrcSurvivesFullRangeSliceOnly) {
  Buffer b = MakeBytes(256, 4);
  const std::uint32_t crc = lwfs::Crc32(ByteSpan(b));
  SharedSlice s = SharedSlice::FromBuffer(std::move(b));
  EXPECT_FALSE(s.has_cached_crc());
  s.SetCachedCrc(crc);
  ASSERT_TRUE(s.has_cached_crc());
  // Copies and full-range sub-slices are the same bytes: cache survives.
  SharedSlice copy = s;
  EXPECT_TRUE(copy.has_cached_crc());
  EXPECT_EQ(copy.cached_crc(), crc);
  EXPECT_TRUE(s.Slice(0, 256).has_cached_crc());
  EXPECT_TRUE(s.Slice(0, 10000).has_cached_crc());  // clamped to full range
  // A proper sub-range covers different bytes: cache must drop.
  EXPECT_FALSE(s.Slice(1, 255).has_cached_crc());
  EXPECT_FALSE(s.Slice(0, 255).has_cached_crc());
}

TEST(Frame, CrcUsesCachedSliceCrcWhenPresent) {
  Buffer payload = MakeBytes(20000, 6);
  const std::uint32_t payload_crc = lwfs::Crc32(ByteSpan(payload));

  // A frame whose bulk part carries a correct cached CRC must checksum
  // identically to one whose part streams — combine is an optimization,
  // not a different answer.
  FrameBuilder fb1;
  fb1.header().PutU32(7);
  SharedSlice cached = SharedSlice::FromBuffer(Buffer(payload));
  cached.SetCachedCrc(payload_crc);
  fb1.Append(std::move(cached));
  fb1.header().PutU64(11);
  Frame with_cache = fb1.Build(/*with_crc_trailer=*/false);

  Buffer flat = with_cache.Flatten();
  EXPECT_EQ(with_cache.Crc(), Crc32(ByteSpan(flat)));

  // And the cached value is really being consulted: poisoning it changes
  // the frame CRC.
  FrameBuilder fb2;
  fb2.header().PutU32(7);
  SharedSlice poisoned = SharedSlice::FromBuffer(Buffer(payload));
  poisoned.SetCachedCrc(payload_crc ^ 0xDEADBEEFu);
  fb2.Append(std::move(poisoned));
  fb2.header().PutU64(11);
  Frame with_poison = fb2.Build(/*with_crc_trailer=*/false);
  EXPECT_NE(with_poison.Crc(), Crc32(ByteSpan(flat)));
}

TEST(Frame, CrcMatchesFlattenedBytes) {
  FrameBuilder fb;
  fb.header().PutU32(42);
  fb.header().PutString("hdr");
  fb.Append(SharedSlice::FromBuffer(MakeBytes(100, 3)));
  fb.header().PutU64(7);
  Frame frame = fb.Build(/*with_crc_trailer=*/false);
  Buffer flat = frame.Flatten();
  EXPECT_EQ(frame.total_bytes, flat.size());
  EXPECT_EQ(frame.Crc(), Crc32(ByteSpan(flat)));
}

TEST(Frame, CrcTrailerCoversPrecedingParts) {
  FrameBuilder fb;
  fb.header().PutU32(1);
  fb.Append(SharedSlice::FromBuffer(MakeBytes(33, 5)));
  Frame frame = fb.Build(/*with_crc_trailer=*/true);
  Buffer flat = frame.Flatten();
  ASSERT_GE(flat.size(), 4u);
  const ByteSpan body(flat.data(), flat.size() - 4);
  const std::uint32_t crc = Crc32(body);
  EXPECT_EQ(flat[flat.size() - 4], static_cast<std::uint8_t>(crc & 0xFF));
  EXPECT_EQ(flat[flat.size() - 3],
            static_cast<std::uint8_t>((crc >> 8) & 0xFF));
  EXPECT_EQ(flat[flat.size() - 2],
            static_cast<std::uint8_t>((crc >> 16) & 0xFF));
  EXPECT_EQ(flat[flat.size() - 1],
            static_cast<std::uint8_t>((crc >> 24) & 0xFF));
}

TEST(Frame, BuilderConcatenationMatchesManualLayout) {
  // The server's reply assembly depends on segments + parts concatenating
  // to the same bytes a contiguous Encoder would have produced.
  Buffer body = MakeBytes(50, 11);

  FrameBuilder fb;
  fb.header().PutU32(0);
  fb.header().PutString("ok");
  fb.header().PutU32(static_cast<std::uint32_t>(body.size()));
  fb.Append(SharedSlice::FromBuffer(Buffer(body)));
  fb.header().PutU32(0xDEADBEEF);
  Buffer flat = fb.Build().Flatten();

  Encoder ref;
  ref.PutU32(0);
  ref.PutString("ok");
  ref.PutU32(static_cast<std::uint32_t>(body.size()));
  ref.PutRaw(ByteSpan(body));
  ref.PutU32(0xDEADBEEF);
  EXPECT_EQ(flat, std::move(ref).Take());
}

TEST(Frame, PayloadPartsRideByReference) {
  SharedSlice payload = SharedSlice::FromBuffer(MakeBytes(1 << 16));
  const std::uint8_t* raw = payload.data();
  FrameBuilder fb;
  fb.header().PutU32(1);
  fb.Append(payload);
  Frame frame = fb.Build(/*with_crc_trailer=*/true);
  bool found = false;
  for (const SharedSlice& p : frame.parts) {
    if (p.data() == raw) found = true;
  }
  EXPECT_TRUE(found) << "payload was copied into the frame";
}

TEST(ReadBufferPool, CopyOutAttachesBytesAndCrc) {
  auto pool = ReadBufferPool::Create();
  Buffer src = MakeBytes(4096, 8);
  SharedSlice s = pool->CopyOut(ByteSpan(src), CopyKind::kStore);
  ASSERT_EQ(s.size(), src.size());
  EXPECT_TRUE(s.owned());
  EXPECT_EQ(0, std::memcmp(s.data(), src.data(), src.size()));
  ASSERT_TRUE(s.has_cached_crc());
  EXPECT_EQ(s.cached_crc(), lwfs::Crc32(ByteSpan(src)));
}

TEST(ReadBufferPool, BlocksRecycleAfterLastReferenceDrops) {
  auto pool = ReadBufferPool::Create();
  Buffer src = MakeBytes(2048, 2);
  const std::uint8_t* first_block = nullptr;
  {
    SharedSlice s = pool->CopyOut(ByteSpan(src), CopyKind::kStore);
    first_block = s.data();
    EXPECT_EQ(pool->retained_bytes(), 0u);  // block is out on loan
  }
  EXPECT_EQ(pool->retained_bytes(), 2048u);  // returned on release
  SharedSlice again = pool->CopyOut(ByteSpan(src), CopyKind::kStore);
  EXPECT_EQ(again.data(), first_block);  // same block, warm pages
  EXPECT_EQ(pool->retained_bytes(), 0u);
}

TEST(ReadBufferPool, SliceKeepsPoolAliveAfterCreatorDropsIt) {
  Buffer src = MakeBytes(512, 3);
  SharedSlice s;
  {
    auto pool = ReadBufferPool::Create();
    s = pool->CopyOut(ByteSpan(src), CopyKind::kStore);
  }
  // The pool handle is gone; the slice's owner holds the pool.  ASan
  // validates the bytes are still live.
  EXPECT_EQ(0, std::memcmp(s.data(), src.data(), src.size()));
  s = SharedSlice();  // final release returns the block, then the pool dies
}

TEST(ReadBufferPool, RetainedBytesRespectTheBound) {
  auto pool = ReadBufferPool::Create(/*max_retained_bytes=*/4096);
  Buffer src = MakeBytes(4096, 1);
  SharedSlice a = pool->CopyOut(ByteSpan(src), CopyKind::kStore);
  SharedSlice b = pool->CopyOut(ByteSpan(src), CopyKind::kStore);
  a = SharedSlice();
  b = SharedSlice();
  // Only one block fits under the bound; the second release frees.
  EXPECT_EQ(pool->retained_bytes(), 4096u);
}

TEST(ReadBufferPool, SmallReadLeavesALargeBlockForTheNextLargeRead) {
  auto pool = ReadBufferPool::Create();
  const Buffer big = PatternBuffer(1 << 20, 6);
  (void)pool->CopyOut(ByteSpan(big), CopyKind::kStore);  // retire 1 MiB
  ASSERT_EQ(pool->retained_bytes(), std::size_t{1} << 20);
  const Buffer small = PatternBuffer(100, 7);
  SharedSlice tiny = pool->CopyOut(ByteSpan(small), CopyKind::kStore);
  EXPECT_EQ(pool->retained_bytes(), std::size_t{1} << 20);  // not taken
  SharedSlice again = pool->CopyOut(ByteSpan(big), CopyKind::kStore);
  EXPECT_EQ(pool->retained_bytes(), 0u);  // the bulk read reuses it
  EXPECT_EQ(again.ToBuffer(CopyKind::kDeliver), big);
}

TEST(ReadBufferPool, LargeReleaseEvictsSmallerRetainedBlocks) {
  auto pool = ReadBufferPool::Create(/*max_retained_bytes=*/4096);
  const Buffer small = MakeBytes(100, 8);
  const Buffer big = MakeBytes(4096, 9);
  SharedSlice s = pool->CopyOut(ByteSpan(small), CopyKind::kStore);
  SharedSlice b = pool->CopyOut(ByteSpan(big), CopyKind::kStore);
  s = SharedSlice();
  EXPECT_EQ(pool->retained_bytes(), 100u);
  b = SharedSlice();  // evicts the small block to make room
  EXPECT_EQ(pool->retained_bytes(), 4096u);
}

TEST(ReadBufferPool, GatherCopyOutIsOneCopyWithOneCrc) {
  auto pool = ReadBufferPool::Create();
  const Buffer a = MakeBytes(1000, 1);
  const Buffer b = PatternBuffer(300000, 2);  // spans several fused chunks
  const Buffer c = MakeBytes(7, 3);
  const ByteSpan parts[] = {ByteSpan(a), ByteSpan(b), ByteSpan(c)};
  const CopySnapshot before = CopyStats::Snapshot();
  SharedSlice s = pool->CopyOut(parts, CopyKind::kStore);
  const CopySnapshot delta = CopyStats::Snapshot().Since(before);
  Buffer flat = a;
  flat.insert(flat.end(), b.begin(), b.end());
  flat.insert(flat.end(), c.begin(), c.end());
  ASSERT_EQ(s.size(), flat.size());
  EXPECT_TRUE(std::equal(flat.begin(), flat.end(), s.span().begin()));
  ASSERT_TRUE(s.has_cached_crc());
  EXPECT_EQ(s.cached_crc(), lwfs::Crc32(ByteSpan(flat)));
  if (CopyStats::Enabled()) {
    EXPECT_EQ(delta.copies_of(CopyKind::kStore), 1u);
    EXPECT_EQ(delta.bytes_of(CopyKind::kStore), flat.size());
  }
}

TEST(ReadBufferPool, CrossThreadReleaseReturnsTheBlock) {
  auto pool = ReadBufferPool::Create();
  Buffer src = MakeBytes(1024, 5);
  SharedSlice s = pool->CopyOut(ByteSpan(src), CopyKind::kStore);
  std::thread releaser([moved = std::move(s)]() mutable {
    moved = SharedSlice();
  });
  releaser.join();
  EXPECT_EQ(pool->retained_bytes(), 1024u);
}

TEST(Encoder, ReservePreservesContentsAndGrowsCapacity) {
  Encoder enc;
  enc.PutU32(123);
  enc.Reserve(1 << 20);
  EXPECT_GE(enc.buffer().capacity(), (1u << 20));
  enc.PutRaw(ByteSpan(MakeBytes(8)));
  Buffer out = std::move(enc).Take();
  Decoder dec(out);
  auto v = dec.GetU32();
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 123u);
  EXPECT_EQ(dec.remaining(), 8u);
}

}  // namespace
}  // namespace lwfs::util

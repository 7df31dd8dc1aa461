// Tests for the high-level I/O library: datasets/hyperslabs, two-phase
// collective writes, data sieving, and prefetching.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/runtime.h"
#include "libio/collective.h"
#include "libio/dataset.h"
#include "libio/prefetch.h"
#include "libio/sieve.h"
#include "util/rng.h"
#include "test_io.h"

namespace lwfs::io {
namespace {

class LibIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::RuntimeOptions options;
    options.storage_servers = 4;
    runtime_ = core::ServiceRuntime::Start(options).value();
    runtime_->AddUser("u", "p", 1);
    client_ = runtime_->MakeClient();
    auto cred = client_->Login("u", "p").value();
    auto cid = client_->CreateContainer(cred).value();
    cap_ = client_->GetCap(cred, cid, security::kOpAll).value();
    fs::FsOptions fs_options;
    fs_options.consistency = fs::FsConsistency::kRelaxed;
    fs_options.stripe_size = 4096;
    fs_ = fs::LwfsFs::Mount(client_.get(), cap_, "/io", fs_options).value();
  }

  std::unique_ptr<core::ServiceRuntime> runtime_;
  std::unique_ptr<core::Client> client_;
  security::Capability cap_;
  std::unique_ptr<fs::LwfsFs> fs_;
};

// ---- MapHyperslab (pure) -------------------------------------------------------

TEST(MapHyperslabTest, FullArrayIsOneRun) {
  DatasetSpec spec{{4, 6}, 8};
  std::uint64_t start[] = {0, 0};
  std::uint64_t count[] = {4, 6};
  auto runs = MapHyperslab(spec, start, count).value();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].file_offset, 0u);
  EXPECT_EQ(runs[0].length, 4u * 6 * 8);
}

TEST(MapHyperslabTest, RowSliceIsOneRunPerRow) {
  DatasetSpec spec{{4, 6}, 8};
  std::uint64_t start[] = {1, 2};
  std::uint64_t count[] = {2, 3};
  auto runs = MapHyperslab(spec, start, count).value();
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].file_offset, (1 * 6 + 2) * 8u);
  EXPECT_EQ(runs[0].length, 3u * 8);
  EXPECT_EQ(runs[1].file_offset, (2 * 6 + 2) * 8u);
}

TEST(MapHyperslabTest, ThreeDeeFoldsFullTrailingDims) {
  DatasetSpec spec{{3, 4, 5}, 4};
  std::uint64_t start[] = {1, 0, 0};
  std::uint64_t count[] = {2, 4, 5};  // full planes
  auto runs = MapHyperslab(spec, start, count).value();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].file_offset, 1u * 4 * 5 * 4);
  EXPECT_EQ(runs[0].length, 2u * 4 * 5 * 4);
}

TEST(MapHyperslabTest, ErrorsAndEdges) {
  DatasetSpec spec{{4, 6}, 8};
  std::uint64_t start[] = {3, 0};
  std::uint64_t count[] = {2, 6};
  EXPECT_EQ(MapHyperslab(spec, start, count).status().code(),
            ErrorCode::kOutOfRange);
  std::uint64_t zero[] = {0, 0};
  EXPECT_TRUE(MapHyperslab(spec, zero, zero)->empty());
  std::uint64_t short_rank[] = {0};
  EXPECT_FALSE(
      MapHyperslab(spec, short_rank, std::span<const std::uint64_t>(short_rank, 1))
          .ok());
}

TEST(MapHyperslabTest, RunsPartitionSlabExactly) {
  // Property: runs are disjoint, in increasing offset order, and their
  // total equals the slab volume — over a sweep of random slabs.
  DatasetSpec spec{{7, 5, 9}, 3};
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    std::uint64_t start[3], count[3];
    std::uint64_t volume = 1;
    for (int d = 0; d < 3; ++d) {
      start[d] = rng.NextBelow(spec.dims[static_cast<std::size_t>(d)]);
      count[d] = 1 + rng.NextBelow(spec.dims[static_cast<std::size_t>(d)] -
                                   start[d]);
      volume *= count[d];
    }
    auto runs = MapHyperslab(spec, start, count).value();
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      total += runs[i].length;
      if (i > 0) {
        ASSERT_GE(runs[i].file_offset,
                  runs[i - 1].file_offset + runs[i - 1].length);
      }
    }
    ASSERT_EQ(total, volume * spec.elem_size) << "trial " << trial;
  }
}

// ---- Dataset ----------------------------------------------------------------------

TEST_F(LibIoTest, DatasetCreateOpenPreservesSpecAndAttrs) {
  DatasetSpec spec{{10, 20}, 8};
  auto ds = Dataset::Create(fs_.get(), "/temps", spec,
                            {{"units", "kelvin"}, {"source", "sim"}});
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  auto reopened = Dataset::Open(fs_.get(), "/temps").value();
  EXPECT_EQ(reopened.spec().dims, spec.dims);
  EXPECT_EQ(reopened.spec().elem_size, 8u);
  EXPECT_EQ(reopened.attributes().at("units"), "kelvin");
  EXPECT_EQ(reopened.attributes().at("source"), "sim");
}

TEST_F(LibIoTest, HyperslabWriteReadRoundTrip) {
  DatasetSpec spec{{8, 8}, 8};
  auto ds = Dataset::Create(fs_.get(), "/grid", spec).value();
  // Write the whole grid, then read back an interior slab.
  Buffer all = PatternBuffer(static_cast<std::size_t>(spec.ByteSize()), 5);
  std::uint64_t zero[] = {0, 0};
  std::uint64_t full[] = {8, 8};
  ASSERT_TRUE(
      ds.WriteSlab(zero, full, util::SharedSlice::External(all)).ok());
  std::uint64_t start[] = {2, 3};
  std::uint64_t count[] = {3, 4};
  const util::SharedSlice slab = ds.ReadSlab(start, count).value();
  ASSERT_EQ(slab.size(), 3u * 4 * 8);
  for (std::uint64_t r = 0; r < 3; ++r) {
    for (std::uint64_t c = 0; c < 4; ++c) {
      const std::uint64_t src = ((r + 2) * 8 + (c + 3)) * 8;
      const std::uint64_t dst = (r * 4 + c) * 8;
      for (int b = 0; b < 8; ++b) {
        ASSERT_EQ(slab.data()[dst + static_cast<std::uint64_t>(b)],
                  all[src + static_cast<std::uint64_t>(b)]);
      }
    }
  }
}

TEST_F(LibIoTest, ReadSlabSliceMatchesReadSlab) {
  DatasetSpec spec{{8, 8}, 8};
  auto ds = Dataset::Create(fs_.get(), "/gridslice", spec).value();
  Buffer all = PatternBuffer(static_cast<std::size_t>(spec.ByteSize()), 6);
  std::uint64_t zero[] = {0, 0};
  std::uint64_t full[] = {8, 8};
  ASSERT_TRUE(
      ds.WriteSlab(zero, full, util::SharedSlice::FromBuffer(Buffer(all)))
          .ok());

  // Fragmented interior slab: one run per row, all in one list read.
  std::uint64_t start[] = {2, 3};
  std::uint64_t count[] = {3, 4};
  auto slice = ds.ReadSlab(start, count);
  ASSERT_TRUE(slice.ok()) << slice.status().ToString();
  ASSERT_EQ(slice->size(), 3u * 4 * 8);
  for (std::uint64_t r = 0; r < 3; ++r) {
    EXPECT_TRUE(std::equal(
        all.begin() + static_cast<std::ptrdiff_t>(((r + 2) * 8 + 3) * 8),
        all.begin() + static_cast<std::ptrdiff_t>(((r + 2) * 8 + 7) * 8),
        slice->span().begin() + static_cast<std::ptrdiff_t>(r * 4 * 8)));
  }

  // Contiguous slab (full trailing dimension): a single run.
  std::uint64_t rows_start[] = {1, 0};
  std::uint64_t rows_count[] = {4, 8};
  auto rows = ds.ReadSlab(rows_start, rows_count);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 4u * 8 * 8);
  EXPECT_TRUE(std::equal(rows->span().begin(), rows->span().end(),
                         all.begin() + 1 * 8 * 8));
}

TEST_F(LibIoTest, SlabSizeMismatchRejected) {
  auto ds = Dataset::Create(fs_.get(), "/strict", DatasetSpec{{4, 4}, 4}).value();
  std::uint64_t start[] = {0, 0};
  std::uint64_t count[] = {2, 2};
  const Buffer short_slab(15, 0);
  EXPECT_EQ(
      ds.WriteSlab(start, count,
                   util::SharedSlice::External(short_slab)).code(),
            ErrorCode::kInvalidArgument);
}

// ---- Collective writes ---------------------------------------------------------------

TEST_F(LibIoTest, CollectiveMatchesIndependentContent) {
  auto file_c = fs_->Create("/collective").value();
  auto file_i = fs_->Create("/independent").value();

  // 8 ranks, each owning every-8th 1 KiB block of a 512 KiB file — the
  // classic interleaved pattern.
  constexpr std::uint64_t kBlock = 1024;
  constexpr int kRanks = 8;
  constexpr int kBlocksPerRank = 64;
  std::vector<std::vector<WriteFragment>> per_rank(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    for (int b = 0; b < kBlocksPerRank; ++b) {
      const std::uint64_t offset =
          (static_cast<std::uint64_t>(b) * kRanks + static_cast<std::uint64_t>(r)) * kBlock;
      per_rank[static_cast<std::size_t>(r)].push_back(WriteFragment{
          offset, PatternBuffer(kBlock, offset)});
    }
  }

  auto collective = CollectiveWrite(*fs_, file_c, per_rank).value();
  auto independent = IndependentWrite(*fs_, file_i, per_rank).value();

  EXPECT_EQ(collective.fragments_in, independent.fragments_in);
  EXPECT_EQ(collective.bytes, independent.bytes);
  // The point of two-phase I/O: far fewer writes hit the I/O system.
  EXPECT_LT(collective.writes_issued, independent.writes_issued / 10);

  Buffer out_c(kRanks * kBlocksPerRank * kBlock, 0);
  Buffer out_i(out_c.size(), 0);
  ASSERT_TRUE(testio::ReadAt(*fs_, file_c, 0, MutableByteSpan(out_c)).ok());
  ASSERT_TRUE(testio::ReadAt(*fs_, file_i, 0, MutableByteSpan(out_i)).ok());
  EXPECT_EQ(out_c, out_i);
}

TEST_F(LibIoTest, CollectiveRejectsOverlaps) {
  auto file = fs_->Create("/overlap").value();
  std::vector<std::vector<WriteFragment>> per_rank(2);
  per_rank[0].push_back(WriteFragment{0, Buffer(100, 1)});
  per_rank[1].push_back(WriteFragment{50, Buffer(100, 2)});
  EXPECT_EQ(CollectiveWrite(*fs_, file, per_rank).status().code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(LibIoTest, CollectiveRespectsBufferCap) {
  auto file = fs_->Create("/capped").value();
  std::vector<std::vector<WriteFragment>> per_rank(1);
  for (int b = 0; b < 16; ++b) {
    per_rank[0].push_back(WriteFragment{
        static_cast<std::uint64_t>(b) * 1024, PatternBuffer(1024, b)});
  }
  CollectiveOptions options;
  options.aggregators = 1;
  options.cb_buffer_bytes = 4096;  // forces one write per 4 blocks
  auto stats = CollectiveWrite(*fs_, file, per_rank, options).value();
  EXPECT_EQ(stats.writes_issued, 4u);
}

TEST_F(LibIoTest, CollectiveEmptyIsNoop) {
  auto file = fs_->Create("/empty").value();
  auto stats = CollectiveWrite(*fs_, file, {}).value();
  EXPECT_EQ(stats.writes_issued, 0u);
}

// ---- Data sieving -----------------------------------------------------------------------

TEST_F(LibIoTest, SievedReadMatchesDirectRead) {
  auto file = fs_->Create("/sieve").value();
  Buffer data = PatternBuffer(256 << 10, 7);
  ASSERT_TRUE(testio::WriteAt(*fs_, file, 0, ByteSpan(data)).ok());
  ASSERT_TRUE(fs_->Flush(file).ok());

  // Dense strided pattern: 256 bytes of every 1 KiB.
  std::vector<Fragment> fragments;
  std::uint64_t total = 0;
  for (std::uint64_t off = 0; off + 256 <= data.size(); off += 1024) {
    fragments.emplace_back(off, 256);
    total += 256;
  }
  Buffer direct(total, 0), sieved(total, 0);
  auto dstats = DirectRead(*fs_, file, fragments, MutableByteSpan(direct)).value();
  auto sstats = SievedRead(*fs_, file, fragments, MutableByteSpan(sieved)).value();
  EXPECT_EQ(direct, sieved);
  EXPECT_EQ(dstats.requests, fragments.size());
  EXPECT_LT(sstats.requests, dstats.requests / 4);  // sieving collapses them
  EXPECT_GT(sstats.bytes_transferred, sstats.bytes_needed);  // the trade
}

TEST_F(LibIoTest, SparseFragmentsAreNotSieved) {
  auto file = fs_->Create("/sparse-sieve").value();
  Buffer data = PatternBuffer(1 << 20, 8);
  ASSERT_TRUE(testio::WriteAt(*fs_, file, 0, ByteSpan(data)).ok());
  ASSERT_TRUE(fs_->Flush(file).ok());

  // 64 bytes out of every 64 KiB: density ~0.1% — sieving would waste the
  // wire, so each fragment goes direct.
  std::vector<Fragment> fragments;
  std::uint64_t total = 0;
  for (std::uint64_t off = 0; off + 64 <= data.size(); off += 64 << 10) {
    fragments.emplace_back(off, 64);
    total += 64;
  }
  Buffer out(total, 0);
  auto stats = SievedRead(*fs_, file, fragments, MutableByteSpan(out)).value();
  EXPECT_EQ(stats.requests, fragments.size());
  EXPECT_EQ(stats.bytes_transferred, stats.bytes_needed);
}

TEST_F(LibIoTest, SieveValidatesInput) {
  auto file = fs_->Create("/validate").value();
  std::vector<Fragment> overlapping = {{0, 100}, {50, 100}};
  Buffer out(200, 0);
  EXPECT_FALSE(SievedRead(*fs_, file, overlapping, MutableByteSpan(out)).ok());
  std::vector<Fragment> ok_frags = {{0, 100}};
  Buffer wrong_size(50, 0);
  EXPECT_FALSE(
      SievedRead(*fs_, file, ok_frags, MutableByteSpan(wrong_size)).ok());
}

// ---- Prefetching ----------------------------------------------------------------------------

TEST_F(LibIoTest, SequentialScanHitsThePrefetchWindow) {
  auto file = fs_->Create("/scan").value();
  Buffer data = PatternBuffer(1 << 20, 9);
  ASSERT_TRUE(testio::WriteAt(*fs_, file, 0, ByteSpan(data)).ok());
  ASSERT_TRUE(fs_->Flush(file).ok());

  PrefetchOptions options;
  options.window_bytes = 256 << 10;
  PrefetchReader reader(fs_.get(), fs_->Open("/scan").value(), options);
  Buffer chunk(4096, 0);
  Buffer assembled;
  std::uint64_t offset = 0;
  while (offset < data.size()) {
    auto n = reader.Read(offset, MutableByteSpan(chunk)).value();
    if (n == 0) break;
    assembled.insert(assembled.end(), chunk.begin(),
                     chunk.begin() + static_cast<std::ptrdiff_t>(n));
    offset += n;
  }
  EXPECT_EQ(assembled, data);
  // 256 sequential 4 KiB reads served by ~4 window fetches.
  EXPECT_LE(reader.stats().fetches, 8u);
  EXPECT_GT(reader.stats().hits, 200u);
}

TEST_F(LibIoTest, RandomSmallReadsBypassTheWindow) {
  auto file = fs_->Create("/random").value();
  Buffer data = PatternBuffer(1 << 20, 10);
  ASSERT_TRUE(testio::WriteAt(*fs_, file, 0, ByteSpan(data)).ok());
  ASSERT_TRUE(fs_->Flush(file).ok());

  PrefetchReader reader(fs_.get(), fs_->Open("/random").value(), {});
  Rng rng(3);
  Buffer chunk(512, 0);
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t offset = rng.NextBelow(data.size() - 512);
    auto n = reader.Read(offset, MutableByteSpan(chunk)).value();
    ASSERT_EQ(n, 512u);
    ASSERT_TRUE(std::equal(chunk.begin(), chunk.end(),
                           data.begin() + static_cast<std::ptrdiff_t>(offset)));
  }
  // Random access must not blow up bytes fetched to window-size each.
  EXPECT_LT(reader.stats().bytes_fetched, 50u * 512 * 8);
}

}  // namespace
}  // namespace lwfs::io

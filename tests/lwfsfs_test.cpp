// Tests for LwfsFs — the §6 file system layered above the LWFS-core, in
// both POSIX and relaxed consistency flavours.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "core/runtime.h"
#include "lwfsfs/lwfsfs.h"
#include "test_io.h"

namespace lwfs::fs {
namespace {

class LwfsFsTest : public ::testing::Test {
 protected:
  void Mount(FsConsistency consistency = FsConsistency::kPosix,
             std::uint32_t stripe_size = 4096, int servers = 4) {
    core::RuntimeOptions options;
    options.storage_servers = servers;
    runtime_ = core::ServiceRuntime::Start(options).value();
    runtime_->AddUser("u", "p", 1);
    client_ = runtime_->MakeClient();
    auto cred = client_->Login("u", "p").value();
    auto cid = client_->CreateContainer(cred).value();
    cap_ = client_->GetCap(cred, cid, security::kOpAll).value();
    FsOptions fs_options;
    fs_options.consistency = consistency;
    fs_options.stripe_size = stripe_size;
    auto fs = LwfsFs::Mount(client_.get(), cap_, "/fs", fs_options);
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    fs_ = std::move(*fs);
  }

  std::unique_ptr<core::ServiceRuntime> runtime_;
  std::unique_ptr<core::Client> client_;
  security::Capability cap_;
  std::unique_ptr<LwfsFs> fs_;
};

TEST_F(LwfsFsTest, CreateOpenRoundTrip) {
  Mount();
  auto created = fs_->Create("/data");
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  EXPECT_EQ(created->stripes.size(), 4u);
  auto opened = fs_->Open("/data");
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened->stripes.size(), created->stripes.size());
  EXPECT_EQ(opened->stripes[0].oid, created->stripes[0].oid);
  EXPECT_EQ(fs_->Open("/ghost").status().code(), ErrorCode::kNotFound);
}

TEST_F(LwfsFsTest, CreateNeedsNoMetadataServer) {
  // The whole point of the layer: file creation talks only to storage
  // servers and the naming service, never to a centralized MDS.
  Mount();
  // Warm the capability caches so steady-state counts carry no verify
  // round trips.
  ASSERT_TRUE(fs_->Create("/warm").ok());
  runtime_->fabric().metrics()->Reset();
  ASSERT_TRUE(fs_->Create("/scalable").ok());
  // 4 stripe creates + 1 inode create + 1 inode write + 1 name link, each
  // a small round trip (the inode write adds one bulk get).
  const metrics::Snapshot stats = runtime_->fabric().metrics()->Snapshot();
  EXPECT_LE(stats.Get("puts"), 2u * 7u);
}

TEST_F(LwfsFsTest, WriteReadAcrossStripes) {
  Mount(FsConsistency::kPosix, /*stripe_size=*/512);
  auto file = fs_->Create("/striped");
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  Buffer data = PatternBuffer(10000, 3);
  ASSERT_TRUE(testio::WriteAt(*fs_, *file, 0, ByteSpan(data)).ok());
  Buffer back(10000, 0);
  auto n = testio::ReadAt(*fs_, *file, 0, MutableByteSpan(back));
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, 10000u);
  EXPECT_EQ(back, data);
  // The stripes really are spread: every server holds a piece.
  for (int s = 0; s < runtime_->storage_count(); ++s) {
    auto list = runtime_->store(s).List(cap_.cid);
    ASSERT_TRUE(list.ok()) << list.status().ToString();
    std::uint64_t bytes = 0;
    for (auto oid : *list) {
      auto attr = runtime_->store(s).GetAttr(oid);
      ASSERT_TRUE(attr.ok()) << attr.status().ToString();
      bytes += attr->size;
    }
    EXPECT_GT(bytes, 0u) << "server " << s;
  }
}

TEST_F(LwfsFsTest, ReadAtEofAndBeyond) {
  Mount();
  auto file = fs_->Create("/small").value();
  ASSERT_TRUE(testio::WriteAt(*fs_, file, 0, ByteSpan(Buffer(100, 7))).ok());
  ASSERT_TRUE(fs_->Flush(file).ok());
  Buffer out(200, 0xFF);
  auto n = testio::ReadAt(*fs_, file, 0, MutableByteSpan(out));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 100u);  // clamped at EOF
  auto beyond = testio::ReadAt(*fs_, file, 500, MutableByteSpan(out));
  ASSERT_TRUE(beyond.ok());
  EXPECT_EQ(*beyond, 0u);
}

TEST_F(LwfsFsTest, ReadSliceRoundTripsAcrossStripesAndAtEof) {
  Mount(FsConsistency::kPosix, /*stripe_size=*/512);
  auto file = fs_->Create("/sliced").value();
  Buffer data = PatternBuffer(10000, 3);
  ASSERT_TRUE(testio::WriteAt(*fs_, file, 0, ByteSpan(data)).ok());
  ASSERT_TRUE(fs_->Flush(file).ok());

  // Spanning read: per-extent slices gathered into one, byte-equal to the
  // span path.
  auto whole = testio::ReadSliceAt(*fs_, file, 0, data.size());
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  ASSERT_EQ(whole->size(), data.size());
  EXPECT_TRUE(std::equal(data.begin(), data.end(), whole->span().begin()));

  // Single-extent read: the store-owned slice passes through unchanged.
  auto one = testio::ReadSliceAt(*fs_, file, 512, 256);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  ASSERT_EQ(one->size(), 256u);
  EXPECT_TRUE(std::equal(data.begin() + 512, data.begin() + 768,
                         one->span().begin()));

  // Short at EOF, empty past it — same clamping as the span Read.
  auto tail = testio::ReadSliceAt(*fs_, file, 9000, 5000);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail->size(), 1000u);
  auto beyond = testio::ReadSliceAt(*fs_, file, 50000, 100);
  ASSERT_TRUE(beyond.ok());
  EXPECT_EQ(beyond->size(), 0u);
}

TEST_F(LwfsFsTest, ReadSliceFillsHolesWithZeros) {
  Mount(FsConsistency::kRelaxed, 512);
  auto file = fs_->Create("/sparseslice").value();
  Buffer data = {1, 2, 3};
  ASSERT_TRUE(testio::WriteAt(*fs_, file, 5000, ByteSpan(data)).ok());
  auto got = testio::ReadSliceAt(*fs_, file, 0, 5003);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->size(), 5003u);
  for (std::size_t i = 0; i < 5000; ++i) ASSERT_EQ(got->span()[i], 0) << i;
  EXPECT_EQ(got->span()[5000], 1);
  EXPECT_EQ(got->span()[5002], 3);
}

// LwfsFs knows the file size, so every extent of a list ends at it and a
// hole inside it reads as zero, in slice and span extents alike.
TEST_F(LwfsFsTest, ListReadZeroFillsHolesAndEndsAtEof) {
  Mount(FsConsistency::kPosix, 512);
  auto file = fs_->Create("/holes").value();
  const Buffer head = PatternBuffer(100, 1);
  const Buffer tail = PatternBuffer(100, 2);
  ASSERT_TRUE(testio::WriteAt(*fs_, file, 0, ByteSpan(head)).ok());
  ASSERT_TRUE(testio::WriteAt(*fs_, file, 5000, ByteSpan(tail)).ok());
  ASSERT_TRUE(fs_->Flush(file).ok());

  Buffer hole_span(100, 0xEE);
  auto done = core::Await(fs_->ReadAsync(
      file, {{50, 100},
             {2000, 100, MutableByteSpan(hole_span)},
             {5050, 100},
             {9000, 10},
             {0, 10}}));
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  ASSERT_EQ(done->slices.size(), 5u);
  const ByteSpan first = done->slices[0].span();
  ASSERT_EQ(first.size(), 100u);  // 50 written bytes, then a hole
  EXPECT_TRUE(std::ranges::equal(first.first(50), ByteSpan(head).subspan(50)));
  EXPECT_TRUE(std::ranges::all_of(first.subspan(50),
                                  [](std::uint8_t b) { return b == 0; }));
  EXPECT_TRUE(done->slices[1].empty());  // landed in the span
  EXPECT_EQ(hole_span, Buffer(100, 0));
  EXPECT_TRUE(std::ranges::equal(done->slices[2].span(),
                                 ByteSpan(tail).subspan(50)));  // short at EOF
  EXPECT_TRUE(done->slices[3].empty());                         // past EOF
  EXPECT_TRUE(std::ranges::equal(done->slices[4].span(),
                                 ByteSpan(head).first(10)));
  EXPECT_EQ(done->bytes, 100u + 100 + 50 + 0 + 10);
}

// A chunk that fails mid-list stops further issue, but the list reports the
// error only once every chunk already in flight has come back, so borrowed
// payloads can be freed the moment Await returns (checked under ASan).
TEST_F(LwfsFsTest, FailingExtentMidListDrainsBeforeReporting) {
  Mount(FsConsistency::kRelaxed, 4096, 4);
  auto file = fs_->Create("/failing").value();
  ASSERT_TRUE(client_
                  ->RemoveObject(file.stripes[0].server, cap_,
                                 file.stripes[0].oid)
                  .ok());
  // 12 one-stripe pieces; the first lands on the removed object.
  std::vector<std::unique_ptr<Buffer>> payloads;
  std::vector<core::WritePiece> pieces;
  for (std::uint64_t i = 0; i < 12; ++i) {
    payloads.push_back(std::make_unique<Buffer>(PatternBuffer(4096, i)));
    pieces.push_back({i * 4096, util::SharedSlice::External(*payloads.back())});
  }
  const auto calls = [&] {
    return client_->metrics()->Snapshot().Get("rpc.op.31.calls");
  };
  const auto served = [&] {
    return runtime_->metrics()->Snapshot().Sum("storage.**.op.obj_write.calls");
  };
  const std::uint64_t calls_before = calls();
  const std::uint64_t served_before = served();
  auto done = core::Await(fs_->WriteAsync(file, std::move(pieces)));
  payloads.clear();
  EXPECT_EQ(done.status().code(), ErrorCode::kNotFound);
  // The window (pfs::kIoWindow) was full when the failure retired; nothing
  // more went out, and everything that did was served.
  EXPECT_EQ(calls() - calls_before, pfs::kIoWindow);
  EXPECT_EQ(served() - served_before, pfs::kIoWindow);
}

// Under kPosix one list takes one byte-range lock over its hull.
TEST_F(LwfsFsTest, PosixListTakesOneLockRoundTrip) {
  Mount(FsConsistency::kPosix, 512);
  auto file = fs_->Create("/locked").value();
  const Buffer data = PatternBuffer(300, 4);
  const auto lock_calls = [&] {
    const metrics::Snapshot snap = client_->metrics()->Snapshot();
    return std::make_pair(snap.Get("rpc.op.80.calls"),
                          snap.Get("rpc.op.81.calls"));
  };
  auto before = lock_calls();
  std::vector<core::WritePiece> pieces;
  for (std::uint64_t at : {0, 1000, 4000, 9000}) {
    pieces.push_back({at, util::SharedSlice::External(data)});
  }
  ASSERT_TRUE(core::Await(fs_->WriteAsync(file, std::move(pieces))).ok());
  auto after = lock_calls();
  EXPECT_EQ(after.first - before.first, 1u);
  EXPECT_EQ(after.second - before.second, 1u);

  before = after;
  auto read = core::Await(
      fs_->ReadAsync(file, {{0, 300}, {1000, 300}, {4000, 300}, {9000, 300}}));
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  for (const util::SharedSlice& slice : read->slices) {
    EXPECT_TRUE(std::ranges::equal(slice.span(), data));
  }
  after = lock_calls();
  EXPECT_EQ(after.first - before.first, 1u);
  EXPECT_EQ(after.second - before.second, 1u);
}

// Regression: a 200-byte write at 2^64 - 100 returned kInvalidArgument but
// its wrapped part had already overwritten the file's first 100 bytes.  The
// striped engine refuses the extent before issuing anything.
TEST_F(LwfsFsTest, WrappingWriteLeavesTheFileUntouched) {
  Mount(FsConsistency::kRelaxed, 512);
  auto file = fs_->Create("/wrap").value();
  const Buffer head = PatternBuffer(100, 1);
  ASSERT_TRUE(testio::WriteAt(*fs_, file, 0, ByteSpan(head)).ok());
  const Buffer payload = PatternBuffer(200, 2);
  EXPECT_EQ(testio::WriteAt(*fs_, file,
                            std::numeric_limits<std::uint64_t>::max() - 99,
                       ByteSpan(payload))
                .code(),
            ErrorCode::kInvalidArgument);
  Buffer back(head.size(), 0);
  auto n = testio::ReadAt(*fs_, file, 0, MutableByteSpan(back));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, head.size());
  EXPECT_EQ(back, head);
}

TEST_F(LwfsFsTest, SparseWriteReadsZeros) {
  Mount(FsConsistency::kRelaxed, 512);
  auto file = fs_->Create("/sparse").value();
  Buffer data = {1, 2, 3};
  ASSERT_TRUE(testio::WriteAt(*fs_, file, 5000, ByteSpan(data)).ok());
  Buffer out(5003, 0xFF);
  auto n = testio::ReadAt(*fs_, file, 0, MutableByteSpan(out));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 5003u);
  for (std::size_t i = 0; i < 5000; ++i) ASSERT_EQ(out[i], 0) << i;
  EXPECT_EQ(out[5000], 1);
  EXPECT_EQ(out[5002], 3);
}

TEST_F(LwfsFsTest, PosixSizeVisibleAfterFlush) {
  Mount(FsConsistency::kPosix);
  auto writer = fs_->Create("/shared-size").value();
  ASSERT_TRUE(testio::WriteAt(*fs_, writer, 0, ByteSpan(Buffer(1234, 1))).ok());
  // Another opener sees size 0 until the writer flushes.
  auto reader = fs_->Open("/shared-size").value();
  EXPECT_EQ(fs_->Size(reader).value(), 0u);
  ASSERT_TRUE(fs_->Flush(writer).ok());
  EXPECT_EQ(fs_->Size(reader).value(), 1234u);
}

TEST_F(LwfsFsTest, RelaxedSizeDerivedFromStripes) {
  Mount(FsConsistency::kRelaxed, 512);
  auto file = fs_->Create("/derived").value();
  ASSERT_TRUE(testio::WriteAt(*fs_, file, 0, ByteSpan(Buffer(3000, 1))).ok());
  // No flush: another opener still sees the size from stripe attributes.
  auto other = fs_->Open("/derived").value();
  EXPECT_EQ(fs_->Size(other).value(), 3000u);
}

TEST_F(LwfsFsTest, TruncateShrinkAndGrow) {
  Mount(FsConsistency::kPosix, 512);
  auto file = fs_->Create("/trunc").value();
  Buffer data = PatternBuffer(4000, 9);
  ASSERT_TRUE(testio::WriteAt(*fs_, file, 0, ByteSpan(data)).ok());
  ASSERT_TRUE(fs_->Truncate(file, 1500).ok());
  EXPECT_EQ(fs_->Size(file).value(), 1500u);
  Buffer out(4000, 0xFF);
  auto n = testio::ReadAt(*fs_, file, 0, MutableByteSpan(out));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1500u);
  EXPECT_TRUE(std::equal(out.begin(), out.begin() + 1500, data.begin()));
  ASSERT_TRUE(fs_->Truncate(file, 2000).ok());
  auto regrown = testio::ReadAt(*fs_, file, 1500, MutableByteSpan(out));
  ASSERT_TRUE(regrown.ok());
  EXPECT_EQ(*regrown, 500u);
  for (int i = 0; i < 500; ++i) ASSERT_EQ(out[static_cast<std::size_t>(i)], 0);
}

TEST_F(LwfsFsTest, RemoveReleasesAllObjects) {
  Mount();
  const std::uint64_t before = [&] {
    std::uint64_t n = 0;
    for (int s = 0; s < runtime_->storage_count(); ++s) {
      n += runtime_->store(s).ObjectCount();
    }
    return n;
  }();
  auto file = fs_->Create("/gone").value();
  ASSERT_TRUE(testio::WriteAt(*fs_, file, 0, ByteSpan(Buffer(100, 1))).ok());
  ASSERT_TRUE(fs_->Remove("/gone").ok());
  EXPECT_FALSE(fs_->Exists("/gone"));
  std::uint64_t after = 0;
  for (int s = 0; s < runtime_->storage_count(); ++s) {
    after += runtime_->store(s).ObjectCount();
  }
  EXPECT_EQ(after, before);
}

TEST_F(LwfsFsTest, NamespaceOps) {
  Mount();
  ASSERT_TRUE(fs_->Mkdir("/dir").ok());
  ASSERT_TRUE(fs_->Create("/dir/a").ok());
  ASSERT_TRUE(fs_->Create("/dir/b").ok());
  auto names = fs_->Readdir("/dir").value();
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b"}));
  ASSERT_TRUE(fs_->Rename("/dir/a", "/dir/c").ok());
  EXPECT_FALSE(fs_->Exists("/dir/a"));
  EXPECT_TRUE(fs_->Exists("/dir/c"));
}

TEST_F(LwfsFsTest, PosixConcurrentOverlappingWritesAreAtomic) {
  Mount(FsConsistency::kPosix, 1024);
  auto file = fs_->Create("/atomic").value();
  constexpr std::size_t kLen = 50000;
  std::atomic<int> failures{0};
  auto writer = [&](std::uint8_t fill) {
    auto client = runtime_->MakeClient();
    auto fs = LwfsFs::Mount(client.get(), cap_, "/fs",
                            FsOptions{1024, 0, FsConsistency::kPosix})
                  .value();
    auto handle = fs->Open("/atomic").value();
    Buffer data(kLen, fill);
    for (int i = 0; i < 3; ++i) {
      if (!testio::WriteAt(*fs, handle, 0,
                           ByteSpan(data)).ok()) failures.fetch_add(1);
    }
  };
  std::thread t1(writer, 0xAA), t2(writer, 0xBB);
  t1.join();
  t2.join();
  EXPECT_EQ(failures.load(), 0);
  Buffer out(kLen, 0);
  ASSERT_TRUE(testio::WriteAt(*fs_, file, kLen,
                              ByteSpan(Buffer{0})).ok());  // extend
  auto n = testio::ReadAt(*fs_, file, 0, MutableByteSpan(out));
  ASSERT_TRUE(n.ok());
  // POSIX locking: the overlap is one writer's bytes, never interleaved.
  for (std::size_t i = 1; i < kLen; ++i) {
    ASSERT_EQ(out[i], out[0]) << "torn write at " << i;
  }
}

TEST_F(LwfsFsTest, RelaxedDisjointParallelWrites) {
  Mount(FsConsistency::kRelaxed, 4096);
  auto file = fs_->Create("/parallel").value();
  constexpr int kRanks = 6;
  constexpr std::size_t kSlice = 20000;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < kRanks; ++r) {
    threads.emplace_back([&, r] {
      auto client = runtime_->MakeClient();
      auto fs = LwfsFs::Mount(client.get(), cap_, "/fs",
                              FsOptions{4096, 0, FsConsistency::kRelaxed})
                    .value();
      auto handle = fs->Open("/parallel").value();
      Buffer data = PatternBuffer(kSlice, static_cast<std::uint64_t>(r));
      if (!testio::WriteAt(*fs, handle, static_cast<std::uint64_t>(r) * kSlice,
                     ByteSpan(data))
               .ok()) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  Buffer out(kRanks * kSlice, 0);
  auto n = testio::ReadAt(*fs_, file, 0, MutableByteSpan(out));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, kRanks * kSlice);
  for (int r = 0; r < kRanks; ++r) {
    Buffer expect = PatternBuffer(kSlice, static_cast<std::uint64_t>(r));
    EXPECT_TRUE(std::equal(expect.begin(), expect.end(),
                           out.begin() + static_cast<std::ptrdiff_t>(r) * kSlice))
        << "rank " << r;
  }
}

TEST_F(LwfsFsTest, StripeCountOneStaysOnOneServer) {
  Mount();
  auto file = fs_->Create("/one-stripe", 1).value();
  EXPECT_EQ(file.stripes.size(), 1u);
  Buffer data = PatternBuffer(9000, 1);
  ASSERT_TRUE(testio::WriteAt(*fs_, file, 0, ByteSpan(data)).ok());
  Buffer out(9000, 0);
  auto n = testio::ReadAt(*fs_, file, 0, MutableByteSpan(out));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(out, data);
}

TEST_F(LwfsFsTest, MountRequiresAbsoluteRoot) {
  Mount();
  auto bad = LwfsFs::Mount(client_.get(), cap_, "relative", {});
  EXPECT_FALSE(bad.ok());
}

}  // namespace
}  // namespace lwfs::fs

// Model-checking LwfsFs: long random operation sequences compared against
// a trivially-correct in-memory reference file, across a parameter grid of
// consistency mode × stripe size × server count.
#include <gtest/gtest.h>

#include <map>

#include "core/runtime.h"
#include "lwfsfs/lwfsfs.h"
#include "util/rng.h"
#include "test_io.h"

namespace lwfs::fs {
namespace {

struct ModelParams {
  FsConsistency consistency;
  std::uint32_t stripe_size;
  int servers;
};

std::string ParamName(const ::testing::TestParamInfo<ModelParams>& info) {
  std::string name = info.param.consistency == FsConsistency::kPosix
                         ? "Posix"
                         : "Relaxed";
  name += "S" + std::to_string(info.param.stripe_size);
  name += "N" + std::to_string(info.param.servers);
  return name;
}

class LwfsFsModelTest : public ::testing::TestWithParam<ModelParams> {
 protected:
  void SetUp() override {
    core::RuntimeOptions options;
    options.storage_servers = GetParam().servers;
    runtime_ = core::ServiceRuntime::Start(options).value();
    runtime_->AddUser("u", "p", 1);
    client_ = runtime_->MakeClient();
    auto cred = client_->Login("u", "p").value();
    auto cid = client_->CreateContainer(cred).value();
    auto cap = client_->GetCap(cred, cid, security::kOpAll).value();
    FsOptions fs_options;
    fs_options.consistency = GetParam().consistency;
    fs_options.stripe_size = GetParam().stripe_size;
    fs_ = LwfsFs::Mount(client_.get(), cap, "/m", fs_options).value();
  }

  std::unique_ptr<core::ServiceRuntime> runtime_;
  std::unique_ptr<core::Client> client_;
  std::unique_ptr<LwfsFs> fs_;
};

TEST_P(LwfsFsModelTest, RandomOpsMatchReferenceModel) {
  Rng rng(GetParam().stripe_size * 31 +
          static_cast<std::uint64_t>(GetParam().servers));
  auto file = fs_->Create("/model").value();
  Buffer model;  // the reference file content

  constexpr int kSteps = 250;
  constexpr std::uint64_t kMaxOffset = 60000;
  for (int step = 0; step < kSteps; ++step) {
    const double roll = rng.NextDouble();
    if (roll < 0.45) {
      // Random write.
      const std::uint64_t offset = rng.NextBelow(kMaxOffset);
      Buffer data = PatternBuffer(1 + rng.NextBelow(8000), rng.NextU64());
      ASSERT_TRUE(testio::WriteAt(*fs_, file, offset, ByteSpan(data)).ok())
          << "step " << step;
      if (model.size() < offset + data.size()) {
        model.resize(offset + data.size(), 0);
      }
      std::copy(data.begin(), data.end(),
                model.begin() + static_cast<std::ptrdiff_t>(offset));
    } else if (roll < 0.85) {
      // Random read, compared byte for byte.
      const std::uint64_t offset = rng.NextBelow(kMaxOffset + 5000);
      const std::uint64_t len = 1 + rng.NextBelow(10000);
      Buffer out(len, 0xEE);
      auto n = testio::ReadAt(*fs_, file, offset, MutableByteSpan(out));
      ASSERT_TRUE(n.ok()) << "step " << step;
      Buffer expect;
      if (offset < model.size()) {
        const std::uint64_t m = std::min<std::uint64_t>(len, model.size() - offset);
        expect.assign(model.begin() + static_cast<std::ptrdiff_t>(offset),
                      model.begin() + static_cast<std::ptrdiff_t>(offset + m));
      }
      ASSERT_EQ(*n, expect.size()) << "step " << step;
      out.resize(static_cast<std::size_t>(*n));
      ASSERT_EQ(out, expect) << "step " << step;
    } else if (roll < 0.95) {
      // Truncate (shrink or grow).
      const std::uint64_t size = rng.NextBelow(kMaxOffset);
      ASSERT_TRUE(fs_->Truncate(file, size).ok()) << "step " << step;
      model.resize(size, 0);
    } else {
      // Size check (flush first so POSIX mode publishes).
      ASSERT_TRUE(fs_->Flush(file).ok());
      auto size = fs_->Size(file);
      ASSERT_TRUE(size.ok());
      ASSERT_EQ(*size, model.size()) << "step " << step;
    }
  }

  // Final: full-content equality.
  ASSERT_TRUE(fs_->Flush(file).ok());
  Buffer out(model.size() + 100, 0);
  auto n = testio::ReadAt(*fs_, file, 0, MutableByteSpan(out));
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, model.size());
  out.resize(model.size());
  EXPECT_EQ(out, model);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LwfsFsModelTest,
    ::testing::Values(ModelParams{FsConsistency::kPosix, 512, 4},
                      ModelParams{FsConsistency::kPosix, 4096, 2},
                      ModelParams{FsConsistency::kPosix, 1 << 16, 3},
                      ModelParams{FsConsistency::kRelaxed, 512, 4},
                      ModelParams{FsConsistency::kRelaxed, 4096, 1},
                      ModelParams{FsConsistency::kRelaxed, 1000, 5}),
    ParamName);

// Placement policy unit coverage.
class PlacementTest : public ::testing::Test {
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
    fs_ = LwfsFs::Mount(client_.get(), cap_, "/p", {}).value();
  }

  std::unique_ptr<core::ServiceRuntime> runtime_;
  std::unique_ptr<core::Client> client_;
  security::Capability cap_;
  std::unique_ptr<LwfsFs> fs_;
};

TEST_F(PlacementTest, ExplicitPlacementIsHonoured) {
  const std::uint32_t placement[] = {3, 1, 3};
  auto file = fs_->CreateWithPlacement("/placed", placement).value();
  ASSERT_EQ(file.stripes.size(), 3u);
  EXPECT_EQ(file.stripes[0].server, 3u);
  EXPECT_EQ(file.stripes[1].server, 1u);
  EXPECT_EQ(file.stripes[2].server, 3u);
  // Round-trip through the inode.
  auto reopened = fs_->Open("/placed").value();
  EXPECT_EQ(reopened.stripes[2].server, 3u);
  // I/O still works with repeated servers in the layout.
  Buffer data = PatternBuffer(50000, 1);
  ASSERT_TRUE(testio::WriteAt(*fs_, file, 0, ByteSpan(data)).ok());
  Buffer out(50000, 0);
  auto n = testio::ReadAt(*fs_, file, 0, MutableByteSpan(out));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(out, data);
}

TEST_F(PlacementTest, BadPlacementRejected) {
  EXPECT_FALSE(fs_->CreateWithPlacement("/bad", {}).ok());
  const std::uint32_t out_of_range[] = {0, 9};
  EXPECT_FALSE(fs_->CreateWithPlacement("/bad", out_of_range).ok());
}

}  // namespace
}  // namespace lwfs::fs

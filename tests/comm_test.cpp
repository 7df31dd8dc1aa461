// Tests for the log-time collectives (Figure 4-a's scatter, Figure 8's
// gather): correctness over thread groups of varying size, tag isolation,
// out-of-order stashing, and message-count bounds.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "comm/collectives.h"
#include "util/clock.h"
#include "util/rng.h"

namespace lwfs::comm {
namespace {

/// Builds a group of n communicators over one fabric.
struct Group {
  explicit Group(int n) {
    std::vector<std::shared_ptr<portals::Nic>> nics;
    std::vector<portals::Nid> members;
    for (int i = 0; i < n; ++i) {
      nics.push_back(fabric.CreateNic());
      members.push_back(nics.back()->nid());
    }
    for (int i = 0; i < n; ++i) {
      comms.push_back(Communicator::Create(nics[static_cast<std::size_t>(i)],
                                           members, i)
                          .value());
    }
  }

  /// Run `body(rank)` on every rank concurrently; returns failure count.
  template <typename Body>
  int RunAll(Body body) {
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int r = 0; r < static_cast<int>(comms.size()); ++r) {
      threads.emplace_back([&, r] {
        if (!body(r)) failures.fetch_add(1);
      });
    }
    for (auto& t : threads) t.join();
    return failures.load();
  }

  portals::Fabric fabric;
  std::vector<std::unique_ptr<Communicator>> comms;
};

TEST(CommTest, SendRecvRoundTrip) {
  Group group(2);
  Buffer payload = PatternBuffer(1000, 1);
  EXPECT_EQ(0, group.RunAll([&](int rank) {
    if (rank == 0) {
      return group.comms[0]->Send(1, 7, ByteSpan(payload)).ok();
    }
    auto got = group.comms[1]->Recv(0, 7);
    return got.ok() && *got == payload;
  }));
}

TEST(CommTest, TagsAndSourcesAreIsolated) {
  Group group(3);
  EXPECT_EQ(0, group.RunAll([&](int rank) {
    Communicator& comm = *group.comms[static_cast<std::size_t>(rank)];
    if (rank != 2) {
      // Both senders send two tagged messages, reverse order per sender.
      Buffer a = {static_cast<std::uint8_t>(rank), 0xA};
      Buffer b = {static_cast<std::uint8_t>(rank), 0xB};
      return comm.Send(2, 20, ByteSpan(b)).ok() &&
             comm.Send(2, 10, ByteSpan(a)).ok();
    }
    // The receiver asks for them in a fixed (src, tag) order; the stash
    // must hand each request exactly the matching message.
    for (int src : {0, 1}) {
      auto a = comm.Recv(src, 10);
      auto b = comm.Recv(src, 20);
      if (!a.ok() || !b.ok()) return false;
      if ((*a)[1] != 0xA || (*b)[1] != 0xB) return false;
      if ((*a)[0] != src || (*b)[0] != src) return false;
    }
    return true;
  }));
}

class CommSizeTest : public ::testing::TestWithParam<int> {};

TEST_P(CommSizeTest, BcastDeliversToEveryRank) {
  Group group(GetParam());
  Buffer data = PatternBuffer(5000, 9);
  EXPECT_EQ(0, group.RunAll([&](int rank) {
    Buffer local = rank == 1 % GetParam() ? data : Buffer{};
    const int root = 1 % GetParam();
    Status s = group.comms[static_cast<std::size_t>(rank)]->Bcast(root, 3,
                                                                  local);
    return s.ok() && local == data;
  }));
}

TEST_P(CommSizeTest, GatherCollectsInRankOrder) {
  Group group(GetParam());
  const int root = GetParam() - 1;  // non-zero root exercises rotation
  EXPECT_EQ(0, group.RunAll([&](int rank) {
    Buffer mine = PatternBuffer(100 + static_cast<std::size_t>(rank) * 10,
                                static_cast<std::uint64_t>(rank));
    auto gathered = group.comms[static_cast<std::size_t>(rank)]->Gather(
        root, 5, ByteSpan(mine));
    if (!gathered.ok()) return false;
    if (rank != root) return gathered->empty();
    if (gathered->size() != static_cast<std::size_t>(GetParam())) return false;
    for (int r = 0; r < GetParam(); ++r) {
      Buffer expect = PatternBuffer(100 + static_cast<std::size_t>(r) * 10,
                                    static_cast<std::uint64_t>(r));
      if ((*gathered)[static_cast<std::size_t>(r)] != expect) return false;
    }
    return true;
  }));
}

TEST_P(CommSizeTest, ScatterDeliversEachPiece) {
  Group group(GetParam());
  const int n = GetParam();
  std::vector<Buffer> pieces;
  for (int r = 0; r < n; ++r) {
    pieces.push_back(PatternBuffer(64, static_cast<std::uint64_t>(r) + 77));
  }
  EXPECT_EQ(0, group.RunAll([&](int rank) {
    auto mine = group.comms[static_cast<std::size_t>(rank)]->Scatter(
        0, 6, rank == 0 ? pieces : std::vector<Buffer>{});
    return mine.ok() && *mine == pieces[static_cast<std::size_t>(rank)];
  }));
}

TEST_P(CommSizeTest, BarrierSynchronizes) {
  Group group(GetParam());
  std::atomic<int> arrived{0};
  std::atomic<bool> violation{false};
  EXPECT_EQ(0, group.RunAll([&](int rank) {
    // Stagger arrivals; nobody may pass the barrier before all arrived.
    util::RealClockInstance()->SleepFor(std::chrono::milliseconds(rank * 3));
    arrived.fetch_add(1);
    Status s = group.comms[static_cast<std::size_t>(rank)]->Barrier(100);
    if (arrived.load() != GetParam()) violation.store(true);
    return s.ok();
  }));
  EXPECT_FALSE(violation.load());
}

INSTANTIATE_TEST_SUITE_P(Sizes, CommSizeTest, ::testing::Values(1, 2, 3, 5, 8));

TEST(CommTest, BcastUsesExactlyNMinusOneMessages) {
  Group group(8);
  group.fabric.metrics()->Reset();
  Buffer data = PatternBuffer(100, 1);
  ASSERT_EQ(0, group.RunAll([&](int rank) {
    Buffer local = rank == 0 ? data : Buffer{};
    return group.comms[static_cast<std::size_t>(rank)]->Bcast(0, 1, local).ok();
  }));
  // A binomial broadcast moves exactly n-1 messages (the "logarithmic"
  // refers to rounds, not messages).
  EXPECT_EQ(group.fabric.metrics()->Snapshot().Get("puts"), 7u);
}

TEST(CommTest, RecvTimesOutCleanly) {
  Group group(2);
  auto got = group.comms[0]->Recv(1, 9, std::chrono::milliseconds(30));
  EXPECT_EQ(got.status().code(), ErrorCode::kTimeout);
}

TEST(CommTest, CreateValidatesArguments) {
  portals::Fabric fabric;
  auto nic = fabric.CreateNic();
  EXPECT_FALSE(Communicator::Create(nic, {}, 0).ok());
  EXPECT_FALSE(Communicator::Create(nic, {nic->nid()}, 1).ok());
  EXPECT_FALSE(Communicator::Create(nic, {nic->nid() + 99}, 0).ok());
}

TEST(CommTest, StressManyRandomCollectives) {
  Group group(4);
  Rng seed_rng(12);
  const std::uint64_t base_seed = seed_rng.NextU64();
  EXPECT_EQ(0, group.RunAll([&](int rank) {
    Communicator& comm = *group.comms[static_cast<std::size_t>(rank)];
    for (std::uint32_t round = 0; round < 50; ++round) {
      // All ranks derive the same schedule from the round number.
      Rng rng(base_seed + round);
      const int root = static_cast<int>(rng.NextBelow(4));
      const auto op = rng.NextBelow(3);
      const std::uint32_t tag = 1000 + round * 10;
      if (op == 0) {
        Buffer data = PatternBuffer(rng.NextBelow(2000), round);
        Buffer local = rank == root ? data : Buffer{};
        if (!comm.Bcast(root, tag, local).ok() || local != data) return false;
      } else if (op == 1) {
        Buffer mine = PatternBuffer(10, static_cast<std::uint64_t>(rank));
        auto gathered = comm.Gather(root, tag, ByteSpan(mine));
        if (!gathered.ok()) return false;
        if (rank == root && gathered->size() != 4) return false;
      } else {
        std::vector<Buffer> pieces;
        for (int r = 0; r < 4; ++r) {
          pieces.push_back(PatternBuffer(8, round * 4 + static_cast<std::uint64_t>(r)));
        }
        auto mine = comm.Scatter(root, tag,
                                 rank == root ? pieces : std::vector<Buffer>{});
        if (!mine.ok() || *mine != pieces[static_cast<std::size_t>(rank)]) {
          return false;
        }
      }
    }
    return true;
  }));
}

}  // namespace
}  // namespace lwfs::comm

// Unit tests for the Portals-like one-sided transport.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "portals/portals.h"

namespace lwfs::portals {
namespace {

class PortalsTest : public ::testing::Test {
 protected:
  Fabric fabric_;
};

TEST_F(PortalsTest, NidsAreUniqueAndNonZero) {
  auto a = fabric_.CreateNic();
  auto b = fabric_.CreateNic();
  EXPECT_NE(a->nid(), kInvalidNid);
  EXPECT_NE(a->nid(), b->nid());
}

TEST_F(PortalsTest, PutIntoRegisteredRegion) {
  auto src = fabric_.CreateNic();
  auto dst = fabric_.CreateNic();
  Buffer region(16, 0);
  EventQueue eq;
  MeOptions opts;
  opts.allow_put = true;
  auto me = dst->Attach(0, 42, 0, MutableByteSpan(region), opts, &eq, 777);
  ASSERT_TRUE(me.ok());

  Buffer data = {1, 2, 3, 4};
  ASSERT_TRUE(src->Put(dst->nid(), 0, 42, ByteSpan(data), 4, 99).ok());
  EXPECT_EQ(region[4], 1);
  EXPECT_EQ(region[7], 4);
  EXPECT_EQ(region[0], 0);

  auto ev = eq.Poll();
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->type, EventType::kPut);
  EXPECT_EQ(ev->initiator, src->nid());
  EXPECT_EQ(ev->match_bits, 42u);
  EXPECT_EQ(ev->offset, 4u);
  EXPECT_EQ(ev->length, 4u);
  EXPECT_EQ(ev->user_data, 777u);
  EXPECT_EQ(ev->hdr_data, 99u);
}

TEST_F(PortalsTest, GetFromRegisteredRegion) {
  auto src = fabric_.CreateNic();
  auto dst = fabric_.CreateNic();
  Buffer region = {10, 20, 30, 40, 50};
  MeOptions opts;
  opts.allow_get = true;
  ASSERT_TRUE(dst->Attach(2, 7, 0, MutableByteSpan(region), opts, nullptr).ok());

  Buffer out(3, 0);
  ASSERT_TRUE(src->Get(dst->nid(), 2, 7, MutableByteSpan(out), 1).ok());
  EXPECT_EQ(out, (Buffer{20, 30, 40}));
}

TEST_F(PortalsTest, MatchBitsMustMatch) {
  auto src = fabric_.CreateNic();
  auto dst = fabric_.CreateNic();
  Buffer region(8, 0);
  MeOptions opts;
  opts.allow_put = true;
  ASSERT_TRUE(dst->Attach(0, 42, 0, MutableByteSpan(region), opts, nullptr).ok());
  Buffer data = {1};
  Status s = src->Put(dst->nid(), 0, 43, ByteSpan(data));
  EXPECT_EQ(s.code(), ErrorCode::kResourceExhausted);
}

TEST_F(PortalsTest, IgnoreBitsWidenTheMatch) {
  auto src = fabric_.CreateNic();
  auto dst = fabric_.CreateNic();
  EventQueue eq;
  MeOptions opts;
  opts.allow_put = true;
  opts.message_mode = true;
  // Ignore everything: any match bits land here.
  ASSERT_TRUE(dst->Attach(0, 0, ~0ULL, {}, opts, &eq).ok());
  Buffer data = {5};
  EXPECT_TRUE(src->Put(dst->nid(), 0, 0xABCDEF, ByteSpan(data)).ok());
  auto ev = eq.Poll();
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->match_bits, 0xABCDEFu);
}

TEST_F(PortalsTest, MessageModeCarriesPayload) {
  auto src = fabric_.CreateNic();
  auto dst = fabric_.CreateNic();
  EventQueue eq;
  MeOptions opts;
  opts.allow_put = true;
  opts.message_mode = true;
  ASSERT_TRUE(dst->Attach(0, 1, 0, {}, opts, &eq).ok());
  Buffer data = {9, 9, 9};
  ASSERT_TRUE(src->Put(dst->nid(), 0, 1, ByteSpan(data)).ok());
  auto ev = eq.Poll();
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->payload.ToBuffer(util::CopyKind::kDeliver), data);
}

TEST_F(PortalsTest, GetSliceFromSliceEntryIsZeroCopy) {
  auto src = fabric_.CreateNic();
  auto dst = fabric_.CreateNic();
  Buffer bytes = {1, 2, 3, 4, 5, 6, 7, 8};
  util::SharedSlice registered = util::SharedSlice::FromBuffer(Buffer(bytes));
  ASSERT_TRUE(dst->AttachSlice(0, 7, 0, registered).ok());
  const util::CopySnapshot before = util::CopyStats::Snapshot();
  auto got = src->GetSlice(dst->nid(), 0, 7, 4, 2);
  ASSERT_TRUE(got.ok());
  // The pulled slice aliases the registered bytes: no copy, shared owner.
  EXPECT_EQ(got->data(), registered.data() + 2);
  EXPECT_EQ(got->owner().get(), registered.owner().get());
  if (util::CopyStats::Enabled()) {
    EXPECT_EQ(util::CopyStats::Snapshot().Since(before).budget_bytes(), 0u);
  }
}

TEST_F(PortalsTest, GetSliceFromRawRegionStagesOneCopy) {
  auto src = fabric_.CreateNic();
  auto dst = fabric_.CreateNic();
  Buffer region = {9, 8, 7, 6};
  MeOptions opts;
  opts.allow_get = true;
  ASSERT_TRUE(dst->Attach(0, 7, 0, MutableByteSpan(region), opts, nullptr).ok());
  const util::CopySnapshot before = util::CopyStats::Snapshot();
  auto got = src->GetSlice(dst->nid(), 0, 7, region.size());
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->owned());  // staged: safe past the region's lifetime
  EXPECT_NE(static_cast<const void*>(got->data()),
            static_cast<const void*>(region.data()));
  if (util::CopyStats::Enabled()) {
    const util::CopySnapshot delta = util::CopyStats::Snapshot().Since(before);
    EXPECT_EQ(delta.copies_of(util::CopyKind::kStage), 1u);
    EXPECT_EQ(delta.bytes_of(util::CopyKind::kStage), region.size());
  }
}

TEST_F(PortalsTest, BoundedEventQueueRejectsOverflow) {
  auto src = fabric_.CreateNic();
  auto dst = fabric_.CreateNic();
  EventQueue eq(2);  // two buffers on the "I/O node"
  MeOptions opts;
  opts.allow_put = true;
  opts.message_mode = true;
  ASSERT_TRUE(dst->Attach(0, 1, 0, {}, opts, &eq).ok());
  Buffer data = {1};
  EXPECT_TRUE(src->Put(dst->nid(), 0, 1, ByteSpan(data)).ok());
  EXPECT_TRUE(src->Put(dst->nid(), 0, 1, ByteSpan(data)).ok());
  Status s = src->Put(dst->nid(), 0, 1, ByteSpan(data));
  EXPECT_EQ(s.code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(fabric_.metrics()->Snapshot().Get("rejected"), 1u);
  // Draining makes room again: the resend would now succeed.
  eq.Poll();
  EXPECT_TRUE(src->Put(dst->nid(), 0, 1, ByteSpan(data)).ok());
}

TEST_F(PortalsTest, UnlinkOnUseConsumesEntry) {
  auto src = fabric_.CreateNic();
  auto dst = fabric_.CreateNic();
  Buffer region(4, 0);
  MeOptions opts;
  opts.allow_put = true;
  opts.unlink_on_use = true;
  ASSERT_TRUE(dst->Attach(0, 5, 0, MutableByteSpan(region), opts, nullptr).ok());
  Buffer data = {1};
  EXPECT_TRUE(src->Put(dst->nid(), 0, 5, ByteSpan(data)).ok());
  EXPECT_EQ(src->Put(dst->nid(), 0, 5, ByteSpan(data)).code(),
            ErrorCode::kResourceExhausted);
}

TEST_F(PortalsTest, InlineEntryRunsHandlerOnInitiatorWithoutNicLock) {
  auto src = fabric_.CreateNic();
  auto dst = fabric_.CreateNic();
  MeOptions opts;
  opts.allow_put = true;
  opts.message_mode = true;
  opts.unlink_on_use = true;
  const Buffer data = {4, 5, 6};
  std::thread::id ran_on;
  Buffer got;
  Status reentrant_put = OkStatus();
  auto handler = std::make_shared<const EventHandler>([&](Event ev) {
    ran_on = std::this_thread::get_id();
    got = ev.payload.ToBuffer(util::CopyKind::kDeliver);
    EXPECT_EQ(ev.initiator, src->nid());
    EXPECT_EQ(ev.user_data, 9u);
    // The target NIC's lock is already released (a second Put takes it),
    // and the single-use entry is already unlinked (that Put finds none).
    reentrant_put = src->Put(dst->nid(), 0, 6, ByteSpan(data));
    return OkStatus();
  });
  ASSERT_TRUE(dst->AttachInline(0, 6, 0, opts, handler, 9).ok());

  ASSERT_TRUE(src->Put(dst->nid(), 0, 6, ByteSpan(data)).ok());
  // The Put returned after the handler ran, on this very thread.
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_EQ(got, data);
  EXPECT_EQ(reentrant_put.code(), ErrorCode::kResourceExhausted);
}

TEST_F(PortalsTest, InlineEntryMustBeMessagePut) {
  auto dst = fabric_.CreateNic();
  auto handler =
      std::make_shared<const EventHandler>([](Event) { return OkStatus(); });
  MeOptions opts;
  opts.allow_put = true;
  EXPECT_EQ(dst->AttachInline(0, 1, 0, opts, handler).status().code(),
            ErrorCode::kInvalidArgument);  // not message_mode
  opts.message_mode = true;
  opts.allow_put = false;
  opts.allow_get = true;
  EXPECT_EQ(dst->AttachInline(0, 1, 0, opts, handler).status().code(),
            ErrorCode::kInvalidArgument);  // not a put entry
  opts.allow_put = true;
  opts.allow_get = false;
  EXPECT_EQ(dst->AttachInline(0, 1, 0, opts, nullptr).status().code(),
            ErrorCode::kInvalidArgument);  // no handler
  // Single-use (a reply slot) and persistent (a request portal) both work.
  EXPECT_TRUE(dst->AttachInline(0, 1, 0, opts, handler).ok());
  opts.unlink_on_use = true;
  EXPECT_TRUE(dst->AttachInline(0, 1, 0, opts, handler).ok());
}

TEST_F(PortalsTest, PersistentInlineEntryServesEveryPutAndRefusesWithItsStatus) {
  auto src = fabric_.CreateNic();
  auto dst = fabric_.CreateNic();
  MeOptions opts;
  opts.allow_put = true;
  opts.message_mode = true;
  int taken = 0;
  bool refuse = false;
  auto handler = std::make_shared<const EventHandler>([&](Event ev) {
    if (refuse) return ResourceExhausted("queue full");
    EXPECT_EQ(ev.payload.size(), 1u);
    ++taken;
    return OkStatus();
  });
  ASSERT_TRUE(dst->AttachInline(0, 2, 0, opts, handler).ok());
  const Buffer data = {7};
  EXPECT_TRUE(src->Put(dst->nid(), 0, 2, ByteSpan(data)).ok());
  EXPECT_TRUE(src->Put(dst->nid(), 0, 2, ByteSpan(data)).ok());
  EXPECT_EQ(taken, 2);
  // The handler's refusal is the Put's: the initiator sees the full queue,
  // and the fabric counts neither the put nor its bytes.
  const auto before = fabric_.metrics()->Snapshot();
  refuse = true;
  EXPECT_EQ(src->Put(dst->nid(), 0, 2, ByteSpan(data)).code(),
            ErrorCode::kResourceExhausted);
  const auto after = fabric_.metrics()->Snapshot();
  EXPECT_EQ(after.Get("puts"), before.Get("puts"));
  EXPECT_EQ(after.Get("put_bytes"), before.Get("put_bytes"));
  EXPECT_EQ(after.Get("rejected"), before.Get("rejected") + 1);
}

TEST_F(PortalsTest, InlineHandlerRunsAfterTheFaultPlan) {
  auto src = fabric_.CreateNic();
  auto dst = fabric_.CreateNic();
  MeOptions opts;
  opts.allow_put = true;
  opts.message_mode = true;
  std::vector<bool> target_down_when_run;
  auto handler = std::make_shared<const EventHandler>([&](Event) {
    target_down_when_run.push_back(fabric_.IsNodeDown(dst->nid()));
    return OkStatus();
  });
  ASSERT_TRUE(dst->AttachInline(0, 3, 0, opts, handler).ok());
  const Buffer data = {1, 2};
  // A duplicated Put runs the handler twice, after the original.
  fabric_.injector().SetLink(src->nid(), dst->nid(), {.duplicate = 1.0});
  ASSERT_TRUE(src->Put(dst->nid(), 0, 3, ByteSpan(data)).ok());
  EXPECT_EQ(target_down_when_run, (std::vector<bool>{false, false}));
  // A crash-after target is already down when the handler runs.
  fabric_.injector().ClearFaults();
  fabric_.injector().CrashAfterDelivery(dst->nid());
  target_down_when_run.clear();
  ASSERT_TRUE(src->Put(dst->nid(), 0, 3, ByteSpan(data)).ok());
  EXPECT_EQ(target_down_when_run, (std::vector<bool>{true}));
}

TEST_F(PortalsTest, SourceFilteredEntryIgnoresOtherInitiators) {
  auto trusted = fabric_.CreateNic();
  auto other = fabric_.CreateNic();
  auto dst = fabric_.CreateNic();
  EventQueue eq;
  MeOptions opts;
  opts.allow_put = true;
  opts.message_mode = true;
  opts.unlink_on_use = true;
  opts.source = trusted->nid();
  ASSERT_TRUE(dst->Attach(0, 3, 0, {}, opts, &eq).ok());

  Buffer data = {1, 2};
  // Another node finds no entry — and, crucially, does not consume it.
  EXPECT_EQ(other->Put(dst->nid(), 0, 3, ByteSpan(data)).code(),
            ErrorCode::kResourceExhausted);
  EXPECT_FALSE(eq.Poll().has_value());
  ASSERT_TRUE(trusted->Put(dst->nid(), 0, 3, ByteSpan(data)).ok());
  auto ev = eq.Poll();
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->initiator, trusted->nid());

  // Gets are filtered the same way.
  Buffer region = {9, 8, 7};
  MeOptions get_opts;
  get_opts.allow_get = true;
  get_opts.source = trusted->nid();
  ASSERT_TRUE(
      dst->Attach(2, 4, 0, MutableByteSpan(region), get_opts, nullptr).ok());
  Buffer out(3, 0);
  EXPECT_EQ(other->Get(dst->nid(), 2, 4, MutableByteSpan(out)).code(),
            ErrorCode::kResourceExhausted);
  ASSERT_TRUE(trusted->Get(dst->nid(), 2, 4, MutableByteSpan(out)).ok());
  EXPECT_EQ(out, region);
}

TEST_F(PortalsTest, PutBeyondRegionFails) {
  auto src = fabric_.CreateNic();
  auto dst = fabric_.CreateNic();
  Buffer region(4, 0);
  MeOptions opts;
  opts.allow_put = true;
  ASSERT_TRUE(dst->Attach(0, 5, 0, MutableByteSpan(region), opts, nullptr).ok());
  Buffer data = {1, 2, 3};
  EXPECT_EQ(src->Put(dst->nid(), 0, 5, ByteSpan(data), 2).code(),
            ErrorCode::kOutOfRange);
}

TEST_F(PortalsTest, GetBeyondRegionFails) {
  auto src = fabric_.CreateNic();
  auto dst = fabric_.CreateNic();
  Buffer region(4, 0);
  MeOptions opts;
  opts.allow_get = true;
  ASSERT_TRUE(dst->Attach(0, 5, 0, MutableByteSpan(region), opts, nullptr).ok());
  Buffer out(3, 0);
  EXPECT_EQ(src->Get(dst->nid(), 0, 5, MutableByteSpan(out), 2).code(),
            ErrorCode::kOutOfRange);
}

TEST_F(PortalsTest, PutRequiresPutPermission) {
  auto src = fabric_.CreateNic();
  auto dst = fabric_.CreateNic();
  Buffer region(4, 0);
  MeOptions opts;
  opts.allow_get = true;  // get-only entry
  ASSERT_TRUE(dst->Attach(0, 5, 0, MutableByteSpan(region), opts, nullptr).ok());
  Buffer data = {1};
  EXPECT_EQ(src->Put(dst->nid(), 0, 5, ByteSpan(data)).code(),
            ErrorCode::kResourceExhausted);
}

TEST_F(PortalsTest, DownNodeIsUnavailable) {
  auto src = fabric_.CreateNic();
  auto dst = fabric_.CreateNic();
  Buffer region(4, 0);
  MeOptions opts;
  opts.allow_put = true;
  ASSERT_TRUE(dst->Attach(0, 5, 0, MutableByteSpan(region), opts, nullptr).ok());
  fabric_.SetNodeDown(dst->nid(), true);
  Buffer data = {1};
  EXPECT_EQ(src->Put(dst->nid(), 0, 5, ByteSpan(data)).code(),
            ErrorCode::kUnavailable);
  fabric_.SetNodeDown(dst->nid(), false);
  EXPECT_TRUE(src->Put(dst->nid(), 0, 5, ByteSpan(data)).ok());
}

TEST_F(PortalsTest, UnknownNidIsUnavailable) {
  auto src = fabric_.CreateNic();
  Buffer data = {1};
  EXPECT_EQ(src->Put(99999, 0, 5, ByteSpan(data)).code(),
            ErrorCode::kUnavailable);
}

TEST_F(PortalsTest, StatsCountTrafficAndBytes) {
  fabric_.metrics()->Reset();
  auto src = fabric_.CreateNic();
  auto dst = fabric_.CreateNic();
  Buffer region(64, 0);
  MeOptions opts;
  opts.allow_put = true;
  opts.allow_get = true;
  ASSERT_TRUE(dst->Attach(0, 5, 0, MutableByteSpan(region), opts, nullptr).ok());
  Buffer data(10, 1);
  ASSERT_TRUE(src->Put(dst->nid(), 0, 5, ByteSpan(data)).ok());
  Buffer out(6, 0);
  ASSERT_TRUE(src->Get(dst->nid(), 0, 5, MutableByteSpan(out)).ok());
  const metrics::Snapshot stats = fabric_.metrics()->Snapshot();
  EXPECT_EQ(stats.Get("puts"), 1u);
  EXPECT_EQ(stats.Get("gets"), 1u);
  EXPECT_EQ(stats.Get("put_bytes"), 10u);
  EXPECT_EQ(stats.Get("get_bytes"), 6u);
}

TEST_F(PortalsTest, RegisteredRegionDetachesOnDestruction) {
  auto src = fabric_.CreateNic();
  auto dst = fabric_.CreateNic();
  Buffer region(4, 0);
  MeOptions opts;
  opts.allow_put = true;
  Buffer data = {1};
  {
    auto me = dst->Attach(0, 5, 0, MutableByteSpan(region), opts, nullptr);
    ASSERT_TRUE(me.ok());
    RegisteredRegion raii(dst, *me);
    EXPECT_TRUE(src->Put(dst->nid(), 0, 5, ByteSpan(data)).ok());
  }
  EXPECT_EQ(src->Put(dst->nid(), 0, 5, ByteSpan(data)).code(),
            ErrorCode::kResourceExhausted);
}

TEST_F(PortalsTest, FirstMatchingEntryWins) {
  auto src = fabric_.CreateNic();
  auto dst = fabric_.CreateNic();
  Buffer region_a(4, 0);
  Buffer region_b(4, 0);
  MeOptions opts;
  opts.allow_put = true;
  ASSERT_TRUE(dst->Attach(0, 5, 0, MutableByteSpan(region_a), opts, nullptr).ok());
  ASSERT_TRUE(dst->Attach(0, 5, 0, MutableByteSpan(region_b), opts, nullptr).ok());
  Buffer data = {7};
  ASSERT_TRUE(src->Put(dst->nid(), 0, 5, ByteSpan(data)).ok());
  EXPECT_EQ(region_a[0], 7);
  EXPECT_EQ(region_b[0], 0);
}

TEST_F(PortalsTest, ConcurrentTransfersAreSafe) {
  auto dst = fabric_.CreateNic();
  constexpr int kThreads = 8;
  constexpr int kPutsEach = 200;
  Buffer region(kThreads * 8, 0);
  MeOptions opts;
  opts.allow_put = true;
  ASSERT_TRUE(dst->Attach(0, 1, 0, MutableByteSpan(region), opts, nullptr).ok());

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto nic = fabric_.CreateNic();
      Buffer data(8, static_cast<std::uint8_t>(t + 1));
      for (int i = 0; i < kPutsEach; ++i) {
        ASSERT_TRUE(nic->Put(dst->nid(), 0, 1, ByteSpan(data),
                             static_cast<std::size_t>(t) * 8)
                        .ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(region[static_cast<std::size_t>(t) * 8],
              static_cast<std::uint8_t>(t + 1));
  }
}

// ---- Fault injection ------------------------------------------------------

class FaultInjectorTest : public ::testing::Test {
 protected:
  // One put-capable region ME on dst_, returning the region buffer.
  Buffer AttachPutRegion(const std::shared_ptr<Nic>& dst, std::size_t size) {
    Buffer region(size, 0);
    MeOptions opts;
    opts.allow_put = true;
    EXPECT_TRUE(
        dst->Attach(0, 1, 0, MutableByteSpan(region), opts, nullptr).ok());
    return region;
  }

  Fabric fabric_;
};

TEST_F(FaultInjectorTest, DroppedPutIsSilentlyLost) {
  auto src = fabric_.CreateNic();
  auto dst = fabric_.CreateNic();
  Buffer region = AttachPutRegion(dst, 4);
  fabric_.injector().SetLink(src->nid(), dst->nid(), {.drop = 1.0});
  Buffer data = {9, 9, 9, 9};
  // The initiator sees success — only a reply timeout can reveal the loss.
  EXPECT_TRUE(src->Put(dst->nid(), 0, 1, ByteSpan(data)).ok());
  EXPECT_EQ(region[0], 0);
  EXPECT_EQ(fabric_.injector().metrics()->Snapshot().Get("drops"), 1u);
}

TEST_F(FaultInjectorTest, DroppedGetTimesOut) {
  auto src = fabric_.CreateNic();
  auto dst = fabric_.CreateNic();
  Buffer region = {1, 2, 3, 4};
  MeOptions opts;
  opts.allow_get = true;
  ASSERT_TRUE(dst->Attach(0, 1, 0, MutableByteSpan(region), opts, nullptr).ok());
  fabric_.injector().SetLink(src->nid(), dst->nid(), {.drop = 1.0});
  Buffer out(4, 0);
  // kTimeout (retryable), not the kUnavailable of a known-down node.
  EXPECT_EQ(src->Get(dst->nid(), 0, 1, MutableByteSpan(out)).code(),
            ErrorCode::kTimeout);
}

TEST_F(FaultInjectorTest, CorruptionFlipsExactlyOneByte) {
  auto src = fabric_.CreateNic();
  auto dst = fabric_.CreateNic();
  Buffer region = AttachPutRegion(dst, 8);
  fabric_.injector().SetLink(src->nid(), dst->nid(), {.corrupt = 1.0});
  Buffer data = {1, 2, 3, 4, 5, 6, 7, 8};
  ASSERT_TRUE(src->Put(dst->nid(), 0, 1, ByteSpan(data)).ok());
  int differing = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (region[i] != data[i]) ++differing;
  }
  EXPECT_EQ(differing, 1);
  EXPECT_EQ(fabric_.injector().metrics()->Snapshot().Get("corruptions"), 1u);
}

TEST_F(FaultInjectorTest, CorruptedSlicePutNeverMutatesSenderBytes) {
  // The regression this guards: zero-copy delivery shares the sender's
  // bytes, so injected corruption must clone first (copy-on-write) — a
  // corrupting injector that scribbled on the shared buffer would corrupt
  // the sender's copy (and every retransmit) too.
  auto src = fabric_.CreateNic();
  auto dst = fabric_.CreateNic();
  EventQueue eq;
  MeOptions opts;
  opts.allow_put = true;
  opts.message_mode = true;
  ASSERT_TRUE(dst->Attach(0, 1, 0, {}, opts, &eq).ok());
  fabric_.injector().SetLink(src->nid(), dst->nid(), {.corrupt = 1.0});

  Buffer original = {10, 20, 30, 40, 50, 60, 70, 80};
  util::SharedSlice payload = util::SharedSlice::FromBuffer(Buffer(original));
  const util::CopySnapshot before = util::CopyStats::Snapshot();
  ASSERT_TRUE(src->Put(dst->nid(), 0, 1, payload).ok());

  // The sender's shared bytes are untouched...
  ASSERT_EQ(payload.size(), original.size());
  EXPECT_EQ(0, std::memcmp(payload.data(), original.data(), original.size()));
  // ...while the delivered copy differs in exactly one byte.
  auto ev = eq.Poll();
  ASSERT_TRUE(ev.has_value());
  ASSERT_EQ(ev->payload.size(), original.size());
  int differing = 0;
  for (std::size_t i = 0; i < original.size(); ++i) {
    if (ev->payload.data()[i] != original[i]) ++differing;
  }
  EXPECT_EQ(differing, 1);
  if (util::CopyStats::Enabled()) {
    const util::CopySnapshot delta = util::CopyStats::Snapshot().Since(before);
    EXPECT_EQ(delta.copies_of(util::CopyKind::kInjected), 1u);
    EXPECT_EQ(delta.budget_bytes(), 0u);  // the clone is not a budget copy
  }
}

TEST_F(FaultInjectorTest, CorruptedSliceGetLeavesRegisteredSliceIntact) {
  auto src = fabric_.CreateNic();
  auto dst = fabric_.CreateNic();
  Buffer original = {1, 2, 3, 4, 5, 6, 7, 8};
  util::SharedSlice registered =
      util::SharedSlice::FromBuffer(Buffer(original));
  ASSERT_TRUE(dst->AttachSlice(0, 1, 0, registered).ok());
  fabric_.injector().SetLink(src->nid(), dst->nid(), {.corrupt = 1.0});
  auto got = src->GetSlice(dst->nid(), 0, 1, original.size());
  ASSERT_TRUE(got.ok());
  int differing = 0;
  for (std::size_t i = 0; i < original.size(); ++i) {
    if (got->data()[i] != original[i]) ++differing;
  }
  EXPECT_EQ(differing, 1);
  // COW: the registered (sender-shared) slice still holds the true bytes.
  EXPECT_EQ(0,
            std::memcmp(registered.data(), original.data(), original.size()));
}

TEST_F(FaultInjectorTest, DuplicatedPutDeliversTwice) {
  auto src = fabric_.CreateNic();
  auto dst = fabric_.CreateNic();
  EventQueue eq;
  MeOptions opts;
  opts.allow_put = true;
  opts.message_mode = true;
  ASSERT_TRUE(dst->Attach(0, 1, 0, {}, opts, &eq).ok());
  fabric_.injector().SetLink(src->nid(), dst->nid(), {.duplicate = 1.0});
  Buffer data = {42};
  ASSERT_TRUE(src->Put(dst->nid(), 0, 1, ByteSpan(data)).ok());
  EXPECT_TRUE(eq.Poll().has_value());
  EXPECT_TRUE(eq.Poll().has_value());  // the duplicate
  EXPECT_FALSE(eq.Poll().has_value());
  EXPECT_EQ(fabric_.injector().metrics()->Snapshot().Get("duplicates"), 1u);
}

TEST_F(FaultInjectorTest, PartitionIsSymmetricAndHealable) {
  auto a = fabric_.CreateNic();
  auto b = fabric_.CreateNic();
  Buffer region = AttachPutRegion(b, 4);
  fabric_.injector().Partition(a->nid(), b->nid(), true);
  Buffer data = {5};
  EXPECT_TRUE(a->Put(b->nid(), 0, 1, ByteSpan(data)).ok());  // silent loss
  EXPECT_EQ(region[0], 0);
  Buffer out(1, 0);
  EXPECT_EQ(b->Get(a->nid(), 0, 1, MutableByteSpan(out)).code(),
            ErrorCode::kTimeout);  // other direction blocked too
  EXPECT_EQ(fabric_.injector().metrics()->Snapshot().Get("partition_drops"),
            2u);

  fabric_.injector().Partition(a->nid(), b->nid(), false);
  EXPECT_TRUE(a->Put(b->nid(), 0, 1, ByteSpan(data)).ok());
  EXPECT_EQ(region[0], 5);
}

TEST_F(FaultInjectorTest, CrashBeforeDeliveryLosesMessageAndDownsNode) {
  auto src = fabric_.CreateNic();
  auto dst = fabric_.CreateNic();
  Buffer region = AttachPutRegion(dst, 4);
  fabric_.injector().CrashBeforeDelivery(dst->nid());
  Buffer data = {3};
  EXPECT_TRUE(src->Put(dst->nid(), 0, 1, ByteSpan(data)).ok());
  EXPECT_EQ(region[0], 0);  // message died with the node
  EXPECT_TRUE(fabric_.IsNodeDown(dst->nid()));
  EXPECT_EQ(src->Put(dst->nid(), 0, 1, ByteSpan(data)).code(),
            ErrorCode::kUnavailable);
  EXPECT_EQ(fabric_.injector().metrics()->Snapshot().Get("crashes"), 1u);

  // The trigger is one-shot: after a restart the node works again.
  fabric_.SetNodeDown(dst->nid(), false);
  EXPECT_TRUE(src->Put(dst->nid(), 0, 1, ByteSpan(data)).ok());
  EXPECT_EQ(region[0], 3);
}

TEST_F(FaultInjectorTest, CrashAfterDeliveryDeliversThenDownsNode) {
  auto src = fabric_.CreateNic();
  auto dst = fabric_.CreateNic();
  Buffer region = AttachPutRegion(dst, 4);
  fabric_.injector().CrashAfterDelivery(dst->nid());
  Buffer data = {7};
  EXPECT_TRUE(src->Put(dst->nid(), 0, 1, ByteSpan(data)).ok());
  EXPECT_EQ(region[0], 7);  // delivered...
  EXPECT_TRUE(fabric_.IsNodeDown(dst->nid()));  // ...then crashed
}

TEST_F(FaultInjectorTest, LinkSpecOverridesDefault) {
  auto src = fabric_.CreateNic();
  auto dst = fabric_.CreateNic();
  auto bystander = fabric_.CreateNic();
  Buffer region = AttachPutRegion(dst, 4);
  Buffer bystander_region = AttachPutRegion(bystander, 4);
  fabric_.injector().SetDefault({.drop = 1.0});
  fabric_.injector().SetLink(src->nid(), dst->nid(), {});  // clean link
  Buffer data = {1};
  ASSERT_TRUE(src->Put(dst->nid(), 0, 1, ByteSpan(data)).ok());
  EXPECT_EQ(region[0], 1);  // the specific link spec won
  ASSERT_TRUE(src->Put(bystander->nid(), 0, 1, ByteSpan(data)).ok());
  EXPECT_EQ(bystander_region[0], 0);  // everyone else gets the default
}

TEST_F(FaultInjectorTest, NodeSpecAppliesBothDirections) {
  auto src = fabric_.CreateNic();
  auto victim = fabric_.CreateNic();
  Buffer region = AttachPutRegion(victim, 4);
  fabric_.injector().SetNode(victim->nid(), {.drop = 1.0});
  Buffer data = {1};
  ASSERT_TRUE(src->Put(victim->nid(), 0, 1, ByteSpan(data)).ok());
  EXPECT_EQ(region[0], 0);  // toward the node
  Buffer src_region = AttachPutRegion(src, 4);
  ASSERT_TRUE(victim->Put(src->nid(), 0, 1, ByteSpan(data)).ok());
  EXPECT_EQ(src_region[0], 0);  // and away from it
}

TEST_F(FaultInjectorTest, ResetRestoresPassThrough) {
  auto src = fabric_.CreateNic();
  auto dst = fabric_.CreateNic();
  Buffer region = AttachPutRegion(dst, 4);
  fabric_.injector().SetDefault({.drop = 1.0});
  EXPECT_TRUE(fabric_.injector().enabled());
  fabric_.injector().Reset();
  EXPECT_FALSE(fabric_.injector().enabled());
  Buffer data = {8};
  ASSERT_TRUE(src->Put(dst->nid(), 0, 1, ByteSpan(data)).ok());
  EXPECT_EQ(region[0], 8);
  EXPECT_EQ(fabric_.injector().metrics()->Snapshot().Get("drops"), 0u);
}

TEST_F(FaultInjectorTest, SameSeedSameFaultSequence) {
  auto run = [](std::uint64_t seed) {
    Fabric fabric;
    auto src = fabric.CreateNic();
    auto dst = fabric.CreateNic();
    Buffer region(1, 0);
    MeOptions opts;
    opts.allow_put = true;
    EXPECT_TRUE(
        dst->Attach(0, 1, 0, MutableByteSpan(region), opts, nullptr).ok());
    fabric.injector().Seed(seed);
    fabric.injector().SetDefault({.drop = 0.5});
    std::vector<bool> delivered;
    Buffer data = {1};
    for (int i = 0; i < 64; ++i) {
      region[0] = 0;
      EXPECT_TRUE(src->Put(dst->nid(), 0, 1, ByteSpan(data)).ok());
      delivered.push_back(region[0] == 1);
    }
    return delivered;
  };
  EXPECT_EQ(run(0xC0FFEE), run(0xC0FFEE));
  EXPECT_NE(run(0xC0FFEE), run(0xBADBEE));  // astronomically unlikely to tie
}

}  // namespace
}  // namespace lwfs::portals

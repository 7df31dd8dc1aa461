// Tests for the event-driven logical-client engine (src/driver) and the
// checkpoint WritePipeline state machine it drives: carrier scheduling,
// completion and timer wakes, per-client deterministic RNG streams,
// logical-waiter interaction with the virtual clock, and the scheduled
// lock-retry pattern that replaces sleep-loop polling.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "checkpoint/write_pipeline.h"
#include "core/runtime.h"
#include "driver/driver.h"
#include "txn/lock_retry.h"
#include "txn/lock_table.h"
#include "util/clock.h"

namespace lwfs {
namespace {

void Mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
}

/// Counts down `rounds` runnable polls, then finishes.
class Spinner final : public driver::LogicalClient {
 public:
  explicit Spinner(int rounds) : rounds_(rounds) {}
  driver::Step Poll(driver::Context&) override {
    if (rounds_-- > 0) return driver::Step::kRunnable;
    return driver::Step::kDone;
  }

 private:
  int rounds_;
};

TEST(DriverEngine, DrivesManyMachinesOverFewCarriers) {
  driver::EngineOptions options;
  options.carriers = 3;
  driver::Engine engine(options);
  constexpr std::uint64_t kN = 10000;
  for (std::uint64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(engine.Add(std::make_unique<Spinner>(3)), i);
  }
  ASSERT_TRUE(engine.Run().ok());
  const driver::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.clients, kN);
  EXPECT_EQ(stats.done, kN);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.polls, kN * 4);  // 3 runnable rounds + the finishing poll
  EXPECT_EQ(stats.clients_per_carrier, (kN + 2) / 3);
  EXPECT_EQ(engine.Run().code(), ErrorCode::kFailedPrecondition);
}

/// Blocks without arming anything — the engine must report it, not hang.
class Staller final : public driver::LogicalClient {
 public:
  driver::Step Poll(driver::Context&) override {
    return driver::Step::kBlocked;
  }
};

TEST(DriverEngine, BlockedMachineWithNoWakeIsAnError) {
  driver::Engine engine(driver::EngineOptions{});
  engine.Add(std::make_unique<Spinner>(1));
  engine.Add(std::make_unique<Staller>());
  const Status status = engine.Run();
  EXPECT_EQ(status.code(), ErrorCode::kInternal);
  EXPECT_EQ(engine.stats().failed, 1u);
  EXPECT_EQ(engine.stats().done, 2u);  // the stalled machine is retired too
}

/// Hops through `rounds` rng-spaced timer wakes, folding every observed
/// virtual timestamp and rng draw into a digest.
class TimerHopper final : public driver::LogicalClient {
 public:
  TimerHopper(int rounds, std::uint64_t* digest)
      : rounds_(rounds), digest_(digest) {}
  driver::Step Poll(driver::Context& ctx) override {
    Mix(*digest_, static_cast<std::uint64_t>(ctx.clock()->Now().count()));
    if (rounds_-- == 0) return driver::Step::kDone;
    const std::uint64_t jitter = ctx.rng().NextBelow(200);
    Mix(*digest_, jitter);
    ctx.WakeAfter(std::chrono::microseconds(50 + jitter));
    return driver::Step::kBlocked;
  }

 private:
  int rounds_;
  std::uint64_t* digest_;
};

std::uint64_t RunTimerSwarm(std::uint64_t seed) {
  util::VirtualClock clock;
  util::Clock::ThreadGuard guard(&clock);
  driver::EngineOptions options;
  options.carriers = 2;
  options.seed = seed;
  options.clock = &clock;
  driver::Engine engine(options);
  constexpr int kN = 64;
  std::vector<std::uint64_t> digests(kN, 0xCBF29CE484222325ULL);
  for (int i = 0; i < kN; ++i) {
    engine.Add(std::make_unique<TimerHopper>(5, &digests[i]));
  }
  EXPECT_TRUE(engine.Run().ok());
  EXPECT_EQ(engine.stats().timer_fires, static_cast<std::uint64_t>(kN) * 5);
  std::uint64_t combined = 0xCBF29CE484222325ULL;
  for (std::uint64_t d : digests) Mix(combined, d);
  return combined;
}

TEST(DriverEngine, TimerWakesAreDeterministicOnVirtualTime) {
  // Parked machines' timers are reached through the carrier's logical
  // waiter on the virtual clock; two runs from one seed replay the same
  // interleaving bit-for-bit, and a different seed diverges.
  const std::uint64_t a = RunTimerSwarm(7);
  const std::uint64_t b = RunTimerSwarm(7);
  const std::uint64_t c = RunTimerSwarm(8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(DriverEngine, RngStreamsDifferPerClient) {
  driver::EngineOptions options;
  options.seed = 42;
  driver::Engine engine(options);
  constexpr int kN = 16;
  std::vector<std::uint64_t> first(kN, 0);
  class Probe final : public driver::LogicalClient {
   public:
    explicit Probe(std::uint64_t* out) : out_(out) {}
    driver::Step Poll(driver::Context& ctx) override {
      *out_ = ctx.rng().NextU64();
      return driver::Step::kDone;
    }

   private:
    std::uint64_t* out_;
  };
  for (int i = 0; i < kN; ++i) {
    engine.Add(std::make_unique<Probe>(&first[i]));
  }
  ASSERT_TRUE(engine.Run().ok());
  for (int i = 0; i < kN; ++i) {
    for (int j = i + 1; j < kN; ++j) EXPECT_NE(first[i], first[j]);
  }
}

/// Acquire an exclusive lock with scheduled-timer retries (the event-driven
/// counterpart of Client::LockBlocking's sleep loop), hold it across a
/// timer wake, release, done.
class LockWorker final : public driver::LogicalClient {
 public:
  LockWorker(core::Client* client, txn::LockKey key) : client_(client), key_(key) {}

  driver::Step Poll(driver::Context& ctx) override {
    for (;;) {
      switch (stage_) {
        case Stage::kIssueTry: {
          auto handle = client_->TryLockAsync(key_, txn::kWholeResource,
                                              txn::LockMode::kExclusive);
          if (!handle.ok()) return Fail(handle.status());
          call_ = std::move(*handle);
          ctx.WakeOnComplete(call_);
          stage_ = Stage::kAwaitTry;
          return driver::Step::kBlocked;
        }
        case Stage::kAwaitTry: {
          Result<Buffer> reply = Buffer{};
          if (!call_.TryAwait(&reply)) return driver::Step::kBlocked;
          auto id = core::Client::ResolveTryLock(std::move(reply));
          if (!id.ok()) {
            if (id.status().code() != ErrorCode::kResourceExhausted) {
              return Fail(id.status());
            }
            // Contended: arm the shared backoff schedule as a timer wake
            // instead of sleeping an OS thread.
            if (!retry_.has_value()) {
              retry_.emplace(ctx.clock()->Now(), std::chrono::seconds(10));
            }
            const auto next = retry_->Next(ctx.clock()->Now());
            if (!next.has_value()) return Fail(Timeout("lock wait timed out"));
            ++retries_;
            ctx.WakeAt(*next);
            stage_ = Stage::kIssueTry;
            return driver::Step::kBlocked;
          }
          lock_id_ = *id;
          retry_.reset();
          stage_ = Stage::kHold;
          ctx.WakeAfter(std::chrono::microseconds(200));
          return driver::Step::kBlocked;
        }
        case Stage::kHold: {
          auto handle = client_->UnlockAsync(lock_id_);
          if (!handle.ok()) return Fail(handle.status());
          call_ = std::move(*handle);
          ctx.WakeOnComplete(call_);
          stage_ = Stage::kAwaitUnlock;
          return driver::Step::kBlocked;
        }
        case Stage::kAwaitUnlock: {
          Result<Buffer> reply = Buffer{};
          if (!call_.TryAwait(&reply)) return driver::Step::kBlocked;
          const Status unlocked = core::Client::ResolveUnlock(std::move(reply));
          if (!unlocked.ok()) return Fail(unlocked);
          held_ = true;
          return driver::Step::kDone;
        }
      }
    }
  }

  [[nodiscard]] Status result() const override { return result_; }
  [[nodiscard]] bool held() const { return held_; }
  [[nodiscard]] int retries() const { return retries_; }

 private:
  enum class Stage { kIssueTry, kAwaitTry, kHold, kAwaitUnlock };
  driver::Step Fail(Status status) {
    result_ = std::move(status);
    return driver::Step::kDone;
  }

  core::Client* client_;
  txn::LockKey key_;
  Stage stage_ = Stage::kIssueTry;
  rpc::CallHandle call_;
  std::optional<txn::LockRetrySchedule> retry_;
  txn::LockId lock_id_ = 0;
  Status result_ = OkStatus();
  bool held_ = false;
  int retries_ = 0;
};

TEST(DriverEngine, ContendedLockMachinesRetryOnTimersNotSleeps) {
  util::VirtualClock clock;
  util::Clock::ThreadGuard guard(&clock);
  core::RuntimeOptions options;
  options.storage_servers = 1;
  options.clock = &clock;
  auto runtime = core::ServiceRuntime::Start(options);
  ASSERT_TRUE(runtime.ok());

  // One endpoint per machine: the lock table is re-entrant per owner
  // (owner = client nid), so real contention needs distinct nids.
  driver::EngineOptions eng;
  eng.carriers = 2;
  eng.clock = &clock;
  driver::Engine engine(eng);
  const txn::LockKey key{1, 99};
  constexpr int kN = 8;
  std::vector<std::unique_ptr<core::Client>> endpoints;
  std::vector<LockWorker*> workers;
  for (int i = 0; i < kN; ++i) {
    endpoints.push_back((*runtime)->MakeClient());
    auto worker = std::make_unique<LockWorker>(endpoints.back().get(), key);
    workers.push_back(worker.get());
    engine.Add(std::move(worker));
  }
  ASSERT_TRUE(engine.Run().ok());

  int total_retries = 0;
  for (const LockWorker* w : workers) {
    EXPECT_TRUE(w->held());
    total_retries += w->retries();
  }
  // The lock is exclusive and held across a timer wake, so later machines
  // must have found it busy at least once each.
  EXPECT_GE(total_retries, kN - 1);
  EXPECT_GT(engine.stats().timer_fires, 0u);
}

TEST(DriverEngine, WritePipelineRunsFullAuthCreateStreamVerifyPath) {
  util::VirtualClock clock;
  util::Clock::ThreadGuard guard(&clock);
  core::RuntimeOptions options;
  options.storage_servers = 4;
  options.clock = &clock;
  auto runtime = core::ServiceRuntime::Start(options);
  ASSERT_TRUE(runtime.ok());
  (*runtime)->AddUser("machines", "pw", 7);

  // The machines log in and acquire their own capability, so the container
  // is the only pre-provisioned state.
  auto admin = (*runtime)->MakeClient();
  auto cred = admin->Login("machines", "pw");
  ASSERT_TRUE(cred.ok());
  auto cid = admin->CreateContainer(*cred);
  ASSERT_TRUE(cid.ok());

  const Buffer payload(10000, 0x5A);
  driver::EngineOptions eng;
  eng.carriers = 2;
  eng.clock = &clock;
  auto shard0 = (*runtime)->MakeClient();
  auto shard1 = (*runtime)->MakeClient();
  core::Client* shards[] = {shard0.get(), shard1.get()};
  driver::Engine engine(eng);
  constexpr std::uint32_t kN = 32;
  std::vector<checkpoint::WritePipeline*> machines;
  for (std::uint32_t i = 0; i < kN; ++i) {
    checkpoint::WritePipeline::Spec spec;
    spec.client = shards[i % 2];
    spec.server = i % 4;
    spec.principal = "machines";
    spec.secret = "pw";
    spec.cid = *cid;
    spec.cap_ops = security::kOpAll;
    spec.payload = util::SharedSlice::External(payload);
    spec.chunk_bytes = 4096;  // 3 chunks, windowed 2 deep
    spec.window = 2;
    spec.verify_attr = true;
    auto machine = std::make_unique<checkpoint::WritePipeline>(std::move(spec));
    machines.push_back(machine.get());
    engine.Add(std::move(machine));
  }
  ASSERT_TRUE(engine.Run().ok());

  for (std::uint32_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(machines[i]->result().ok()) << machines[i]->result().ToString();
    EXPECT_TRUE(machines[i]->created());
    EXPECT_TRUE(machines[i]->dumped());
    auto attr = admin->GetAttr(i % 4,
                               *admin->GetCap(*cred, *cid, security::kOpAll),
                               machines[i]->oid());
    ASSERT_TRUE(attr.ok());
    EXPECT_EQ(attr->size, payload.size());
  }
  std::uint64_t objects = 0;
  for (int s = 0; s < 4; ++s) objects += (*runtime)->store(s).ObjectCount();
  EXPECT_GE(objects, static_cast<std::uint64_t>(kN));
}

TEST(LockRetrySchedule, DoublesFromFiftyMicrosAndHonorsDeadline) {
  using namespace std::chrono;
  const util::Clock::TimePoint t0{};
  txn::LockRetrySchedule retry(t0, milliseconds(1));
  auto n1 = retry.Next(t0);
  ASSERT_TRUE(n1.has_value());
  EXPECT_EQ(*n1, t0 + microseconds(50));
  auto n2 = retry.Next(*n1);
  ASSERT_TRUE(n2.has_value());
  EXPECT_EQ(*n2, *n1 + microseconds(100));
  auto n3 = retry.Next(*n2);
  ASSERT_TRUE(n3.has_value());
  EXPECT_EQ(*n3, *n2 + microseconds(200));
  // Once the observed time reaches the deadline the schedule reports
  // exhaustion and the caller returns Timeout.
  auto n4 = retry.Next(*n3);
  ASSERT_TRUE(n4.has_value());
  EXPECT_LE(*n4, retry.deadline());
  EXPECT_FALSE(retry.Next(retry.deadline()).has_value());
}

}  // namespace
}  // namespace lwfs

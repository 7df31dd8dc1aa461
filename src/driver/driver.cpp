#include "driver/driver.h"

#include <algorithm>
#include <string>

namespace lwfs::driver {

namespace {

constexpr util::Clock::TimePoint kNever = util::Clock::TimePoint::max();

}  // namespace

// ---------------------------------------------------------------------------
// Context
// ---------------------------------------------------------------------------

util::Clock* Context::clock() const { return engine_->clock_; }

Rng& Context::rng() const {
  // Only the polled client touches its own stream, and only while its
  // carrier runs it — no lock needed.
  return engine_->carriers_[carrier_]->clients[local_].rng;
}

void Context::WakeOnComplete(rpc::CallHandle& handle) const {
  Engine::Carrier& c = *engine_->carriers_[carrier_];
  {
    std::lock_guard<std::mutex> g(c.mu);
    ++c.inflight;
    ++c.clients[local_].pending_wakes;
  }
  const std::uint64_t now_inflight =
      engine_->inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::uint64_t peak =
      engine_->peak_inflight_.load(std::memory_order_relaxed);
  while (peak < now_inflight &&
         !engine_->peak_inflight_.compare_exchange_weak(
             peak, now_inflight, std::memory_order_relaxed)) {
  }
  // Outside the carrier lock: the callback may run inline (call already
  // complete) and CompletionWake takes the lock itself.
  handle.OnComplete([engine = engine_, ci = carrier_,
                     local = local_](const Result<Buffer>&) {
    engine->CompletionWake(ci, local);
  });
}

void Context::WakeAt(util::Clock::TimePoint tp) const {
  Engine::Carrier& c = *engine_->carriers_[carrier_];
  std::lock_guard<std::mutex> g(c.mu);
  Engine::ClientRec& rec = c.clients[local_];
  if (rec.timer_armed) c.timers.erase({rec.timer, local_});
  rec.timer_armed = true;
  rec.timer = tp;
  c.timers.insert({tp, local_});
}

void Context::WakeAfter(util::Clock::Duration d) const {
  WakeAt(engine_->clock_->Now() + std::max(d, util::Clock::Duration::zero()));
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

Engine::Engine(EngineOptions options)
    : options_(options), clock_(util::OrReal(options.clock)) {
  if (options_.carriers == 0) options_.carriers = 1;
  if (options_.max_inflight_per_carrier == 0) {
    options_.max_inflight_per_carrier = 1;
  }
  carriers_.reserve(options_.carriers);
  for (std::size_t i = 0; i < options_.carriers; ++i) {
    carriers_.push_back(std::make_unique<Carrier>());
  }
}

Engine::~Engine() = default;

ClientId Engine::Add(std::unique_ptr<LogicalClient> client) {
  const ClientId id = next_id_++;
  Carrier& c = *carriers_[id % options_.carriers];
  ClientRec rec;
  rec.client = std::move(client);
  // Per-client deterministic stream: mix the engine seed with the global
  // client id through one SplitMix64 round so adjacent ids decorrelate.
  Rng mix(options_.seed ^ (0x9E3779B97F4A7C15ULL * (id + 1)));
  rec.rng = Rng(mix.NextU64());
  rec.queued = true;  // every machine starts runnable
  c.clients.push_back(std::move(rec));
  c.ready.push_back(static_cast<std::uint32_t>(c.clients.size() - 1));
  return id;
}

void Engine::CompletionWake(std::size_t ci, std::uint32_t local) {
  Carrier& c = *carriers_[ci];
  {
    std::lock_guard<std::mutex> g(c.mu);
    ClientRec& rec = c.clients[local];
    if (c.inflight > 0) {
      --c.inflight;
      inflight_.fetch_sub(1, std::memory_order_relaxed);
    }
    if (rec.pending_wakes > 0) --rec.pending_wakes;
    ++c.completion_wakes;
    if (!rec.queued && !rec.done) {
      rec.queued = true;
      c.ready.push_back(local);
    }
  }
  clock_->NotifyAll(c.cv);
}

void Engine::CarrierLoop(std::size_t ci) {
  Carrier& c = *carriers_[ci];
  std::unique_lock<std::mutex> lk(c.mu);
  for (;;) {
    // Fire due timers.
    const util::Clock::TimePoint now = clock_->Now();
    while (!c.timers.empty() && c.timers.begin()->first <= now) {
      const std::uint32_t local = c.timers.begin()->second;
      c.timers.erase(c.timers.begin());
      ClientRec& rec = c.clients[local];
      rec.timer_armed = false;
      ++c.timer_fires;
      if (!rec.queued && !rec.done) {
        rec.queued = true;
        c.ready.push_back(local);
      }
    }
    // Exit only when every machine finished AND every armed completion has
    // fired — callbacks capture this engine, so none may outlive Run().
    if (c.done_count == c.clients.size() && c.inflight == 0) return;
    const bool throttled = c.inflight >= options_.max_inflight_per_carrier;
    if (c.ready.empty() || throttled) {
      const util::Clock::TimePoint earliest =
          c.timers.empty() ? kNever : c.timers.begin()->first;
      // Publish the earliest parked deadline as this carrier's logical
      // waiter so a VirtualClock advance can reach it; the timed wait is
      // the belt-and-braces real-time path.  Single-shot waits, no
      // predicate loop: a logical-waiter fire notifies the cv without
      // changing any predicate, and the loop re-derives everything anyway.
      clock_->SetLogicalDeadline(c.logical_waiter, earliest);
      if (earliest == kNever) {
        clock_->Wait(c.cv, lk);
      } else {
        (void)clock_->WaitUntil(c.cv, lk, earliest);
      }
      clock_->SetLogicalDeadline(c.logical_waiter, kNever);
      continue;
    }
    const std::uint32_t local = c.ready.front();
    c.ready.pop_front();
    ClientRec& rec = c.clients[local];
    rec.queued = false;
    if (rec.done) continue;  // completed while still queued
    lk.unlock();  // Poll runs unlocked: it issues calls and arms wakes
    Context ctx(this, ci, local);
    ctx.id_ = static_cast<ClientId>(local) * options_.carriers + ci;
    const Step step = rec.client->Poll(ctx);
    lk.lock();
    ++c.polls;
    switch (step) {
      case Step::kRunnable:
        if (!rec.queued) {
          rec.queued = true;
          c.ready.push_back(local);
        }
        break;
      case Step::kBlocked:
        // A wake that raced in during Poll may have re-queued it already.
        if (rec.pending_wakes == 0 && !rec.timer_armed && !rec.queued) {
          rec.done = true;
          ++c.done_count;
          ++c.failed;
          if (c.first_error.ok()) {
            c.first_error = Internal(
                "logical client " + std::to_string(ctx.id_) +
                " blocked with no completion wake or timer armed");
          }
        }
        break;
      case Step::kDone: {
        rec.done = true;
        ++c.done_count;
        if (rec.timer_armed) {  // don't let a dead timer advance the clock
          c.timers.erase({rec.timer, local});
          rec.timer_armed = false;
        }
        const Status s = rec.client->result();
        if (!s.ok()) {
          ++c.failed;
          if (c.first_error.ok()) c.first_error = s;
        }
        break;
      }
    }
  }
}

Status Engine::Run() {
  if (ran_) return FailedPrecondition("driver engine is single-use");
  ran_ = true;
  for (auto& c : carriers_) {
    c->logical_waiter = clock_->RegisterLogicalWaiter(&c->cv);
  }
  // Spawn in index order: carrier registration order — and thus the
  // virtual-time interleaving — is deterministic.
  for (std::size_t ci = 0; ci < carriers_.size(); ++ci) {
    Carrier* c = carriers_[ci].get();
    c->thread = clock_->SpawnThread([this, ci] { CarrierLoop(ci); });
  }
  for (auto& c : carriers_) clock_->Join(c->thread);
  for (auto& c : carriers_) clock_->UnregisterLogicalWaiter(c->logical_waiter);
  for (auto& c : carriers_) {
    if (!c->first_error.ok()) return c->first_error;
  }
  return OkStatus();
}

EngineStats Engine::stats() const {
  // Valid once Run() returned (carriers joined — no concurrent writers).
  EngineStats s;
  s.carriers = carriers_.size();
  s.peak_inflight = peak_inflight_.load(std::memory_order_relaxed);
  for (const auto& c : carriers_) {
    s.clients += c->clients.size();
    s.done += c->done_count;
    s.failed += c->failed;
    s.polls += c->polls;
    s.completion_wakes += c->completion_wakes;
    s.timer_fires += c->timer_fires;
    s.clients_per_carrier = std::max(
        s.clients_per_carrier, static_cast<std::uint64_t>(c->clients.size()));
  }
  return s;
}

}  // namespace lwfs::driver

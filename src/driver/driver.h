// Event-driven logical-client engine: the scale harness for the paper's
// petaflop argument (§4, Figs 9–10).
//
// The thread-per-client model caps a real-stack deployment at a few
// thousand clients — each client pins an OS thread in CallHandle::Await.
// This engine inverts that: a small pool of *carrier* threads drives
// 100k–1M *logical clients*, each a resumable state machine
// (`LogicalClient`) multiplexed over the RPC layer's asynchronous
// CallAsync/CallHandle engine.  A logical client never blocks a carrier:
// when it has in-flight calls it parks and asks to be woken on completion
// (CallHandle::OnComplete) or at a deadline (a per-client timer slot), and
// the carrier moves on to the next runnable machine.
//
// Determinism: every logical client gets its own SplitMix64 stream seeded
// from (engine seed, global client id), and all waiting goes through the
// engine's Clock — under a VirtualClock a run is bit-reproducible.  While
// a carrier sleeps, it publishes the earliest deadline among its parked
// machines as a *logical waiter* on the clock, so virtual time can advance
// to a parked client's timer even though no OS thread holds that deadline.
//
// Flow control: each carrier caps the number of armed completion wakes
// (max_inflight_per_carrier).  At the cap the carrier stops polling
// runnable machines until completions drain — the same bounded-window
// argument as Figure 6, applied across machines — which also bounds the
// RPC engine's per-tick bookkeeping.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "rpc/rpc.h"
#include "util/clock.h"
#include "util/rng.h"
#include "util/status.h"

namespace lwfs::driver {

/// Global logical-client id (assigned by Engine::Add, starting at 0).
using ClientId = std::uint64_t;

/// What a Poll() step left the machine in.
enum class Step {
  kRunnable,  // made progress, can run again immediately
  kBlocked,   // parked: woken by an armed completion or timer
  kDone,      // finished; result() holds the outcome
};

class Engine;

/// Per-poll context handed to a logical client.  Valid only for the
/// duration of the Poll() call that received it.
class Context {
 public:
  [[nodiscard]] util::Clock* clock() const;
  [[nodiscard]] ClientId id() const { return id_; }
  /// The client's private deterministic stream.
  [[nodiscard]] Rng& rng() const;

  /// Arm a wake for when `handle` completes.  Arm each handle exactly once
  /// (at issue time); the wake fires even if the call already completed.
  /// Armed wakes count against the carrier's in-flight cap.
  void WakeOnComplete(rpc::CallHandle& handle) const;

  /// (Re)arm this client's single timer slot; a later WakeAt overwrites an
  /// earlier one.  Used for scheduled retries (lock polling) and pacing.
  void WakeAt(util::Clock::TimePoint tp) const;
  void WakeAfter(util::Clock::Duration d) const;

 private:
  friend class Engine;
  Context(Engine* engine, std::size_t carrier, std::uint32_t local)
      : engine_(engine), carrier_(carrier), local_(local) {}

  Engine* engine_;
  std::size_t carrier_;
  std::uint32_t local_;
  ClientId id_ = 0;
};

/// A resumable client state machine.  Poll() runs on a carrier thread and
/// must never block: issue asynchronous calls, arm wakes through the
/// Context, and return kBlocked.  A machine that returns kBlocked with no
/// completion wake armed and no timer set is reported as an Internal error
/// (it could never run again).
class LogicalClient {
 public:
  virtual ~LogicalClient() = default;
  virtual Step Poll(Context& ctx) = 0;
  /// Outcome; meaningful once Poll returned kDone.
  [[nodiscard]] virtual Status result() const { return OkStatus(); }
};

struct EngineOptions {
  /// Carrier threads.  Clients are sharded carrier = id % carriers (a
  /// stable contract — callers use it to give each shard its own
  /// core::Client endpoint).
  std::size_t carriers = 2;
  /// Root of every per-client RNG stream.
  std::uint64_t seed = 1;
  /// Cap on armed completion wakes per carrier (the outstanding-request
  /// window). Must be > 0.
  std::size_t max_inflight_per_carrier = 1024;
  util::Clock* clock = nullptr;  // nullptr = real time
};

struct EngineStats {
  std::uint64_t clients = 0;
  std::uint64_t done = 0;
  std::uint64_t failed = 0;          // finished with a non-OK result
  std::uint64_t polls = 0;           // Poll() invocations
  std::uint64_t completion_wakes = 0;
  std::uint64_t timer_fires = 0;
  std::uint64_t clients_per_carrier = 0;  // largest shard
  std::uint64_t carriers = 0;
  /// Most completion wakes armed at once across every carrier — the peak
  /// number of outstanding requests the machines had in flight.
  std::uint64_t peak_inflight = 0;
};

/// Carrier-pool scheduler.  Add() all clients, then Run() once: it spawns
/// the carriers through the clock, drives every machine to kDone, and
/// returns the first non-OK client result (all machines run to completion
/// regardless).  Not reusable after Run().
class Engine {
 public:
  explicit Engine(EngineOptions options);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Register a client; returns its global id.  Call before Run().
  ClientId Add(std::unique_ptr<LogicalClient> client);

  Status Run();

  [[nodiscard]] EngineStats stats() const;

 private:
  friend class Context;

  struct ClientRec {
    std::unique_ptr<LogicalClient> client;
    Rng rng{0};
    bool queued = false;      // in the carrier's ready deque
    bool done = false;
    std::uint32_t pending_wakes = 0;  // armed, unfired completion wakes
    bool timer_armed = false;
    util::Clock::TimePoint timer{};
  };

  struct Carrier {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::uint32_t> ready;  // local indices
    // (deadline, local) — one armed timer slot per client.
    std::set<std::pair<util::Clock::TimePoint, std::uint32_t>> timers;
    std::vector<ClientRec> clients;
    std::size_t inflight = 0;  // armed completion wakes
    std::size_t done_count = 0;
    Status first_error = OkStatus();
    std::uint64_t polls = 0;
    std::uint64_t completion_wakes = 0;
    std::uint64_t timer_fires = 0;
    std::uint64_t failed = 0;
    std::uint64_t logical_waiter = 0;  // clock logical-waiter id
    std::thread thread;
  };

  void CarrierLoop(std::size_t ci);
  /// Completion callback target: runs on an RpcClient engine thread (or
  /// inline on the carrier when the call had already completed).
  void CompletionWake(std::size_t ci, std::uint32_t local);

  EngineOptions options_;
  util::Clock* clock_;
  std::vector<std::unique_ptr<Carrier>> carriers_;
  std::atomic<std::uint64_t> inflight_{0};  // armed wakes, all carriers
  std::atomic<std::uint64_t> peak_inflight_{0};
  std::uint64_t next_id_ = 0;
  bool ran_ = false;
};

}  // namespace lwfs::driver

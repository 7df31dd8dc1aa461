// Server-side I/O scheduler (§3.2: the server *directs* data movement).
//
// The storage server's data plane runs several RPC workers; each worker
// hands its extents to this scheduler instead of touching the modeled
// medium directly, and every medium access of the server — client,
// chain-replica and repair traffic alike — runs through this one
// executor, one run at a time.  Extents that queue are drained by the
// scheduler thread in batches: it merges adjacent/overlapping extents on
// the same object into contiguous *runs*, services each object's runs in
// ascending offset order (an elevator pass), and charges the modeled
// medium once per run — one seek/op cost (`modeled_op_latency_us`) plus
// the run's bytes at `modeled_disk_mb_s`.  Merging queued small strided
// accesses into large contiguous ones is the dominant server-side win the
// noncontiguous-I/O literature reports, and it is only possible because
// requests queue at the server rather than being pushed through it in
// arrival order.  With `coalesce` off the same executor services every
// extent as its own run in arrival order — the per-request FIFO baseline.
//
// Queueing only pays when there is something to queue behind.  A
// synchronous Write or Read that finds the queue empty, no run in
// service, and no modeled medium time to charge is serviced on the
// calling worker itself, as a one-member batch through the same
// ServiceBatch (counted `inline`): no handoff to the scheduler thread and
// none back.  One run is in service at a time, inline or batched, so
// whatever arrives meanwhile still queues and is planned together; a
// modeled medium always queues, so virtual-time results do not move.
//
// Staging memory is bounded by a StagingPool: a worker cannot pull bulk
// bytes from a client (or materialize a read) until it has reserved pool
// space, so the server's buffer footprint stays fixed no matter how many
// clients burst at once.  When the pool is full, workers stall, the bounded
// request portal fills, and new requests are rejected with
// kResourceExhausted — the same back-pressure path the protocol already
// has.
//
// Two invariants keep the pool deadlock- and hang-free:
//   1. No thread ever blocks in Acquire while holding a reservation.
//      Servicing never acquires: the scheduler thread releases queued
//      service fns' reservations, and an inline servicer holds only the
//      reservation of the run it services.  A write worker's pipelined
//      reservations are owned by its queued service fns, and a read
//      worker holds exactly one reservation, taken while it held none.
//   2. Close() wakes every blocked Acquire with kUnavailable, so shutdown
//      can never hang on a waiter (StorageServer::Stop closes the pool
//      before joining its data workers).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "storage/ids.h"
#include "util/clock.h"
#include "util/metrics.h"
#include "util/shared_buffer.h"
#include "util/status.h"

namespace lwfs::core {

/// One queued extent awaiting medium service.
struct PendingExtent {
  storage::ObjectId oid;
  bool is_write = false;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
};

/// A contiguous medium access covering one or more queued extents of one
/// object, all in the same direction.
struct MergedRun {
  storage::ObjectId oid;
  bool is_write = false;
  std::uint64_t offset = 0;  // lowest member offset
  std::uint64_t end = 0;     // highest member offset+length
  /// Indices into the planned batch, ascending by offset.
  std::vector<std::size_t> members;

  [[nodiscard]] std::uint64_t bytes() const { return end - offset; }
};

/// Pure merge planner: groups `batch` by (object, direction), orders each
/// group by offset, and merges extents that touch or overlap
/// (next.offset <= run.end) into runs.  Runs come back sorted by
/// (object, offset) — the elevator service order.  With `coalesce` false
/// every extent is its own run, in arrival order.  Exposed separately from
/// the scheduler so tests can pin the merge logic without threads.
std::vector<MergedRun> PlanRuns(std::span<const PendingExtent> batch,
                                bool coalesce = true);

/// Completion handle for one submitted extent.  The scheduler publishes the
/// service status (and, for a read, the extent's sub-slice); the
/// submitting worker blocks in Await.
class IoTicket {
 public:
  Status Await();

 private:
  friend class IoScheduler;
  util::Clock* clock_ = nullptr;  // set by Submit; nullptr = real time
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  Status status_ = OkStatus();
  util::SharedSlice slice_;
};

/// Bounded staging memory for in-flight bulk chunks.  Acquire blocks until
/// the reservation fits; requests larger than the capacity are clamped by
/// the caller (chunking already bounds per-reservation size).
///
/// A caller must never block in Acquire while it still holds a
/// reservation (see the deadlock invariant in the file comment); a caller
/// that already holds one can only take more with the non-blocking
/// TryAcquire.
class StagingPool : public metrics::Instrumented {
 public:
  explicit StagingPool(std::size_t capacity, util::Clock* clock = nullptr)
      : capacity_(capacity), clock_(util::OrReal(clock)), free_(capacity) {}

  /// Reserve `n` bytes, blocking while the pool is exhausted.  Fails with
  /// kUnavailable once the pool is closed (waiters are woken).
  [[nodiscard]] Status Acquire(std::size_t n);
  /// Reserve `n` bytes only if they are free right now; never blocks.
  /// Returns false when the pool lacks space or is closed.
  [[nodiscard]] bool TryAcquire(std::size_t n);
  void Release(std::size_t n);

  /// Wake every blocked Acquire with kUnavailable and fail all future
  /// ones.  Release still works, so outstanding reservations drain
  /// normally.  Called at server shutdown so no worker can hang here.
  void Close();

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  util::Clock* const clock_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t free_;
  bool closed_ = false;
  /// Times an Acquire had to wait — each is a burst the pool absorbed.
  metrics::Counter waits_ = metrics_->counter("waits");
};

/// RAII releaser for a StagingPool reservation the caller has already
/// acquired (via Acquire or TryAcquire); shareable so a service closure
/// can own it past the submitting worker's scope.  Construction does not
/// acquire — acquisition is fallible and must not hide in a constructor.
class StagingReservation {
 public:
  StagingReservation(StagingPool* pool, std::size_t bytes)
      : pool_(pool), bytes_(bytes) {}
  ~StagingReservation() { pool_->Release(bytes_); }
  StagingReservation(const StagingReservation&) = delete;
  StagingReservation& operator=(const StagingReservation&) = delete;

 private:
  StagingPool* pool_;
  std::size_t bytes_;
};

struct IoSchedulerOptions {
  /// Modeled medium bandwidth in MB/s; 0 disables the byte charge.
  double modeled_disk_mb_s = 0;
  /// Modeled per-access (seek/op) cost in microseconds, charged once per
  /// run; 0 disables it.  This is what makes coalescing pay.
  double modeled_op_latency_us = 0;
  /// Merge queued extents into runs and service them in elevator order.
  /// Off: every extent is its own run, serviced in arrival order.
  bool coalesce = true;
  /// Time source for medium charges and all waits (nullptr = real time).
  util::Clock* clock = nullptr;
};

class IoScheduler : public metrics::Instrumented {
 public:
  /// Performs the store write for one extent once the scheduler has
  /// charged the medium for its run.
  using ServiceFn = std::function<Status()>;
  /// Reads an arbitrary span of the submitted object as a store-owned
  /// slice.  The scheduler calls it ONCE per merged run — with the run's
  /// (offset, length), not the extent's — and hands every member of the
  /// run an O(1) sub-slice of the result.  This is the read path's
  /// coalescing without a staging copy: N queued extents still cost one
  /// medium access, and fan back out as refcount bumps.
  using SliceReadFn = std::function<Result<util::SharedSlice>(
      std::uint64_t offset, std::uint64_t length)>;

  explicit IoScheduler(IoSchedulerOptions options)
      : options_(options),
        clock_(util::OrReal(options.clock)),
        charges_medium_(options.modeled_disk_mb_s > 0 ||
                        options.modeled_op_latency_us > 0) {}
  ~IoScheduler() { Stop(); }

  IoScheduler(const IoScheduler&) = delete;
  IoScheduler& operator=(const IoScheduler&) = delete;

  void Start();
  /// Services everything already queued, then joins the thread.  Extents
  /// submitted after Stop fail with kUnavailable.
  void Stop();

  /// Queue one WRITE extent; `fn` runs on the scheduler thread in elevator
  /// order and the returned ticket resolves to its status.  For a write
  /// whose caller keeps later extents in flight behind it.
  std::shared_ptr<IoTicket> Submit(storage::ObjectId oid, std::uint64_t offset,
                                   std::uint64_t length, ServiceFn fn);

  /// Service one WRITE extent and return its status.  An idle scheduler
  /// with no modeled medium runs `fn` on the calling thread; otherwise the
  /// extent queues exactly as Submit's and the caller waits for it.
  Status Write(storage::ObjectId oid, std::uint64_t offset,
               std::uint64_t length, ServiceFn fn);

  /// Service one READ extent and return its bytes as a store-owned slice.
  /// `reader` runs once per merged run and this extent gets its clamped
  /// sub-slice, so a short run read (EOF inside the run) yields a short or
  /// empty slice.  Serviced on the calling thread under the same
  /// conditions as Write.
  Result<util::SharedSlice> Read(storage::ObjectId oid, std::uint64_t offset,
                                 std::uint64_t length, SliceReadFn reader);

 private:
  struct QueuedIo {
    PendingExtent extent;
    ServiceFn fn;          // writes
    SliceReadFn slice_fn;  // reads
    std::shared_ptr<IoTicket> ticket;
  };

  /// Admit one extent: queue it for the scheduler thread, or — when
  /// `may_inline` and nothing is queued, in service or charged — service
  /// it on the calling thread before returning.  Either way the ticket
  /// resolves to the extent's result.
  std::shared_ptr<IoTicket> Enqueue(QueuedIo io, bool may_inline);
  void Loop();
  void ServiceBatch(std::vector<QueuedIo> batch);
  /// Sleep out one run's modeled medium time.
  void ChargeRun(std::uint64_t bytes);
  static void Complete(IoTicket& ticket, Status status);

  const IoSchedulerOptions options_;
  util::Clock* const clock_;
  /// A run sleeps out modeled medium time; such a run always queues.
  const bool charges_medium_;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<QueuedIo> queue_;
  bool running_ = false;
  bool stopping_ = false;
  /// A run (a batch on the scheduler thread, or an inline run on a
  /// worker) holds the medium; nothing else starts until it clears.
  bool in_service_ = false;
  std::thread thread_;
  /// The modeled medium's busy horizon; scheduler thread only (an
  /// inline run charges nothing).
  util::Clock::TimePoint medium_free_at_{};
  bool medium_idle_ = true;

  metrics::Counter requests_ = metrics_->counter("requests");
  metrics::Counter runs_ = metrics_->counter("runs");
  metrics::Counter inline_ = metrics_->counter("inline");
  metrics::Counter merges_ = metrics_->counter("merges");
  metrics::Counter coalesced_bytes_ = metrics_->counter("coalesced_bytes");
  metrics::Gauge queue_depth_ = metrics_->gauge("queue_depth");
};

}  // namespace lwfs::core

#include "core/io_scheduler.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace lwfs::core {

std::vector<MergedRun> PlanRuns(std::span<const PendingExtent> batch,
                                bool coalesce) {
  std::vector<MergedRun> runs;
  if (!coalesce) {
    runs.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const PendingExtent& e = batch[i];
      runs.push_back(
          MergedRun{e.oid, e.is_write, e.offset, e.offset + e.length, {i}});
    }
    return runs;
  }
  std::vector<std::size_t> order(batch.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  // Elevator order: one pass per object, offsets ascending; reads and
  // writes on the same object stay separate runs.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const PendingExtent& x = batch[a];
    const PendingExtent& y = batch[b];
    if (x.oid != y.oid) return x.oid < y.oid;
    if (x.is_write != y.is_write) return x.is_write < y.is_write;
    if (x.offset != y.offset) return x.offset < y.offset;
    return a < b;
  });

  for (std::size_t idx : order) {
    const PendingExtent& e = batch[idx];
    const std::uint64_t end = e.offset + e.length;
    if (!runs.empty()) {
      MergedRun& run = runs.back();
      // Merge when the extent continues the run: same object and
      // direction, and its start does not leave a gap after the run's end
      // (touching or overlapping both qualify).
      if (run.oid == e.oid && run.is_write == e.is_write &&
          e.offset <= run.end) {
        run.end = std::max(run.end, end);
        run.members.push_back(idx);
        continue;
      }
    }
    runs.push_back(MergedRun{e.oid, e.is_write, e.offset, end, {idx}});
  }
  return runs;
}

Status IoTicket::Await() {
  util::Clock* clock = util::OrReal(clock_);
  std::unique_lock<std::mutex> lock(mutex_);
  clock->Wait(cv_, lock, [&] { return done_; });
  return status_;
}

Status StagingPool::Acquire(std::size_t n) {
  if (n > capacity_) n = capacity_;  // chunking should prevent this
  std::unique_lock<std::mutex> lock(mutex_);
  if (closed_) return Unavailable("staging pool closed");
  if (free_ < n) {
    waits_.Add();
    clock_->Wait(cv_, lock, [&] { return closed_ || free_ >= n; });
    if (closed_) return Unavailable("staging pool closed");
  }
  free_ -= n;
  return OkStatus();
}

bool StagingPool::TryAcquire(std::size_t n) {
  if (n > capacity_) n = capacity_;  // mirror the Acquire clamp
  std::lock_guard<std::mutex> lock(mutex_);
  if (closed_ || free_ < n) return false;
  free_ -= n;
  return true;
}

void StagingPool::Release(std::size_t n) {
  if (n > capacity_) n = capacity_;  // mirror the Acquire clamp
  {
    std::lock_guard<std::mutex> lock(mutex_);
    free_ += n;
  }
  clock_->NotifyAll(cv_);
}

void StagingPool::Close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  clock_->NotifyAll(cv_);
}

void IoScheduler::Start() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (running_) return;
  running_ = true;
  stopping_ = false;
  thread_ = clock_->SpawnThread([this] { Loop(); });
}

void IoScheduler::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!running_) return;
    stopping_ = true;
  }
  clock_->NotifyAll(cv_);
  if (thread_.joinable()) clock_->Join(thread_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    running_ = false;
  }
}

std::shared_ptr<IoTicket> IoScheduler::Submit(storage::ObjectId oid,
                                              std::uint64_t offset,
                                              std::uint64_t length,
                                              ServiceFn fn) {
  return Enqueue(QueuedIo{PendingExtent{oid, true, offset, length},
                          std::move(fn), nullptr, nullptr},
                 /*may_inline=*/false);
}

Status IoScheduler::Write(storage::ObjectId oid, std::uint64_t offset,
                          std::uint64_t length, ServiceFn fn) {
  return Enqueue(QueuedIo{PendingExtent{oid, true, offset, length},
                          std::move(fn), nullptr, nullptr},
                 /*may_inline=*/true)
      ->Await();
}

Result<util::SharedSlice> IoScheduler::Read(storage::ObjectId oid,
                                            std::uint64_t offset,
                                            std::uint64_t length,
                                            SliceReadFn reader) {
  auto ticket = Enqueue(QueuedIo{PendingExtent{oid, false, offset, length},
                                 nullptr, std::move(reader), nullptr},
                        /*may_inline=*/true);
  LWFS_RETURN_IF_ERROR(ticket->Await());
  // Await observed the completion, which published the slice with it.
  return std::move(ticket->slice_);
}

std::shared_ptr<IoTicket> IoScheduler::Enqueue(QueuedIo io, bool may_inline) {
  auto ticket = std::make_shared<IoTicket>();
  ticket->clock_ = clock_;
  io.ticket = ticket;
  bool serve_here = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!running_ || stopping_) {
      Complete(*ticket, Unavailable("io scheduler stopped"));
      return ticket;
    }
    requests_.Add();
    serve_here =
        may_inline && !charges_medium_ && !in_service_ && queue_.empty();
    if (serve_here) {
      in_service_ = true;
      inline_.Add();
    } else {
      queue_.push_back(std::move(io));
      queue_depth_.Set(queue_.size());
    }
  }
  if (!serve_here) {
    clock_->NotifyAll(cv_);
    return ticket;
  }
  // Nothing to plan against and nothing to wait for: service the run here,
  // through the same path a batch takes.
  std::vector<QueuedIo> batch;
  batch.push_back(std::move(io));
  ServiceBatch(std::move(batch));
  bool queued_meanwhile = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    in_service_ = false;
    queued_meanwhile = !queue_.empty();
  }
  // Only arrivals during the run need the scheduler thread; waking it for
  // nothing would cost the very handoff this path exists to skip.
  if (queued_meanwhile) clock_->NotifyAll(cv_);
  return ticket;
}

void IoScheduler::Loop() {
  for (;;) {
    std::vector<QueuedIo> batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      // Nothing queued: the medium goes idle, and the next run's charge
      // starts from whenever that run arrives.
      if (queue_.empty()) medium_idle_ = true;
      // A batch waits out an inline run in service; stopping with nothing
      // queued ends the loop even while an inline run finishes.
      clock_->Wait(cv_, lock, [&] {
        return (!queue_.empty() && !in_service_) ||
               (stopping_ && queue_.empty());
      });
      if (queue_.empty()) return;  // stopping and drained
      batch.swap(queue_);
      queue_depth_.Set(0);
      in_service_ = true;
    }
    // Everything that queued while the previous run held the medium is
    // planned together — that accumulation is where coalescing comes from.
    ServiceBatch(std::move(batch));
    std::lock_guard<std::mutex> lock(mutex_);
    in_service_ = false;
  }
}

void IoScheduler::ServiceBatch(std::vector<QueuedIo> batch) {
  std::vector<PendingExtent> extents;
  extents.reserve(batch.size());
  for (const QueuedIo& io : batch) extents.push_back(io.extent);
  std::vector<MergedRun> runs = PlanRuns(extents, options_.coalesce);

  for (const MergedRun& run : runs) {
    ChargeRun(run.bytes());
    {
      // Account the run before completing its members, so a caller that
      // has awaited every ticket observes fully up-to-date counters.
      runs_.Add();
      if (run.members.size() > 1) {
        merges_.Add(run.members.size() - 1);
        coalesced_bytes_.Add(run.bytes());
      }
    }
    if (run.is_write) {
      for (std::size_t idx : run.members) {
        QueuedIo& io = batch[idx];
        Status status = io.fn ? io.fn() : OkStatus();
        io.fn = nullptr;  // release pulled chunks and reservations promptly
        Complete(*io.ticket, std::move(status));
      }
      continue;
    }
    // One store access for the whole read run; members fan back out as
    // O(1) sub-slices of the run slice (refcount bumps, no staging copy).
    // Slice() clamps, so a short run read (EOF inside the run) yields short
    // or empty member slices.
    auto run_slice =
        batch[run.members.front()].slice_fn(run.offset, run.bytes());
    for (std::size_t idx : run.members) {
      QueuedIo& io = batch[idx];
      if (run_slice.ok()) {
        util::SharedSlice sub = run_slice->Slice(
            io.extent.offset - run.offset, io.extent.length);
        {
          std::lock_guard<std::mutex> lock(io.ticket->mutex_);
          io.ticket->slice_ = std::move(sub);
        }
        Complete(*io.ticket, OkStatus());
      } else {
        Complete(*io.ticket, run_slice.status());
      }
      io.slice_fn = nullptr;
    }
  }
}

void IoScheduler::ChargeRun(std::uint64_t bytes) {
  double us = options_.modeled_op_latency_us;
  if (options_.modeled_disk_mb_s > 0 && bytes > 0) {
    // bytes / (MB/s * 1e6 B/MB) seconds == bytes / (MB/s) microseconds.
    us += static_cast<double>(bytes) / options_.modeled_disk_mb_s;
  }
  if (us <= 0) return;
  // Back-to-back runs are charged from where the previous run was due to
  // end, not from when this thread woke up, so the host's sleep overshoot
  // never accumulates into modeled medium time.
  if (medium_idle_) {
    medium_free_at_ = clock_->Now();
    medium_idle_ = false;
  }
  medium_free_at_ += std::chrono::microseconds(static_cast<std::int64_t>(us));
  clock_->SleepUntil(medium_free_at_);
}

void IoScheduler::Complete(IoTicket& ticket, Status status) {
  {
    std::lock_guard<std::mutex> lock(ticket.mutex_);
    ticket.done_ = true;
    ticket.status_ = std::move(status);
  }
  util::OrReal(ticket.clock_)->NotifyAll(ticket.cv_);
}

}  // namespace lwfs::core

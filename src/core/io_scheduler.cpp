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

util::SharedSlice IoTicket::TakeSlice() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::move(slice_);
}

Status StagingPool::Acquire(std::size_t n) {
  if (n > capacity_) n = capacity_;  // chunking should prevent this
  std::unique_lock<std::mutex> lock(mutex_);
  if (closed_) return Unavailable("staging pool closed");
  if (free_ < n) {
    waits_.fetch_add(1, std::memory_order_relaxed);
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
                                              bool is_write,
                                              std::uint64_t offset,
                                              std::uint64_t length,
                                              ServiceFn fn) {
  if (!is_write) {
    auto ticket = std::make_shared<IoTicket>();
    Complete(*ticket, InvalidArgument("reads go through SubmitSliceRead"));
    return ticket;
  }
  return Enqueue(QueuedIo{PendingExtent{oid, true, offset, length},
                          std::move(fn), nullptr, nullptr});
}

std::shared_ptr<IoTicket> IoScheduler::SubmitSliceRead(storage::ObjectId oid,
                                                       std::uint64_t offset,
                                                       std::uint64_t length,
                                                       SliceReadFn reader) {
  return Enqueue(QueuedIo{PendingExtent{oid, false, offset, length}, nullptr,
                          std::move(reader), nullptr});
}

std::shared_ptr<IoTicket> IoScheduler::Enqueue(QueuedIo io) {
  auto ticket = std::make_shared<IoTicket>();
  ticket->clock_ = clock_;
  io.ticket = ticket;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!running_ || stopping_) {
      Complete(*ticket, Unavailable("io scheduler stopped"));
      return ticket;
    }
    queue_.push_back(std::move(io));
    requests_.Add();
    queue_depth_.Set(queue_.size());
  }
  clock_->NotifyAll(cv_);
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
      clock_->Wait(cv_, lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      batch.swap(queue_);
      queue_depth_.Set(0);
    }
    // Everything that queued while the previous batch held the medium is
    // planned together — that accumulation is where coalescing comes from.
    ServiceBatch(std::move(batch));
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

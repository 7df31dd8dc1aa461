#include "pfs/striped_io.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <optional>
#include <vector>

namespace lwfs::pfs {

struct StripedIo::State {
  enum class Op { kWrite, kRead, kReadSlice };
  Op op = Op::kWrite;
  StripedPolicy policy;
  util::SharedSlice data;  // kWrite payload
  MutableByteSpan out{};   // kRead destination

  core::Client* client = nullptr;
  security::Capability cap;
  std::uint32_t stripe_size = 0;
  std::vector<StripeTarget> stripes;
  std::uint64_t offset = 0;
  std::uint64_t extent = 0;  // bytes to move; a read's is final after Begin

  std::vector<StripeChunk> chunks;
  std::size_t next = 0;
  bool begun = false;
  std::optional<txn::LockId> lock;

  struct Issued {
    std::size_t chunk = 0;
    core::PendingIo io;             // writes and span reads
    core::PendingSliceIo slice_io;  // slice reads
  };
  std::deque<Issued> inflight;
  // Slice reads: (offset within the extent, bytes), in extent order.
  std::vector<std::pair<std::uint64_t, util::SharedSlice>> pieces;
  std::optional<std::uint64_t> first_short;

  bool completed = false;
  Result<std::uint64_t> result = std::uint64_t{0};
  util::SharedSlice slice;  // kReadSlice result

  /// Take the lock, settle a read's extent, plan the chunks.
  Status Begin();
  Status IssueNext();
  /// Issue chunks until the window is full or none are left.
  Status Fill();
  void RetireFront(Status& error);
  /// Issue and retire every remaining chunk, then settle the result.
  void Run(Status error);
  [[nodiscard]] util::SharedSlice Gather(std::uint64_t end) const;
};

Status StripedIo::State::Begin() {
  begun = true;
  if (policy.lock) {
    auto id = policy.lock();
    if (!id.ok()) return id.status();
    lock = *id;
  }
  if (op != Op::kWrite && policy.read_extent) {
    auto n = policy.read_extent(extent);
    if (!n.ok()) return n.status();
    extent = std::min(extent, *n);
  }
  chunks = MapExtent(stripe_size, static_cast<std::uint32_t>(stripes.size()),
                     offset, extent);
  return OkStatus();
}

Status StripedIo::State::IssueNext() {
  const std::size_t index = next++;
  const StripeChunk& c = chunks[index];
  const StripeTarget& target = stripes[c.stripe_index];
  const auto at = static_cast<std::size_t>(c.file_offset - offset);
  const auto length = static_cast<std::size_t>(c.length);
  Issued issued{index, {}, {}};
  if (op == Op::kReadSlice) {
    auto io = client->ReadObjectSliceAsync(target.server, cap, target.oid,
                                           c.object_offset, c.length);
    if (!io.ok()) return io.status();
    issued.slice_io = std::move(*io);
  } else {
    auto io = op == Op::kWrite
                  ? client->WriteObjectSliceAsync(target.server, cap,
                                                  target.oid, c.object_offset,
                                                  data.Slice(at, length))
                  : client->ReadObjectAsync(target.server, cap, target.oid,
                                            c.object_offset,
                                            out.subspan(at, length));
    if (!io.ok()) return io.status();
    issued.io = std::move(*io);
  }
  inflight.push_back(std::move(issued));
  return OkStatus();
}

Status StripedIo::State::Fill() {
  while (inflight.size() < kIoWindow && next < chunks.size()) {
    LWFS_RETURN_IF_ERROR(IssueNext());
  }
  return OkStatus();
}

void StripedIo::State::RetireFront(Status& error) {
  Issued issued = std::move(inflight.front());
  inflight.pop_front();
  const StripeChunk& c = chunks[issued.chunk];
  const std::uint64_t at = c.file_offset - offset;
  std::uint64_t got = 0;
  if (op == Op::kReadSlice) {
    auto bytes = issued.slice_io.Await();
    if (!bytes.ok()) {
      if (error.ok()) error = bytes.status();
      return;
    }
    got = bytes->size();
    pieces.emplace_back(at, std::move(*bytes));
  } else {
    auto n = issued.io.Await();
    if (!n.ok()) {
      if (error.ok()) error = n.status();
      return;
    }
    got = *n;
    if (op == Op::kRead && got < c.length) {
      auto hole = out.subspan(static_cast<std::size_t>(at + got),
                              static_cast<std::size_t>(c.length - got));
      std::fill(hole.begin(), hole.end(), 0);
    }
  }
  // Chunks retire in extent order, so the first short one seen is first.
  if (got < c.length && !first_short) first_short = at + got;
}

void StripedIo::State::Run(Status error) {
  for (;;) {
    if (error.ok()) error = Fill();
    if (inflight.empty()) break;
    RetireFront(error);
  }
  if (error.ok()) result = policy.end(extent, first_short.value_or(extent));
  if (lock) {
    Status unlocked = policy.unlock(*lock);
    lock.reset();
    if (error.ok()) error = unlocked;
  }
  completed = true;
  if (!error.ok()) {
    result = error;
  } else if (op == Op::kReadSlice) {
    slice = Gather(*result);
  }
}

util::SharedSlice StripedIo::State::Gather(std::uint64_t end) const {
  if (end == 0) return {};
  // One chunk that is exactly the result: the server's slice passes through.
  if (pieces.size() == 1 && pieces[0].second.size() == end) {
    return pieces[0].second;
  }
  // Gather into one fresh slice; holes stay zero.  One delivery copy per
  // byte — final delivery, outside the staging budget.
  Buffer gathered(static_cast<std::size_t>(end), std::uint8_t{0});
  for (const auto& [at, bytes] : pieces) {
    if (at >= end) break;
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(bytes.size(), end - at));
    std::copy_n(bytes.span().begin(), n,
                gathered.begin() + static_cast<std::ptrdiff_t>(at));
    LWFS_COUNT_COPY(util::CopyKind::kDeliver, n);
  }
  return util::SharedSlice::FromBuffer(std::move(gathered));
}

StripedIo::StripedIo() = default;
StripedIo::StripedIo(StripedIo&&) noexcept = default;
StripedIo& StripedIo::operator=(StripedIo&&) noexcept = default;

StripedIo::~StripedIo() {
  // Drain so the caller's span is quiescent before it can be freed.
  if (state_ && !state_->completed) (void)Await();
}

Result<StripedIo> StripedIo::Start(std::unique_ptr<State> state,
                                   const StripedFile& file,
                                   std::uint64_t offset) {
  // A wrapping extent would map onto the file's first bytes: refuse it
  // before anything is locked or sent.
  if (state->extent > std::numeric_limits<std::uint64_t>::max() - offset) {
    return InvalidArgument("extent end overflows the file offset space");
  }
  State& s = *state;
  s.client = file.client;
  s.cap = file.cap;
  s.stripe_size = file.stripe_size;
  s.stripes.assign(file.stripes.begin(), file.stripes.end());
  s.offset = offset;
  StripedIo io;
  io.state_ = std::move(state);
  if (!s.policy.lock) {
    // Nothing to wait for: prime the window now so the chunks overlap
    // whatever the caller does before Await().
    Status started = s.Begin();
    if (started.ok()) started = s.Fill();
    if (!started.ok()) {
      s.Run(started);  // drain before reporting
      return started;
    }
  }
  return io;
}

Result<StripedIo> StripedIo::Write(const StripedFile& file,
                                   std::uint64_t offset, util::SharedSlice data,
                                   StripedPolicy policy) {
  auto state = std::make_unique<State>();
  state->op = State::Op::kWrite;
  state->extent = data.size();
  state->data = std::move(data);
  state->policy = std::move(policy);
  return Start(std::move(state), file, offset);
}

Result<StripedIo> StripedIo::Read(const StripedFile& file,
                                  std::uint64_t offset, MutableByteSpan out,
                                  StripedPolicy policy) {
  auto state = std::make_unique<State>();
  state->op = State::Op::kRead;
  state->extent = out.size();
  state->out = out;
  state->policy = std::move(policy);
  return Start(std::move(state), file, offset);
}

Result<StripedIo> StripedIo::ReadSlice(const StripedFile& file,
                                       std::uint64_t offset,
                                       std::uint64_t length,
                                       StripedPolicy policy) {
  auto state = std::make_unique<State>();
  state->op = State::Op::kReadSlice;
  state->extent = length;
  state->policy = std::move(policy);
  return Start(std::move(state), file, offset);
}

Result<std::uint64_t> StripedIo::Await() {
  if (!state_) return FailedPrecondition("awaiting an empty striped io handle");
  State& s = *state_;
  if (!s.completed) s.Run(s.begun ? OkStatus() : s.Begin());
  return s.result;
}

Result<util::SharedSlice> StripedIo::AwaitSlice() {
  auto n = Await();
  if (!n.ok()) return n.status();
  return std::move(state_->slice);
}

}  // namespace lwfs::pfs

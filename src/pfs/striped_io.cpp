#include "pfs/striped_io.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <optional>
#include <utility>

namespace lwfs::pfs {

struct StripedIo::State {
  bool is_read = false;
  StripedPolicy policy;
  std::vector<core::WritePiece> pieces;   // writes
  std::vector<core::ReadExtent> extents;  // reads

  core::Client* client = nullptr;
  security::Capability cap;
  std::uint32_t stripe_size = 0;
  std::vector<StripeTarget> stripes;

  /// Bytes to move per list entry; a read's are final after Begin.
  std::vector<std::uint64_t> want;
  struct Chunk {
    std::size_t entry = 0;
    StripeChunk map;
  };
  std::vector<Chunk> chunks;  // every entry's chunks, in list order
  std::size_t next = 0;
  bool begun = false;
  std::optional<txn::LockId> lock;

  struct Issued {
    std::size_t chunk = 0;
    core::PendingIo io;
  };
  std::deque<Issued> inflight;
  // Reads, per extent: the slice chunks (offset within the extent, bytes)
  // in extent order, and the extent-relative end of its first short chunk.
  std::vector<std::vector<std::pair<std::uint64_t, util::SharedSlice>>> got;
  std::vector<std::uint64_t> first_short;

  bool completed = false;
  Result<core::IoResult> result = core::IoResult{};

  [[nodiscard]] std::uint64_t Offset(std::size_t i) const {
    return is_read ? extents[i].offset : pieces[i].offset;
  }
  /// Take the lock over the hull, settle a read's extents, plan the chunks.
  Status Begin();
  Status IssueNext();
  /// Issue chunks until the window is full or none are left.
  Status Fill();
  void RetireFront(Status& error);
  /// Issue and retire every remaining chunk, then settle the result.
  void Run(Status error);
  [[nodiscard]] util::SharedSlice Gather(std::size_t extent,
                                         std::uint64_t end) const;
};

Status StripedIo::State::Begin() {
  begun = true;
  if (policy.lock && !want.empty()) {
    std::uint64_t start = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t end = 0;
    for (std::size_t i = 0; i < want.size(); ++i) {
      start = std::min(start, Offset(i));
      end = std::max(end, Offset(i) + want[i]);
    }
    auto id = policy.lock(start, end);
    if (!id.ok()) return id.status();
    lock = *id;
  }
  if (is_read && policy.size) {
    auto size = policy.size();
    if (!size.ok()) return size.status();
    for (std::size_t i = 0; i < want.size(); ++i) {
      want[i] = Offset(i) >= *size ? 0 : std::min(want[i], *size - Offset(i));
    }
  }
  const auto count = static_cast<std::uint32_t>(stripes.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    for (const StripeChunk& c :
         MapExtent(stripe_size, count, Offset(i), want[i])) {
      chunks.push_back(Chunk{i, c});
    }
  }
  first_short = want;
  got.resize(extents.size());
  return OkStatus();
}

Status StripedIo::State::IssueNext() {
  const std::size_t index = next++;
  const Chunk& c = chunks[index];
  const StripeTarget& target = stripes[c.map.stripe_index];
  const auto at = static_cast<std::size_t>(c.map.file_offset - Offset(c.entry));
  const auto length = static_cast<std::size_t>(c.map.length);
  Result<core::PendingIo> io = core::PendingIo{};
  if (is_read) {
    const MutableByteSpan out = extents[c.entry].out;
    io = client->ReadObjectAsync(
        target.server, cap, target.oid,
        {{c.map.object_offset, c.map.length,
          out.empty() ? MutableByteSpan{} : out.subspan(at, length)}});
  } else {
    io = client->WriteObjectAsync(
        target.server, cap, target.oid,
        {{c.map.object_offset, pieces[c.entry].data.Slice(at, length)}});
  }
  if (!io.ok()) return io.status();
  inflight.push_back(Issued{index, std::move(*io)});
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
  auto done = issued.io.Await();
  if (!done.ok()) {
    if (error.ok()) error = done.status();
    return;
  }
  if (!is_read) return;
  const Chunk& c = chunks[issued.chunk];
  const core::ReadExtent& extent = extents[c.entry];
  const std::uint64_t at = c.map.file_offset - extent.offset;
  const std::uint64_t n = done->bytes;
  if (extent.out.empty()) {
    if (n > 0) got[c.entry].emplace_back(at, std::move(done->slices.front()));
  } else if (n < c.map.length) {
    auto hole = extent.out.subspan(static_cast<std::size_t>(at + n),
                                   static_cast<std::size_t>(c.map.length - n));
    std::fill(hole.begin(), hole.end(), 0);
  }
  // An extent's chunks retire in order, so the first short one seen is
  // first.
  if (n < c.map.length) {
    first_short[c.entry] = std::min(first_short[c.entry], at + n);
  }
}

void StripedIo::State::Run(Status error) {
  for (;;) {
    if (error.ok()) error = Fill();
    if (inflight.empty()) break;
    RetireFront(error);
  }
  core::IoResult done;
  if (error.ok() && is_read) {
    done.slices.resize(extents.size());
    for (std::size_t i = 0; i < extents.size(); ++i) {
      const std::uint64_t end = policy.size ? want[i] : first_short[i];
      done.bytes += end;
      if (extents[i].out.empty()) done.slices[i] = Gather(i, end);
    }
  } else if (error.ok()) {
    std::uint64_t end = 0;
    for (const core::WritePiece& piece : pieces) {
      done.bytes += piece.data.size();
      end = std::max(end, piece.offset + piece.data.size());
    }
    if (policy.written) policy.written(end);
  }
  if (lock) {
    Status unlocked = policy.unlock(*lock);
    lock.reset();
    if (error.ok()) error = unlocked;
  }
  completed = true;
  if (error.ok()) {
    result = std::move(done);
  } else {
    result = error;
  }
}

util::SharedSlice StripedIo::State::Gather(std::size_t extent,
                                           std::uint64_t end) const {
  if (end == 0) return {};
  const auto& parts = got[extent];
  // One chunk that is exactly the result: the server's slice passes through.
  if (parts.size() == 1 && parts[0].second.size() == end) {
    return parts[0].second;
  }
  // Gather into one fresh slice; holes stay zero.  One delivery copy per
  // byte — final delivery, outside the staging budget.
  Buffer gathered(static_cast<std::size_t>(end), std::uint8_t{0});
  for (const auto& [at, bytes] : parts) {
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
  // Drain so the caller's spans are quiescent before they can be freed.
  if (state_ && !state_->completed) (void)Await();
}

Result<StripedIo> StripedIo::Start(std::unique_ptr<State> state,
                                   const StripedFile& file) {
  State& s = *state;
  // A wrapping extent would map onto the file's first bytes: refuse it
  // before anything is locked or sent.
  for (std::size_t i = 0; i < s.want.size(); ++i) {
    if (s.want[i] > std::numeric_limits<std::uint64_t>::max() - s.Offset(i)) {
      return InvalidArgument("extent end overflows the file offset space");
    }
  }
  s.client = file.client;
  s.cap = file.cap;
  s.stripe_size = file.stripe_size;
  s.stripes.assign(file.stripes.begin(), file.stripes.end());
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
                                   std::vector<core::WritePiece> pieces,
                                   StripedPolicy policy) {
  auto state = std::make_unique<State>();
  for (const core::WritePiece& piece : pieces) {
    state->want.push_back(piece.data.size());
  }
  state->pieces = std::move(pieces);
  state->policy = std::move(policy);
  return Start(std::move(state), file);
}

Result<StripedIo> StripedIo::Read(const StripedFile& file,
                                  std::vector<core::ReadExtent> extents,
                                  StripedPolicy policy) {
  auto state = std::make_unique<State>();
  for (const core::ReadExtent& extent : extents) {
    if (!extent.out.empty() && extent.out.size() != extent.length) {
      return InvalidArgument("read extent's landing span is not its length");
    }
    state->want.push_back(extent.length);
  }
  state->is_read = true;
  state->extents = std::move(extents);
  state->policy = std::move(policy);
  return Start(std::move(state), file);
}

Result<core::IoResult> StripedIo::Await() {
  if (!state_) return FailedPrecondition("awaiting an empty striped io handle");
  State& s = *state_;
  if (!s.completed) s.Run(s.begun ? OkStatus() : s.Begin());
  return s.result;
}

}  // namespace lwfs::pfs

// Striped file I/O over LWFS-core objects: the one engine both file systems
// layered on the core (the pfs baseline and lwfsfs) move their bytes with.
//
// A file extent is decomposed by MapExtent into per-stripe object calls,
// issued through core::Client on a window of kIoWindow calls and retired in
// order.  Everything that differs between the file systems is policy the
// caller supplies — the consistency lock and where a read ends — so the
// engine never asks which file system it serves.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>

#include "core/client.h"
#include "pfs/layout.h"
#include "security/types.h"
#include "txn/lock_table.h"
#include "util/shared_buffer.h"
#include "util/status.h"

namespace lwfs::pfs {

/// Per-stripe object calls one striped I/O keeps in flight; also the depth
/// callers use when they pipeline whole striped I/Os.
inline constexpr std::size_t kIoWindow = 8;

/// The file-system policy one striped I/O runs under.
struct StripedPolicy {
  /// Takes the consistency lock over the extent; empty = no lock, and
  /// chunks start going out at issue time.  With a lock, issuance waits
  /// for Await(): a caller pipelining several I/Os must never block on a
  /// lock held by its own not-yet-retired I/Os.
  std::function<Result<txn::LockId>()> lock;
  /// Releases what `lock` took, once every chunk has retired.
  std::function<Status(txn::LockId)> unlock;
  /// Reads: the extent length to fetch for a read of `length` bytes,
  /// decided with the lock held.  Empty = `length`.
  std::function<Result<std::uint64_t>(std::uint64_t length)> read_extent;
  /// Required.  The I/O's result once every chunk succeeded (run with the
  /// lock held), given the extent length moved and the extent-relative
  /// end of the first chunk that came back short (== `moved` when none
  /// did; writes are never short).  Bytes of a read's result that no chunk
  /// returned are holes and read as zero.
  std::function<std::uint64_t(std::uint64_t moved, std::uint64_t first_short)>
      end;
};

/// Where a striped file's bytes live.  `client` must outlive the I/O;
/// `stripes` is copied when the I/O is issued.
struct StripedFile {
  core::Client* client = nullptr;
  security::Capability cap;
  std::uint32_t stripe_size = 0;
  std::span<const StripeTarget> stripes;
};

/// A pending striped write or read.  Await() issues whatever the window
/// has not yet sent, retires every chunk and resolves to the policy's
/// result.  A span handed to Write/Read, and whatever the policy's hooks
/// refer to, must stay valid until Await() returns (the destructor drains
/// as a backstop); a slice write keeps its payload alive itself.
class StripedIo {
 public:
  StripedIo();
  StripedIo(StripedIo&&) noexcept;
  StripedIo& operator=(StripedIo&&) noexcept;
  ~StripedIo();

  /// Each chunk goes out as an O(1) sub-slice of `data` (a borrowed
  /// External slice is registered as a span by the core client).
  static Result<StripedIo> Write(const StripedFile& file, std::uint64_t offset,
                                 util::SharedSlice data, StripedPolicy policy);
  /// Each chunk lands in its part of `out`; holes are zero-filled.
  static Result<StripedIo> Read(const StripedFile& file, std::uint64_t offset,
                                MutableByteSpan out, StripedPolicy policy);
  /// Zero-copy read: no landing buffer.  A one-chunk extent resolves to the
  /// server's store-owned slice unchanged; otherwise the per-stripe slices
  /// are gathered into one fresh slice (one delivery copy per byte).
  static Result<StripedIo> ReadSlice(const StripedFile& file,
                                     std::uint64_t offset, std::uint64_t length,
                                     StripedPolicy policy);

  [[nodiscard]] bool valid() const { return state_ != nullptr; }

  /// Bytes written, or bytes read as decided by the policy's `end`.
  Result<std::uint64_t> Await();
  /// ReadSlice handles: Await() and hand over the bytes read.
  Result<util::SharedSlice> AwaitSlice();

 private:
  struct State;
  static Result<StripedIo> Start(std::unique_ptr<State> state,
                                 const StripedFile& file,
                                 std::uint64_t offset);
  std::unique_ptr<State> state_;
};

}  // namespace lwfs::pfs

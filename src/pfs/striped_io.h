// Striped file I/O over LWFS-core objects: the one engine both file systems
// layered on the core (the pfs baseline and lwfsfs) move their bytes with.
//
// One I/O is a list of file extents (PVFS list I/O): MapExtent decomposes
// each into per-stripe object calls, and every chunk of the list is issued
// through core::Client on one window of kIoWindow calls and retired in
// order.  Everything that differs between the file systems is policy the
// caller supplies — the consistency lock and where a read ends — so the
// engine never asks which file system it serves.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/client.h"
#include "pfs/layout.h"
#include "security/types.h"
#include "txn/lock_table.h"
#include "util/status.h"

namespace lwfs::pfs {

/// Per-stripe object calls one striped I/O keeps in flight; also the depth
/// callers use when they pipeline whole striped I/Os.
inline constexpr std::size_t kIoWindow = 8;

/// The file-system policy one striped I/O runs under.
struct StripedPolicy {
  /// Takes the consistency lock over the list's hull [start, end); empty =
  /// no lock, and chunks start going out at issue time.  With a lock,
  /// issuance waits for Await(): a caller pipelining several I/Os must
  /// never block on a lock held by its own not-yet-retired I/Os.
  std::function<Result<txn::LockId>(std::uint64_t start, std::uint64_t end)>
      lock;
  /// Releases what `lock` took, once every chunk has retired.
  std::function<Status(txn::LockId)> unlock;
  /// Reads: the file size, read with the lock held.  Every extent ends
  /// there, and a short chunk inside that end is a hole that reads as
  /// zero.  Empty = the size is unknown: an extent ends at its first short
  /// chunk.
  std::function<Result<std::uint64_t>()> size;
  /// Writes: runs with the lock held once every chunk succeeded, given the
  /// end of the list's hull.
  std::function<void(std::uint64_t end)> written;
};

/// Where a striped file's bytes live.  `client` must outlive the I/O;
/// `stripes` is copied when the I/O is issued.
struct StripedFile {
  core::Client* client = nullptr;
  security::Capability cap;
  std::uint32_t stripe_size = 0;
  std::span<const StripeTarget> stripes;
};

/// A pending striped list write or read.  Await() issues whatever the
/// window has not yet sent, retires every chunk — after the first error
/// too, so nothing is left in flight — and resolves to the first error or
/// the core::IoResult (offsets and extents are file-relative).  Borrowed
/// write slices, landing spans and whatever the policy's hooks refer to
/// must stay valid until Await() returns (the destructor drains as a
/// backstop); an owned slice keeps its payload alive itself.
class StripedIo {
 public:
  StripedIo();
  StripedIo(StripedIo&&) noexcept;
  StripedIo& operator=(StripedIo&&) noexcept;
  ~StripedIo();

  /// Each chunk goes out as an O(1) sub-slice of its piece.
  static Result<StripedIo> Write(const StripedFile& file,
                                 std::vector<core::WritePiece> pieces,
                                 StripedPolicy policy);
  /// A slice extent (no landing span) whose bytes come back in one chunk
  /// resolves to the server's store-owned slice unchanged; otherwise its
  /// per-stripe slices are gathered into one fresh slice (one delivery
  /// copy per byte).  A span extent's chunks land in their part of it.
  static Result<StripedIo> Read(const StripedFile& file,
                                std::vector<core::ReadExtent> extents,
                                StripedPolicy policy);

  [[nodiscard]] bool valid() const { return state_ != nullptr; }

  Result<core::IoResult> Await();

 private:
  struct State;
  static Result<StripedIo> Start(std::unique_ptr<State> state,
                                 const StripedFile& file);
  std::unique_ptr<State> state_;
};

}  // namespace lwfs::pfs

// Client of the traditional-PFS baseline.
//
// Provides the POSIX-ish file model the paper's alternative checkpoint
// implementations use: open/create a striped file, write/read byte extents,
// close.  Metadata and extent locks go to the MDS; file bytes go straight
// to the LWFS storage servers through a core::Client on the same NIC, under
// the capability the MDS handed out with the file.  In kPosixLocking mode
// every write takes an exclusive extent lock at the MDS first — the
// consistency machinery that halves shared-file checkpoint throughput in
// Figure 9.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/client.h"
#include "pfs/mds.h"
#include "pfs/protocol.h"
#include "pfs/striped_io.h"
#include "rpc/rpc.h"
#include "txn/lock_table.h"
#include "util/shared_buffer.h"
#include "util/status.h"

namespace lwfs::pfs {

/// Consistency behaviour of PfsClient::Write.
enum class ConsistencyMode {
  /// POSIX-style: exclusive extent lock around every write.
  kPosixLocking,
  /// Relaxed: no locks; the application coordinates (what PVFS does, §6).
  kRelaxed,
};

struct PfsDeployment {
  portals::Nid mds = portals::kInvalidNid;
  /// Warm standby for the MDS; kInvalidNid = none.  On a transport-level
  /// failure of the active MDS (timeout / unavailable) the client retries
  /// the op against the other endpoint and sticks with whichever answered.
  portals::Nid mds_standby = portals::kInvalidNid;
};

struct OpenFile {
  std::string path;
  FileAttr attr;
  /// The MDS's capability over the stripe objects: a traditional PFS
  /// decides access at open, and the storage servers enforce it.
  security::Capability cap;
};

/// A pending striped list write or read.  In kPosixLocking mode one
/// extent lock over the list's hull is acquired inside Await() (before any
/// chunk goes out) and released after the drain — deferring the lock keeps
/// a driver that pipelines many handles from deadlocking against its own
/// window, at the price of serializing locked I/O, which is the
/// consistency cost the paper measures.  A read extent ends short at its
/// first short stripe chunk.  The PfsClient must outlive the handle.
using PfsIo = StripedIo;

class PfsClient {
 public:
  /// `core` is this endpoint's client of the LWFS core: file bytes move
  /// through it, and MDS calls share its RPC engine.
  PfsClient(std::unique_ptr<core::Client> core, PfsDeployment deployment,
            ConsistencyMode mode = ConsistencyMode::kPosixLocking);

  Result<OpenFile> Create(const std::string& path, std::uint32_t stripe_count);
  Result<OpenFile> Open(const std::string& path);
  Status Unlink(const std::string& path);
  Result<FileAttr> GetAttr(const std::string& path);

  /// Striped list I/O through a window of kIoWindow object calls;
  /// core::Await is the synchronous form.  In kPosixLocking mode issuance
  /// is deferred to PfsIo::Await(), which takes the extent lock first.
  Result<PfsIo> WriteAsync(const OpenFile& file,
                           std::vector<core::WritePiece> pieces);
  Result<PfsIo> ReadAsync(const OpenFile& file,
                          std::vector<core::ReadExtent> extents);

  /// Publish the file size to the MDS (close/sync semantics).
  Status Sync(const OpenFile& file, std::uint64_t size_hint);

  [[nodiscard]] ConsistencyMode mode() const { return mode_; }
  /// The underlying core client's registry (core::Client::metrics), plus
  /// mds_failovers: metadata ops retried against the other MDS endpoint.
  [[nodiscard]] const std::shared_ptr<metrics::Registry>& metrics() const {
    return core_->metrics();
  }

 private:
  /// One MDS metadata round trip with standby failover: call the active
  /// endpoint; on timeout/unavailable try the other one and remember
  /// whichever answers.  Defined in client.cpp (all uses are local).
  template <typename Rep, typename Req>
  Result<Rep> CallMds(rpc::Opcode op, const Req& req);

  Result<txn::LockId> LockExtent(Ino ino, std::uint64_t start,
                                 std::uint64_t end);
  Status UnlockExtent(txn::LockId id);
  [[nodiscard]] StripedFile Striped(const OpenFile& file) const;
  /// The extent lock in kPosixLocking mode; a short chunk is EOF.
  [[nodiscard]] StripedPolicy Policy(const OpenFile& file);

  std::unique_ptr<core::Client> core_;
  PfsDeployment deployment_;
  ConsistencyMode mode_;
  std::atomic<portals::Nid> active_mds_;
  metrics::Counter mds_failovers_ = core_->metrics()->counter("mds_failovers");
};

}  // namespace lwfs::pfs

// Metadata server of the traditional-PFS baseline.
//
// Everything the paper blames for the baseline's bottlenecks lives here by
// design: file creation allocates *all* stripe objects through this one
// service (Figure 10's flat create curve), and POSIX consistency is
// provided by extent locks whose ranges are rounded out to a coarse
// granularity — so "non-overlapping" shared-file writes still collide
// (Figure 9's halved shared-file throughput).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "pfs/layout.h"
#include "txn/lock_table.h"
#include "util/status.h"

namespace lwfs::pfs {

using Ino = std::uint64_t;

struct FileAttr {
  Ino ino = 0;
  std::uint64_t size = 0;
  Layout layout;
  LWFS_CODEC(FileAttr, ino, size, layout)
};

/// One committed MDS mutation, as logged for the warm standby.  kCreate
/// carries the full resulting attr (ino + layout), so replay installs the
/// file without re-running the stripe-object creates — the objects already
/// exist.
struct MdsOpRecord {
  enum class Kind : std::uint8_t { kCreate, kSetSize, kUnlink };
  Kind kind = Kind::kCreate;
  std::string path;
  FileAttr attr;           // kCreate
  std::uint64_t size = 0;  // kSetSize
};

/// Commit-before-ack log shared between an MDS primary and its warm
/// standby: the primary appends every committed mutation before the call
/// returns, the standby replays the log at takeover.  Thread-safe.
class MdsLog {
 public:
  void Append(MdsOpRecord record) {
    std::lock_guard<std::mutex> lock(mutex_);
    records_.push_back(std::move(record));
  }
  [[nodiscard]] std::uint64_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return records_.size();
  }
  [[nodiscard]] std::vector<MdsOpRecord> ReadFrom(std::uint64_t cursor) const {
    std::lock_guard<std::mutex> lock(mutex_);
    if (cursor >= records_.size()) return {};
    return {records_.begin() + static_cast<std::ptrdiff_t>(cursor),
            records_.end()};
  }

 private:
  mutable std::mutex mutex_;
  std::vector<MdsOpRecord> records_;
};

struct MdsOptions {
  std::uint32_t default_stripe_size = 1 << 20;
  /// Extent-lock ranges are rounded out to multiples of this (Lustre-style
  /// coarse DLM extents).  Large values serialize shared-file writers.
  std::uint64_t lock_granularity = 64ull << 20;
  /// Simulated per-metadata-op service cost; 0 in unit tests.  Models the
  /// MDS CPU+disk work that bounds create throughput on real systems.
  std::function<void()> create_delay_hook;
  /// When set, every committed namespace mutation is appended before the
  /// call returns (the standby's takeover source).
  MdsLog* oplog = nullptr;
};

/// Creates / removes a stripe object on storage server `server`; the MDS
/// server wires these to its core::Client, tests to plain lambdas.
using StripeCreateFn =
    std::function<Result<storage::ObjectId>(std::uint32_t server)>;
using StripeRemoveFn =
    std::function<Status(std::uint32_t server, storage::ObjectId oid)>;

/// Pure metadata logic; thread-safe.  All namespace and layout decisions —
/// the "policy decisions" box of Figure 7-a — are centralized here.
class MdsService {
 public:
  MdsService(std::uint32_t server_count, StripeCreateFn create_stripe,
             StripeRemoveFn remove_stripe, MdsOptions options = {});

  /// Create a file striped over `stripe_count` servers (0 = all).  The MDS
  /// performs the object creates itself, serially.
  Result<FileAttr> Create(const std::string& path, std::uint32_t stripe_count);

  Result<FileAttr> Open(const std::string& path);
  Status Unlink(const std::string& path);
  Result<FileAttr> GetAttr(const std::string& path);
  /// Size updates flow through the MDS (clients report on close/sync).
  Status SetSize(const std::string& path, std::uint64_t size);
  Result<std::vector<std::string>> List() const;

  /// Extent locks for POSIX consistency.  Ranges are rounded to
  /// lock_granularity before matching.
  Result<txn::LockId> TryLock(Ino ino, std::uint64_t start, std::uint64_t end,
                              txn::LockMode mode, std::uint64_t owner);
  Status ReleaseLock(txn::LockId id);

  [[nodiscard]] std::uint64_t creates_served() const;
  [[nodiscard]] std::uint64_t metadata_ops() const;

  /// Apply one logged mutation (standby takeover).  kCreate installs the
  /// logged attr without touching the storage servers; kUnlink drops the namespace
  /// entry only (the primary already removed the stripe objects).
  Status Replay(const MdsOpRecord& record);

 private:
  const std::uint32_t server_count_;
  StripeCreateFn create_stripe_;
  StripeRemoveFn remove_stripe_;
  MdsOptions options_;

  mutable std::mutex mutex_;
  Ino next_ino_ = 1;
  std::uint32_t next_server_ = 0;  // round-robin stripe placement cursor
  std::map<std::string, FileAttr> files_;
  std::uint64_t creates_ = 0;
  mutable std::uint64_t ops_ = 0;
  txn::LockTable locks_;
};

}  // namespace lwfs::pfs

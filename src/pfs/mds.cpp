#include "pfs/mds.h"

#include <algorithm>

namespace lwfs::pfs {

MdsService::MdsService(std::uint32_t server_count,
                       StripeCreateFn create_stripe,
                       StripeRemoveFn remove_stripe, MdsOptions options)
    : server_count_(server_count),
      create_stripe_(std::move(create_stripe)),
      remove_stripe_(std::move(remove_stripe)),
      options_(std::move(options)) {}

Result<FileAttr> MdsService::Create(const std::string& path,
                                    std::uint32_t stripe_count) {
  if (path.empty() || path.front() != '/') {
    return InvalidArgument("path must be absolute");
  }
  if (stripe_count == 0 || stripe_count > server_count_) {
    stripe_count = server_count_;
  }

  // The whole create — namespace insert plus every stripe-object create —
  // happens under the MDS lock.  This serialization *is* the baseline's
  // create bottleneck; do not "fix" it.
  std::lock_guard<std::mutex> lock(mutex_);
  ++ops_;
  if (files_.contains(path)) return AlreadyExists("file exists");
  if (options_.create_delay_hook) options_.create_delay_hook();

  FileAttr attr;
  attr.ino = next_ino_++;
  attr.layout.stripe_size = options_.default_stripe_size;
  attr.layout.stripes.reserve(stripe_count);
  for (std::uint32_t i = 0; i < stripe_count; ++i) {
    const std::uint32_t server = next_server_;
    next_server_ = (next_server_ + 1) % server_count_;
    auto oid = create_stripe_(server);
    if (!oid.ok()) {
      // Roll back already-created stripe objects.
      for (const StripeTarget& t : attr.layout.stripes) {
        (void)remove_stripe_(t.server, t.oid);
      }
      return oid.status();
    }
    attr.layout.stripes.push_back(StripeTarget{server, *oid});
  }
  files_[path] = attr;
  ++creates_;
  if (options_.oplog != nullptr) {
    MdsOpRecord rec;
    rec.kind = MdsOpRecord::Kind::kCreate;
    rec.path = path;
    rec.attr = attr;
    options_.oplog->Append(std::move(rec));
  }
  return attr;
}

Result<FileAttr> MdsService::Open(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++ops_;
  auto it = files_.find(path);
  if (it == files_.end()) return NotFound("no such file");
  return it->second;
}

Status MdsService::Unlink(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++ops_;
  auto it = files_.find(path);
  if (it == files_.end()) return NotFound("no such file");
  for (const StripeTarget& t : it->second.layout.stripes) {
    (void)remove_stripe_(t.server, t.oid);
  }
  files_.erase(it);
  if (options_.oplog != nullptr) {
    MdsOpRecord rec;
    rec.kind = MdsOpRecord::Kind::kUnlink;
    rec.path = path;
    options_.oplog->Append(std::move(rec));
  }
  return OkStatus();
}

Result<FileAttr> MdsService::GetAttr(const std::string& path) {
  return Open(path);
}

Status MdsService::SetSize(const std::string& path, std::uint64_t size) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++ops_;
  auto it = files_.find(path);
  if (it == files_.end()) return NotFound("no such file");
  it->second.size = std::max(it->second.size, size);
  if (options_.oplog != nullptr) {
    MdsOpRecord rec;
    rec.kind = MdsOpRecord::Kind::kSetSize;
    rec.path = path;
    rec.size = size;
    options_.oplog->Append(std::move(rec));
  }
  return OkStatus();
}

Status MdsService::Replay(const MdsOpRecord& record) {
  std::lock_guard<std::mutex> lock(mutex_);
  switch (record.kind) {
    case MdsOpRecord::Kind::kCreate: {
      // Install the logged attr verbatim; the stripe objects already exist
      // on the storage servers.  Advance the mint cursors so post-takeover
      // creates continue the primary's sequences.
      files_[record.path] = record.attr;
      next_ino_ = std::max(next_ino_, record.attr.ino + 1);
      if (!record.attr.layout.stripes.empty() && server_count_ > 0) {
        next_server_ =
            (record.attr.layout.stripes.back().server + 1) % server_count_;
      }
      return OkStatus();
    }
    case MdsOpRecord::Kind::kSetSize: {
      auto it = files_.find(record.path);
      if (it == files_.end()) return NotFound("no such file");
      it->second.size = std::max(it->second.size, record.size);
      return OkStatus();
    }
    case MdsOpRecord::Kind::kUnlink: {
      // Namespace-only: the primary already removed the stripe objects.
      files_.erase(record.path);
      return OkStatus();
    }
  }
  return InvalidArgument("unknown MDS log record");
}

Result<std::vector<std::string>> MdsService::List() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ++ops_;
  std::vector<std::string> out;
  out.reserve(files_.size());
  for (const auto& [path, attr] : files_) out.push_back(path);
  return out;
}

Result<txn::LockId> MdsService::TryLock(Ino ino, std::uint64_t start,
                                        std::uint64_t end, txn::LockMode mode,
                                        std::uint64_t owner) {
  if (start >= end) return InvalidArgument("empty lock range");
  // Round the range out to the DLM granularity: this is what makes
  // disjoint-but-nearby shared-file writes conflict.
  const std::uint64_t g = options_.lock_granularity;
  const std::uint64_t rounded_start = (start / g) * g;
  std::uint64_t rounded_end = ((end + g - 1) / g) * g;
  if (rounded_end == rounded_start) rounded_end = rounded_start + g;
  return locks_.TryAcquire(txn::LockKey{0, ino},
                           txn::LockRange{rounded_start, rounded_end}, mode,
                           owner);
}

Status MdsService::ReleaseLock(txn::LockId id) { return locks_.Release(id); }

std::uint64_t MdsService::creates_served() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return creates_;
}

std::uint64_t MdsService::metadata_ops() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ops_;
}

}  // namespace lwfs::pfs

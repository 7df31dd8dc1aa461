#include "pfs/client.h"

#include <chrono>

#include "pfs/wire.h"
#include "rpc/service.h"
#include "txn/lock_retry.h"

namespace lwfs::pfs {

namespace {

/// Only transport-level failures move a metadata op to the other MDS
/// endpoint.  Application-level answers (kNotFound, kAlreadyExists, ...)
/// are real results and must not wake the standby.
bool MdsFailoverWorthy(ErrorCode code) {
  return code == ErrorCode::kTimeout || code == ErrorCode::kUnavailable;
}

}  // namespace

PfsClient::PfsClient(std::unique_ptr<core::Client> core,
                     PfsDeployment deployment, ConsistencyMode mode)
    : core_(std::move(core)),
      deployment_(deployment),
      mode_(mode),
      active_mds_(deployment_.mds) {}

template <typename Rep, typename Req>
Result<Rep> PfsClient::CallMds(rpc::Opcode op, const Req& req) {
  const portals::Nid first = active_mds_.load();
  auto rep = rpc::CallTyped<Rep>(core_->rpc(), first, op, req);
  if (rep.ok() || !MdsFailoverWorthy(rep.status().code())) return rep;
  const portals::Nid other =
      first == deployment_.mds ? deployment_.mds_standby : deployment_.mds;
  if (other == portals::kInvalidNid || other == first) return rep;
  auto retry = rpc::CallTyped<Rep>(core_->rpc(), other, op, req);
  if (retry.ok() || !MdsFailoverWorthy(retry.status().code())) {
    active_mds_.store(other);  // stick with the endpoint that answered
    mds_failovers_.Add();
  }
  return retry;
}

Result<OpenFile> PfsClient::Create(const std::string& path,
                                   std::uint32_t stripe_count) {
  auto attr = CallMds<wire::FileAttrRep>(kPfsCreate,
                                         wire::PfsCreateReq{path, stripe_count});
  if (!attr.ok()) return attr.status();
  return OpenFile{path, std::move(attr->attr), std::move(attr->cap)};
}

Result<OpenFile> PfsClient::Open(const std::string& path) {
  auto attr = CallMds<wire::FileAttrRep>(kPfsOpen, wire::PfsPathReq{path});
  if (!attr.ok()) return attr.status();
  return OpenFile{path, std::move(attr->attr), std::move(attr->cap)};
}

Status PfsClient::Unlink(const std::string& path) {
  return CallMds<rpc::Void>(kPfsUnlink, wire::PfsPathReq{path}).status();
}

Result<FileAttr> PfsClient::GetAttr(const std::string& path) {
  auto attr = CallMds<wire::FileAttrRep>(kPfsGetAttr, wire::PfsPathReq{path});
  if (!attr.ok()) return attr.status();
  return std::move(attr->attr);
}

Result<txn::LockId> PfsClient::LockExtent(Ino ino, std::uint64_t start,
                                          std::uint64_t end) {
  // Poll on the shared retry schedule: the MDS lock manager is try-based
  // over RPC.  The schedule is deadline-bounded (one RPC default_timeout of
  // polling) so a holder that died without releasing cannot park this
  // thread forever — the caller gets kTimeout and decides whether to retry.
  rpc::RpcClient& rpc = core_->rpc();
  util::Clock* clock = rpc.clock();
  txn::LockRetrySchedule retry(
      clock->Now(),
      std::chrono::duration_cast<std::chrono::milliseconds>(
          rpc.options().default_timeout));
  for (;;) {
    auto rep = CallMds<wire::PfsLockIdRep>(
        kPfsLockTry, wire::PfsLockTryReq{ino, start, end, /*exclusive=*/true});
    if (rep.ok()) return rep->id;
    if (rep.status().code() != ErrorCode::kResourceExhausted) {
      return rep.status();
    }
    const auto next = retry.Next(clock->Now());
    if (!next.has_value()) {
      return Timeout("extent lock acquisition deadline exceeded");
    }
    clock->SleepUntil(*next);
  }
}

Status PfsClient::UnlockExtent(txn::LockId id) {
  return CallMds<rpc::Void>(kPfsLockRelease, wire::PfsLockReleaseReq{id})
      .status();
}

StripedFile PfsClient::Striped(const OpenFile& file) const {
  return StripedFile{core_.get(), file.cap, file.attr.layout.stripe_size,
                     file.attr.layout.stripes};
}

StripedPolicy PfsClient::Policy(const OpenFile& file) {
  // The MDS learns sizes only at Sync, so the policy leaves the size
  // unknown: a short stripe chunk is EOF.
  StripedPolicy policy;
  if (mode_ == ConsistencyMode::kPosixLocking) {
    policy.lock = [this, ino = file.attr.ino](std::uint64_t start,
                                              std::uint64_t end) {
      return LockExtent(ino, start, end);
    };
    policy.unlock = [this](txn::LockId id) { return UnlockExtent(id); };
  }
  return policy;
}

Result<PfsIo> PfsClient::WriteAsync(const OpenFile& file,
                                    std::vector<core::WritePiece> pieces) {
  return StripedIo::Write(Striped(file), std::move(pieces), Policy(file));
}

Result<PfsIo> PfsClient::ReadAsync(const OpenFile& file,
                                   std::vector<core::ReadExtent> extents) {
  return StripedIo::Read(Striped(file), std::move(extents), Policy(file));
}

Status PfsClient::Sync(const OpenFile& file, std::uint64_t size_hint) {
  return CallMds<rpc::Void>(kPfsSetSize,
                            wire::PfsSetSizeReq{file.path, size_hint})
      .status();
}

}  // namespace lwfs::pfs

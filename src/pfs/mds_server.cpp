#include "pfs/mds_server.h"

#include "pfs/wire.h"
#include "rpc/service.h"

namespace lwfs::pfs {

MdsServer::MdsServer(std::shared_ptr<portals::Nic> nic,
                     std::unique_ptr<core::Client> storage,
                     security::Credential cred, security::Capability cap,
                     security::NowFn now, core::CapHolder::LoginFn login,
                     MdsOptions mds_options, rpc::ServerOptions rpc_options,
                     MdsStandbyConfig standby)
    : storage_(std::move(storage)),
      caps_(storage_.get(), std::move(cred), std::move(cap), std::move(now),
            std::move(login)),
      server_(std::move(nic), rpc_options),
      ops_(&server_, "mds"),
      standby_cfg_(std::move(standby)) {
  metrics_->Attach("rpc", server_.metrics());
  metrics_->Attach("op", ops_.metrics());
  metrics_->Attach("caps", caps_.metrics());
  service_ = std::make_unique<MdsService>(
      static_cast<std::uint32_t>(storage_->storage_server_count()),
      [this](std::uint32_t server) -> Result<storage::ObjectId> {
        auto cap = caps_.Get();
        if (!cap.ok()) return cap.status();
        return storage_->CreateObject(server, *cap);
      },
      [this](std::uint32_t server, storage::ObjectId oid) {
        auto cap = caps_.Get();
        if (!cap.ok()) return cap.status();
        return storage_->RemoveObject(server, *cap, oid);
      },
      mds_options);

  ops_.On<wire::PfsCreateReq, wire::FileAttrRep>(
      wire::kPfsCreateOp,
      [this](rpc::ServerContext&,
             wire::PfsCreateReq& req) -> Result<wire::FileAttrRep> {
        LWFS_RETURN_IF_ERROR(Admit());
        return AttrReply(service_->Create(req.path, req.stripes));
      });

  ops_.On<wire::PfsPathReq, wire::FileAttrRep>(
      wire::kPfsOpenOp,
      [this](rpc::ServerContext&,
             wire::PfsPathReq& req) -> Result<wire::FileAttrRep> {
        LWFS_RETURN_IF_ERROR(Admit());
        return AttrReply(service_->Open(req.path));
      });

  ops_.On<wire::PfsPathReq, wire::FileAttrRep>(
      wire::kPfsGetAttrOp,
      [this](rpc::ServerContext&,
             wire::PfsPathReq& req) -> Result<wire::FileAttrRep> {
        LWFS_RETURN_IF_ERROR(Admit());
        return AttrReply(service_->GetAttr(req.path));
      });

  ops_.On<wire::PfsPathReq, rpc::Void>(
      wire::kPfsUnlinkOp,
      [this](rpc::ServerContext&, wire::PfsPathReq& req) -> Result<rpc::Void> {
        LWFS_RETURN_IF_ERROR(Admit());
        LWFS_RETURN_IF_ERROR(service_->Unlink(req.path));
        return rpc::Void{};
      });

  ops_.On<wire::PfsSetSizeReq, rpc::Void>(
      wire::kPfsSetSizeOp,
      [this](rpc::ServerContext&,
             wire::PfsSetSizeReq& req) -> Result<rpc::Void> {
        LWFS_RETURN_IF_ERROR(Admit());
        LWFS_RETURN_IF_ERROR(service_->SetSize(req.path, req.size));
        return rpc::Void{};
      });

  ops_.On<rpc::Void, wire::PfsListRep>(
      wire::kPfsListOp,
      [this](rpc::ServerContext&, rpc::Void&) -> Result<wire::PfsListRep> {
        LWFS_RETURN_IF_ERROR(Admit());
        auto names = service_->List();
        if (!names.ok()) return names.status();
        return wire::PfsListRep{std::move(*names)};
      });

  ops_.On<wire::PfsLockTryReq, wire::PfsLockIdRep>(
      wire::kPfsLockTryOp,
      [this](rpc::ServerContext& ctx,
             wire::PfsLockTryReq& req) -> Result<wire::PfsLockIdRep> {
        LWFS_RETURN_IF_ERROR(Admit());
        auto id = service_->TryLock(
            req.ino, req.start, req.end,
            req.exclusive ? txn::LockMode::kExclusive : txn::LockMode::kShared,
            ctx.client());
        if (!id.ok()) return id.status();
        return wire::PfsLockIdRep{*id};
      });

  ops_.On<wire::PfsLockReleaseReq, rpc::Void>(
      wire::kPfsLockReleaseOp,
      [this](rpc::ServerContext&,
             wire::PfsLockReleaseReq& req) -> Result<rpc::Void> {
        LWFS_RETURN_IF_ERROR(Admit());
        LWFS_RETURN_IF_ERROR(service_->ReleaseLock(req.id));
        return rpc::Void{};
      });
}

Result<wire::FileAttrRep> MdsServer::AttrReply(Result<FileAttr> attr) {
  if (!attr.ok()) return attr.status();
  auto cap = caps_.Get();
  if (!cap.ok()) return cap.status();
  return wire::FileAttrRep{std::move(*attr), std::move(*cap)};
}

Status MdsServer::Admit() {
  if (!standby_cfg_.active) return OkStatus();  // standalone MDS
  if (standby_cfg_.active->load() == standby_cfg_.self) return OkStatus();
  if (!standby_cfg_.standby) {
    // Deposed primary: the standby already claimed the namespace.  Refuse
    // so a lagging client fails over instead of reading stale state.
    return Unavailable("mds deposed: standby took over");
  }
  return Takeover();
}

Status MdsServer::Takeover() {
  std::lock_guard<std::mutex> lock(takeover_mutex_);
  if (standby_cfg_.active->load() == standby_cfg_.self) return OkStatus();
  if (standby_cfg_.log != nullptr) {
    for (const MdsOpRecord& rec : standby_cfg_.log->ReadFrom(0)) {
      if (service_->Replay(rec).ok()) {
        replayed_.Add();
      } else {
        replay_errors_.Add();
      }
    }
  }
  standby_cfg_.active->store(standby_cfg_.self);
  takeovers_.Add();
  return OkStatus();
}

Status MdsServer::Start() {
  LWFS_RETURN_IF_ERROR(ops_.init_status());
  auto cap = caps_.Get();
  if (!cap.ok()) return cap.status();
  for (std::uint32_t s = 0; s < storage_->storage_server_count(); ++s) {
    LWFS_RETURN_IF_ERROR(storage_->ListObjects(s, *cap).status());
  }
  return server_.Start();
}

}  // namespace lwfs::pfs

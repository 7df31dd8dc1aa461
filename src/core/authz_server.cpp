#include "core/authz_server.h"

#include <utility>

#include "core/wire.h"
#include "util/logging.h"

namespace lwfs::core {

AuthzServer::AuthzServer(std::shared_ptr<portals::Nic> nic,
                         security::AuthzService* service,
                         rpc::ServerOptions options)
    : service_(service),
      server_(nic, options),
      control_client_(std::move(nic)),
      ops_(&server_, "authz") {
  metrics_->Attach("rpc", server_.metrics());
  metrics_->Attach("op", ops_.metrics());
  metrics_->Attach("control_client", control_client_.metrics());
  service_->SetRevocationSink(this);

  ops_.On<wire::CreateContainerReq, wire::CreateContainerRep>(
      wire::kCreateContainerOp,
      [this](rpc::ServerContext&, wire::CreateContainerReq& req)
          -> Result<wire::CreateContainerRep> {
        auto cid = service_->CreateContainer(req.cred);
        if (!cid.ok()) return cid.status();
        return wire::CreateContainerRep{cid->value};
      });

  ops_.On<wire::GetCapReq, wire::CapabilityRep>(
      wire::kGetCapOp,
      [this](rpc::ServerContext&,
             wire::GetCapReq& req) -> Result<wire::CapabilityRep> {
        auto cap = service_->GetCap(req.cred, storage::ContainerId{req.cid},
                                    req.ops);
        if (!cap.ok()) return cap.status();
        return wire::CapabilityRep{*cap};
      });

  ops_.On<wire::VerifyCapReq, rpc::Void>(
      wire::kVerifyCapOp,
      [this](rpc::ServerContext&,
             wire::VerifyCapReq& req) -> Result<rpc::Void> {
        LWFS_RETURN_IF_ERROR(
            service_->VerifyForServer(req.server_id, req.cap));
        return rpc::Void{};
      });

  ops_.On<wire::SetGrantReq, rpc::Void>(
      wire::kSetGrantOp,
      [this](rpc::ServerContext&, wire::SetGrantReq& req) -> Result<rpc::Void> {
        LWFS_RETURN_IF_ERROR(service_->SetGrant(
            req.cred, storage::ContainerId{req.cid}, req.grantee, req.ops));
        return rpc::Void{};
      });

  ops_.On<wire::RevokeCapReq, rpc::Void>(
      wire::kRevokeCapabilityOp,
      [this](rpc::ServerContext&,
             wire::RevokeCapReq& req) -> Result<rpc::Void> {
        LWFS_RETURN_IF_ERROR(service_->RevokeCap(req.cred, req.cap_id));
        return rpc::Void{};
      });

  ops_.On<wire::RefreshCapReq, wire::CapabilityRep>(
      wire::kRefreshCapOp,
      [this](rpc::ServerContext&,
             wire::RefreshCapReq& req) -> Result<wire::CapabilityRep> {
        auto fresh = service_->RefreshCap(req.cred, req.cap);
        if (!fresh.ok()) return fresh.status();
        return wire::CapabilityRep{*fresh};
      });
}

void AuthzServer::SetStorageNids(std::vector<portals::Nid> nids) {
  std::lock_guard<std::mutex> lock(nids_mutex_);
  storage_nids_ = std::move(nids);
}

void AuthzServer::InvalidateCaps(security::ServerId server,
                                 const std::vector<std::uint64_t>& cap_ids) {
  portals::Nid target;
  {
    std::lock_guard<std::mutex> lock(nids_mutex_);
    if (server >= storage_nids_.size()) {
      LWFS_WARN << "invalidation for unknown storage server " << server;
      return;
    }
    target = storage_nids_[server];
  }
  rpc::CallOptions options;
  options.request_portal = rpc::kControlPortal;
  auto reply = rpc::CallTyped<rpc::Void>(control_client_, target,
                                         kOpInvalidateCaps,
                                         wire::InvalidateCapsReq{cap_ids},
                                         options);
  if (!reply.ok()) {
    LWFS_ERROR << "cap invalidation to server " << server
               << " failed: " << reply.status().ToString();
  }
}

}  // namespace lwfs::core

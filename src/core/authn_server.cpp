#include "core/authn_server.h"

#include "core/wire.h"

namespace lwfs::core {

AuthnServer::AuthnServer(std::shared_ptr<portals::Nic> nic,
                         security::AuthnService* service,
                         rpc::ServerOptions options)
    : service_(service),
      server_(std::move(nic), options),
      ops_(&server_, "authn") {
  metrics_->Attach("rpc", server_.metrics());
  metrics_->Attach("op", ops_.metrics());
  ops_.On<wire::LoginReq, wire::CredentialRep>(
      wire::kLoginOp,
      [this](rpc::ServerContext&,
             wire::LoginReq& req) -> Result<wire::CredentialRep> {
        auto cred = service_->Login(req.principal, req.secret);
        if (!cred.ok()) return cred.status();
        return wire::CredentialRep{*cred};
      });

  ops_.On<wire::RevokeCredReq, rpc::Void>(
      wire::kRevokeCredOp,
      [this](rpc::ServerContext&,
             wire::RevokeCredReq& req) -> Result<rpc::Void> {
        LWFS_RETURN_IF_ERROR(service_->Revoke(req.cred_id));
        return rpc::Void{};
      });
}

}  // namespace lwfs::core

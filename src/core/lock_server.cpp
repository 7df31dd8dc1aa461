#include "core/lock_server.h"

#include "core/wire.h"

namespace lwfs::core {

LockServer::LockServer(std::shared_ptr<portals::Nic> nic,
                       txn::LockTable* table, rpc::ServerOptions options)
    : table_(table), server_(std::move(nic), options), ops_(&server_, "lock") {
  metrics_->Attach("rpc", server_.metrics());
  metrics_->Attach("op", ops_.metrics());
  ops_.On<wire::LockTryReq, wire::LockIdRep>(
      wire::kLockTryOp,
      [this](rpc::ServerContext& ctx,
             wire::LockTryReq& req) -> Result<wire::LockIdRep> {
        auto id = table_->TryAcquire(
            txn::LockKey{req.container, req.resource},
            txn::LockRange{req.start, req.end},
            req.exclusive ? txn::LockMode::kExclusive : txn::LockMode::kShared,
            /*owner=*/ctx.client());
        if (!id.ok()) return id.status();
        return wire::LockIdRep{*id};
      });

  ops_.On<wire::LockReleaseReq, rpc::Void>(
      wire::kLockReleaseOp,
      [this](rpc::ServerContext&,
             wire::LockReleaseReq& req) -> Result<rpc::Void> {
        LWFS_RETURN_IF_ERROR(table_->Release(req.id));
        return rpc::Void{};
      });
}

}  // namespace lwfs::core

// RPC binding of the authorization service.
//
// Owns the RPC-backed revocation sink: when the service revokes
// capabilities, the sink pushes kOpInvalidateCaps to the control portal of
// every storage server that cached them (the back-pointer walk of §3.1.4).
// SetGrant replies only after those invalidations complete, giving the
// "immediate revocation" semantics §2.4 requires.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "core/protocol.h"
#include "rpc/rpc.h"
#include "rpc/service.h"
#include "security/authz.h"

namespace lwfs::core {

class AuthzServer : public security::RevocationSink,
                    public metrics::Instrumented {
 public:
  AuthzServer(std::shared_ptr<portals::Nic> nic,
              security::AuthzService* service,
              rpc::ServerOptions options = {});

  /// Tell the sink where the storage servers live (index = ServerId).
  void SetStorageNids(std::vector<portals::Nid> nids);

  Status Start() {
    LWFS_RETURN_IF_ERROR(ops_.init_status());
    return server_.Start();
  }
  void Stop() { server_.Stop(); }

  [[nodiscard]] portals::Nid nid() const { return server_.nid(); }
  [[nodiscard]] security::AuthzService* service() { return service_; }
  [[nodiscard]] std::vector<rpc::Opcode> registered_opcodes() const {
    return server_.RegisteredOpcodes();
  }

  // RevocationSink: RPC the invalidation to the caching server.
  void InvalidateCaps(security::ServerId server,
                      const std::vector<std::uint64_t>& cap_ids) override;

 private:
  security::AuthzService* service_;
  rpc::RpcServer server_;
  rpc::RpcClient control_client_;
  rpc::Service ops_;
  std::mutex nids_mutex_;
  std::vector<portals::Nid> storage_nids_;
};

}  // namespace lwfs::core

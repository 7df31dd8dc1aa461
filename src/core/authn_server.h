// RPC binding of the authentication service (Figure 3).
#pragma once

#include <memory>
#include <vector>

#include "core/protocol.h"
#include "rpc/rpc.h"
#include "rpc/service.h"
#include "security/authn.h"

namespace lwfs::core {

class AuthnServer : public metrics::Instrumented {
 public:
  AuthnServer(std::shared_ptr<portals::Nic> nic,
              security::AuthnService* service,
              rpc::ServerOptions options = {});

  Status Start() {
    LWFS_RETURN_IF_ERROR(ops_.init_status());
    return server_.Start();
  }
  void Stop() { server_.Stop(); }

  [[nodiscard]] portals::Nid nid() const { return server_.nid(); }
  [[nodiscard]] security::AuthnService* service() { return service_; }
  [[nodiscard]] std::vector<rpc::Opcode> registered_opcodes() const {
    return server_.RegisteredOpcodes();
  }

 private:
  security::AuthnService* service_;
  rpc::RpcServer server_;
  rpc::Service ops_;
};

}  // namespace lwfs::core

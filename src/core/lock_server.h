// RPC binding of the lock service (§3.4).
//
// Lock acquisition over RPC is try-based: a busy lock returns
// kResourceExhausted and the *client* polls with backoff, so no server
// worker thread is ever parked holding a request slot.
#pragma once

#include <memory>
#include <vector>

#include "core/protocol.h"
#include "rpc/rpc.h"
#include "rpc/service.h"
#include "txn/lock_table.h"

namespace lwfs::core {

class LockServer : public metrics::Instrumented {
 public:
  LockServer(std::shared_ptr<portals::Nic> nic, txn::LockTable* table,
             rpc::ServerOptions options = {});

  Status Start() {
    LWFS_RETURN_IF_ERROR(ops_.init_status());
    return server_.Start();
  }
  void Stop() { server_.Stop(); }

  [[nodiscard]] portals::Nid nid() const { return server_.nid(); }
  [[nodiscard]] txn::LockTable* table() { return table_; }
  [[nodiscard]] std::vector<rpc::Opcode> registered_opcodes() const {
    return server_.RegisteredOpcodes();
  }

 private:
  txn::LockTable* table_;
  rpc::RpcServer server_;
  rpc::Service ops_;
};

}  // namespace lwfs::core

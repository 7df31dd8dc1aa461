// RPC binding of the PFS metadata server.
//
// The MDS creates stripe objects on the LWFS storage servers itself,
// through its own core::Client and under its own capability, so every file
// create costs one client->MDS round trip plus `stripe_count` MDS->storage
// round trips, all serialized at the MDS — the Figure 10 create
// bottleneck.  Create, open and getattr replies carry that capability: the
// MDS is where a traditional PFS decides access.  The MDS renews it (through
// a core::CapHolder) shortly before it expires, so a deployment outlives
// the capability TTL.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/cap_holder.h"
#include "core/client.h"
#include "pfs/mds.h"
#include "pfs/protocol.h"
#include "pfs/wire.h"
#include "rpc/rpc.h"
#include "rpc/service.h"

namespace lwfs::pfs {

/// Warm-standby wiring for an MDS pair.  Primary and standby share one
/// `active` cell (initialized to the primary's `self`) and one MdsLog; the
/// standby stays passive until a client, having seen the primary time out,
/// sends it a request — its first admitted op replays the log and flips
/// `active` to itself.  The deposed primary then answers kUnavailable, so a
/// lagging client refreshes instead of split-braining the namespace.
struct MdsStandbyConfig {
  bool standby = false;  ///< start passive, take over on first request
  MdsLog* log = nullptr; ///< primary's commit-before-ack log (takeover source)
  std::shared_ptr<std::atomic<int>> active;  ///< index of the live MDS
  int self = 0;          ///< this server's index in `active`
};

class MdsServer : public metrics::Instrumented {
 public:
  /// Serves on `nic`; stripe objects are created on `storage`'s servers in
  /// the container `cap` (kOpAll) authorizes.  `cred` renews `cap` before
  /// it expires on the authorization service's clock `now`, and `login`
  /// renews `cred` before it expires in turn.
  MdsServer(std::shared_ptr<portals::Nic> nic,
            std::unique_ptr<core::Client> storage, security::Credential cred,
            security::Capability cap, security::NowFn now,
            core::CapHolder::LoginFn login, MdsOptions mds_options = {},
            rpc::ServerOptions rpc_options = {}, MdsStandbyConfig standby = {});

  /// Warms every storage server's capability cache with a read-only op (so
  /// creates carry no verify round trip), then starts serving.
  Status Start();
  void Stop() { server_.Stop(); }

  [[nodiscard]] portals::Nid nid() const { return server_.nid(); }
  [[nodiscard]] MdsService& service() { return *service_; }

  [[nodiscard]] std::vector<rpc::Opcode> registered_opcodes() const {
    return server_.RegisteredOpcodes();
  }

 private:
  /// Role gate run at the top of every handler.  Active server: OK.
  /// Passive standby: replay the log, claim `active`, then OK.  Deposed
  /// primary: kUnavailable (fencing).
  Status Admit();
  Status Takeover();
  /// Create/open/getattr reply: `attr` plus the current capability.
  Result<wire::FileAttrRep> AttrReply(Result<FileAttr> attr);

  std::unique_ptr<core::Client> storage_;
  core::CapHolder caps_;
  std::unique_ptr<MdsService> service_;
  rpc::RpcServer server_;
  rpc::Service ops_;

  MdsStandbyConfig standby_cfg_;
  std::mutex takeover_mutex_;
  metrics::Counter takeovers_ = metrics_->counter("takeovers");
  metrics::Counter replayed_ = metrics_->counter("replayed");
  metrics::Counter replay_errors_ = metrics_->counter("replay_errors");
};

}  // namespace lwfs::pfs

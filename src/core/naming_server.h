// RPC binding of the naming service.
//
// Naming is a client-extension service (Figure 3): applications that want a
// namespace talk to it, applications that do not (or bring their own) never
// pay for it.  It is also a two-phase-commit participant so that name
// creation can be made atomic with the object writes it describes
// (Figure 8, CREATENAME inside the transaction).
//
// Sharded deployments attach a NamingShardConfig: the server then validates
// leaf-path and replicated-oid routes against the shared ShardMap (rejecting
// mis-routed requests with kWrongShard so clients refresh their map copy),
// fences itself once deposed, and — in the standby role — takes over the
// shard on first contact after the primary dies: replay the committed-op
// log, promote itself in the map (epoch bump), and re-register storage
// holdings.  Nothing a client saw acknowledged is lost, because primaries
// append to the log before acking (see naming/op_log.h).
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/protocol.h"
#include "naming/naming.h"
#include "naming/op_log.h"
#include "naming/replica_map.h"
#include "naming/shard_map.h"
#include "rpc/rpc.h"
#include "rpc/service.h"

namespace lwfs::core {

/// Shard identity and failover wiring for one naming server.  Default
/// (no shard map) reproduces the single-server behavior exactly.
struct NamingShardConfig {
  std::uint32_t shard_index = 0;
  /// The deployment's authoritative shard map; null = unsharded.
  std::shared_ptr<naming::ShardMap> shard_map;
  /// Warm-standby role: serve nothing while the primary is alive; the
  /// first request after the primary is unreachable triggers takeover.
  bool standby = false;
  /// The shard's committed-mutation log (replayed at takeover, then
  /// attached to the service/registry so the chain of custody continues).
  naming::OpLog* oplog = nullptr;
  /// Post-takeover holdings pull: invoked with the now-active registry so
  /// storage servers' actual holdings re-register (a repair scan racing
  /// the takeover must never see a phantom-empty server).
  std::function<void(naming::ReplicaMap*)> reregister_holdings;
  /// Modeled per-metadata-op service cost (benches; the shard-scaling
  /// sweep charges each shard's ops against its own busy-clock).
  std::function<void()> op_delay;
};

class NamingServer : public metrics::Instrumented {
 public:
  /// `replicas` (optional) attaches the replica-placement registry; when
  /// set, the replica place/lookup/report/audit ops are served too.  The
  /// registry is placement *metadata*, not namespace state: Restart()
  /// leaves it intact the same way authz keeps its grant tables.
  NamingServer(std::shared_ptr<portals::Nic> nic,
               naming::NamingService* service, rpc::ServerOptions options = {},
               naming::ReplicaMap* replicas = nullptr,
               NamingShardConfig shard = {});

  Status Start() {
    LWFS_RETURN_IF_ERROR(ops_.init_status());
    return server_.Start();
  }
  void Stop() { server_.Stop(); }

  /// Simulated crash recovery: rebuild the namespace from its own snapshot
  /// (committed links only — staged links are volatile and vanish), drop
  /// prepared-but-undecided transaction state, and clear the RPC dedup
  /// cache.  Pair with Fabric::SetNodeDown to model the outage window.
  Status Restart() {
    Buffer snapshot = service_->Serialize();
    LWFS_RETURN_IF_ERROR(service_->Restore(ByteSpan(snapshot)));
    service_->ResetStagedState();
    server_.ResetReplyCache();
    return OkStatus();
  }

  [[nodiscard]] portals::Nid nid() const { return server_.nid(); }
  [[nodiscard]] naming::NamingService* service() { return service_; }
  [[nodiscard]] std::vector<rpc::Opcode> registered_opcodes() const {
    return server_.RegisteredOpcodes();
  }

  [[nodiscard]] static std::string participant_name() { return "naming"; }

  [[nodiscard]] naming::ReplicaMap* replicas() { return replicas_; }

 private:
  /// Route/role gate run by every handler.  Unsharded: no-op.  Sharded:
  /// activates a standby on first contact (log replay + promote), fences a
  /// deposed primary, and rejects leaf paths this shard does not own —
  /// all with kWrongShard so clients refresh their epoch-stamped map.
  /// `charge` applies the modeled per-op cost (metadata ops only).  On
  /// the delivering thread a passive server defers to a worker.
  Status Admit(rpc::ServerContext& ctx, const std::string* leaf_path,
               bool charge = true);

  /// Admit a registry op for a replicated oid (shard ownership decodes
  /// from the oid itself).
  Status AdmitOid(std::uint64_t oid);

  Status EnsureActiveLocked();

  naming::NamingService* service_;
  naming::ReplicaMap* replicas_;
  NamingShardConfig shard_;
  rpc::RpcServer server_;
  rpc::Service ops_;

  std::mutex takeover_mutex_;
  /// Standbys start passive.  Written under takeover_mutex_; read without
  /// it only to keep a takeover off a delivering thread.
  std::atomic<bool> active_{true};
  metrics::Counter takeovers_ = metrics_->counter("takeovers");
  metrics::Counter replayed_ = metrics_->counter("replayed");
  metrics::Counter replay_errors_ = metrics_->counter("replay_errors");
};

}  // namespace lwfs::core

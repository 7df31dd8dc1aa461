// ServiceRuntime: an in-process LWFS deployment.
//
// Stands up the full Figure 3 picture — authentication server,
// authorization server, m storage servers, plus the optional naming and
// lock services — each on its own NIC over one portals fabric, and hands
// out clients.  Examples, tests, and the real-stack benches all build on
// this.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/authn_server.h"
#include "core/authz_server.h"
#include "core/chunk_replicator.h"
#include "core/client.h"
#include "core/lock_server.h"
#include "core/naming_server.h"
#include "core/storage_server.h"
#include "naming/naming.h"
#include "portals/portals.h"
#include "security/authn.h"
#include "security/authz.h"
#include "storage/object_store.h"
#include "txn/lock_table.h"

namespace lwfs::core {

struct RuntimeOptions {
  /// Number of storage servers (the paper's "m").
  int storage_servers = 4;

  /// kNull keeps per-object attributes but discards data bytes — the
  /// backend for million-object scale harnesses (bench/petascale).
  enum class Backend { kMemory, kBlock, kFile, kNull };
  Backend backend = Backend::kMemory;
  /// kFile: per-server directories `<file_store_root>/s<i>` are created.
  std::string file_store_root;
  /// kBlock: device geometry per server.
  std::uint64_t device_blocks = 1 << 16;
  std::uint32_t block_size = 4096;

  StorageServerOptions storage;
  rpc::ServerOptions control_services;  // authn/authz/naming/locks

  /// RPC client options (timeouts, retransmit budget, circuit breaker) for
  /// every client this runtime hands out via MakeClient() and for the
  /// storage servers' outbound authorization clients.  Chaos tests shrink
  /// the timeout so injected losses resolve quickly.
  rpc::ClientOptions client_options;

  security::AuthnOptions authn;
  security::AuthzOptions authz;

  /// If set, the namespace is restored from this file at Start (when it
  /// exists) and can be saved back with SaveNamingSnapshot().  Pairs with
  /// Backend::kFile for deployments that survive process restarts.
  std::string naming_snapshot_file;

  /// Replication layer knobs (DESIGN.md §15).  The replica registry and
  /// chunk replicator are always built; a deployment that never places a
  /// replicated object pays nothing for them.
  struct ReplicationOptions {
    /// Default chain length for replica placements that pass factor = 0.
    std::uint32_t replication_factor = 1;
    /// Servers per rack for placement spread; <= 1 disables rack awareness.
    std::uint32_t rack_size = 2;
    /// Hedged-read latency threshold for clients from MakeClient();
    /// 0 disables hedging.
    std::uint64_t hedge_after_us = 0;
    /// Repair bandwidth ceiling (MB/s) for the chunk replicator; <= 0
    /// disables pacing.
    double repair_mb_s = 64.0;
    /// Bytes per repair read/write pair.
    std::size_t repair_chunk_bytes = 1 << 20;
  };
  ReplicationOptions replication;

  /// Sharded metadata plane (DESIGN.md §16): number of naming shards.  The
  /// namespace partitions by leaf-path hash over a deterministic
  /// consistent-hash ring; each shard hosts its own replica-registry slice
  /// (striped oid space).  1 = the classic single naming server, with
  /// identical behavior and oid sequences.
  std::uint32_t naming_shards = 1;
  /// Give every shard a warm standby that tails the shard's committed-op
  /// log and takes over (log replay + map promote) when the primary dies.
  bool naming_standby = false;
  /// Modeled per-metadata-op service cost, charged by the owning shard
  /// (bench/fig10 --shards drives each shard's busy-clock through this so
  /// the shard-scaling sweep is host-independent).
  std::function<void(std::uint32_t shard)> naming_op_delay;

  /// Time source for the whole deployment (nullptr = real time).  Fans into
  /// the fabric (injected delivery delays), every RPC server and client,
  /// the storage servers' schedulers/medium model, and — unless a caller
  /// installed its own NowFn — the authn/authz timestamp sources.  Point it
  /// at a util::VirtualClock and the entire stack runs on virtual time.
  util::Clock* clock = nullptr;
};

class ServiceRuntime : public metrics::Instrumented {
 public:
  /// Build and start everything.  The runtime owns all services.
  static Result<std::unique_ptr<ServiceRuntime>> Start(RuntimeOptions options);

  ~ServiceRuntime();
  ServiceRuntime(const ServiceRuntime&) = delete;
  ServiceRuntime& operator=(const ServiceRuntime&) = delete;

  /// Register a principal with the (mock) external authenticator.
  void AddUser(const std::string& name, const std::string& secret,
               security::Uid uid);

  /// A fresh client endpoint (own NIC) pointed at this deployment.
  std::unique_ptr<Client> MakeClient();

  /// Persist the namespace to options.naming_snapshot_file.
  Status SaveNamingSnapshot();

  [[nodiscard]] const Deployment& deployment() const { return deployment_; }
  [[nodiscard]] portals::Fabric& fabric() { return fabric_; }
  /// The options the deployment runs with, after Start() filled in
  /// defaults (e.g. the authn/authz NowFns of a virtual-clock deployment).
  [[nodiscard]] const RuntimeOptions& options() const { return options_; }
  /// The deployment's time source (RealClockInstance() when none was set).
  [[nodiscard]] util::Clock* clock() const { return clock_; }
  [[nodiscard]] security::AuthnService& authn() { return *authn_service_; }
  [[nodiscard]] security::AuthzService& authz() { return *authz_service_; }
  [[nodiscard]] naming::NamingService& naming() { return *naming_services_[0]; }
  [[nodiscard]] txn::LockTable& locks() { return lock_table_; }
  [[nodiscard]] int storage_count() const {
    return static_cast<int>(storage_servers_.size());
  }
  [[nodiscard]] StorageServer& storage_server(int i) {
    return *storage_servers_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] NamingServer& naming_server() { return *naming_servers_[0]; }
  [[nodiscard]] NamingServer& naming_server(std::uint32_t shard) {
    return *naming_servers_[shard];
  }
  /// Shard `shard`'s warm standby; nullptr when naming_standby is off.
  [[nodiscard]] NamingServer* naming_standby_server(std::uint32_t shard) {
    return shard < standby_servers_.size() ? standby_servers_[shard].get()
                                           : nullptr;
  }
  [[nodiscard]] std::uint32_t naming_shard_count() const {
    return static_cast<std::uint32_t>(naming_servers_.size());
  }
  /// The deployment's authoritative shard map (epoch bumps on takeover).
  [[nodiscard]] const std::shared_ptr<naming::ShardMap>& shard_map() const {
    return shard_map_;
  }
  /// The replica registry hosted by the naming server (shard 0).
  [[nodiscard]] naming::ReplicaMap& replica_map() { return *replica_maps_[0]; }
  [[nodiscard]] naming::ReplicaMap& replica_map(std::uint32_t shard) {
    return *replica_maps_[shard];
  }
  /// The background chunk replicator; drive it with RunScan().
  [[nodiscard]] ChunkReplicator& replicator() { return *replicator_; }
  [[nodiscard]] AuthnServer& authn_server() { return *authn_server_; }
  [[nodiscard]] AuthzServer& authz_server() { return *authz_server_; }
  [[nodiscard]] LockServer& lock_server() { return *lock_server_; }
  [[nodiscard]] storage::ObjectStore& store(int i) {
    return *stores_[static_cast<std::size_t>(i)];
  }

 private:
  ServiceRuntime() = default;

  util::Clock* clock_ = util::RealClockInstance();
  portals::Fabric fabric_;
  RuntimeOptions options_;
  Deployment deployment_;

  security::TableAuthenticator users_;
  std::shared_ptr<naming::ShardMap> shard_map_;
  std::vector<std::unique_ptr<naming::OpLog>> naming_oplogs_;
  std::vector<std::unique_ptr<naming::ReplicaMap>> replica_maps_;
  std::unique_ptr<ChunkReplicator> replicator_;
  std::unique_ptr<security::AuthnService> authn_service_;
  std::unique_ptr<security::AuthzService> authz_service_;
  std::vector<std::unique_ptr<naming::NamingService>> naming_services_;
  txn::LockTable lock_table_;

  std::unique_ptr<AuthnServer> authn_server_;
  std::unique_ptr<AuthzServer> authz_server_;
  std::vector<std::unique_ptr<NamingServer>> naming_servers_;
  // Warm standbys (parallel to naming_servers_; empty when standby off).
  // A standby's service/registry start empty and WITHOUT the op log; its
  // takeover replays the log, then attaches it (see NamingServer).
  std::vector<std::unique_ptr<naming::NamingService>> standby_services_;
  std::vector<std::unique_ptr<naming::ReplicaMap>> standby_replica_maps_;
  std::vector<std::unique_ptr<NamingServer>> standby_servers_;
  std::unique_ptr<LockServer> lock_server_;
  std::vector<std::unique_ptr<storage::ObjectStore>> stores_;
  std::vector<std::unique_ptr<StorageServer>> storage_servers_;
};

}  // namespace lwfs::core

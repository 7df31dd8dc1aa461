#include "core/runtime.h"

#include <algorithm>
#include <fstream>

namespace lwfs::core {

Result<std::unique_ptr<ServiceRuntime>> ServiceRuntime::Start(
    RuntimeOptions options) {
  auto rt = std::unique_ptr<ServiceRuntime>(new ServiceRuntime());
  // Fan the deployment clock into every layer before anything is built.
  // Sub-option clocks a caller set explicitly win; authn/authz NowFns are
  // overridden whenever a clock is supplied, because their defaults read
  // real time and would disagree with a virtual deployment.
  if (options.clock != nullptr) {
    util::Clock* clk = options.clock;
    if (options.control_services.clock == nullptr) {
      options.control_services.clock = clk;
    }
    if (options.client_options.clock == nullptr) {
      options.client_options.clock = clk;
    }
    if (options.storage.clock == nullptr) options.storage.clock = clk;
    options.authn.now = [clk] { return clk->NowUs(); };
    options.authz.now = [clk] { return clk->NowUs(); };
  }
  rt->clock_ = util::OrReal(options.clock);
  rt->fabric_.SetClock(options.clock);
  rt->options_ = options;

  // Keys stay inside the issuing services; nothing else ever sees them.
  const security::SipKey authn_key{0x1234567890ABCDEFULL, 0x0F1E2D3C4B5A6978ULL};
  const security::SipKey authz_key{0xFEDCBA0987654321ULL, 0x13579BDF2468ACE0ULL};

  rt->authn_service_ = std::make_unique<security::AuthnService>(
      &rt->users_, authn_key, options.authn);
  rt->authz_service_ = std::make_unique<security::AuthzService>(
      rt->authn_service_.get(), authz_key, options.authz);

  naming::ReplicaMapOptions replica_options;
  replica_options.servers =
      static_cast<std::uint32_t>(std::max(options.storage_servers, 1));
  replica_options.default_factor = options.replication.replication_factor;
  replica_options.rack_size = options.replication.rack_size;

  // Metadata plane: `shards` naming services, each owning a hash slice of
  // the namespace and a striped slice of the replicated-oid space, plus an
  // optional warm standby per shard.  One shard reproduces the classic
  // single-server deployment bit for bit.
  const std::uint32_t shards = std::max<std::uint32_t>(options.naming_shards, 1);
  rt->shard_map_ = std::make_shared<naming::ShardMap>();
  replica_options.shard_count = shards;
  for (std::uint32_t i = 0; i < shards; ++i) {
    rt->naming_oplogs_.push_back(std::make_unique<naming::OpLog>());
    naming::OpLog* oplog = rt->naming_oplogs_.back().get();
    const std::string participant =
        shards <= 1 ? "naming" : "naming" + std::to_string(i);
    rt->naming_services_.push_back(
        std::make_unique<naming::NamingService>(participant, oplog));
    replica_options.shard_index = i;
    rt->replica_maps_.push_back(
        std::make_unique<naming::ReplicaMap>(replica_options, oplog));
  }

  // Credential revocation must drop the authorization service's cached
  // verification (in a distributed deployment this is a control RPC; the
  // two services share a process here).
  security::AuthzService* authz = rt->authz_service_.get();
  rt->authn_service_->SetRevocationObserver(
      [authz](std::uint64_t cred_id) { authz->ForgetCredential(cred_id); });

  rt->authn_server_ = std::make_unique<AuthnServer>(
      rt->fabric_.CreateNic(), rt->authn_service_.get(),
      options.control_services);
  rt->authz_server_ = std::make_unique<AuthzServer>(
      rt->fabric_.CreateNic(), rt->authz_service_.get(),
      options.control_services);

  ServiceRuntime* rtp = rt.get();
  // Post-takeover holdings pull: report every store's actual replicated
  // holdings to the freshly promoted registry (each registry ignores oids
  // outside its stripe), mirroring what storage restarts report.
  auto pull_holdings = [rtp](naming::ReplicaMap* registry) {
    for (std::size_t s = 0; s < rtp->stores_.size(); ++s) {
      auto all = rtp->stores_[s]->ListAll();
      if (!all.ok()) continue;
      std::vector<std::pair<storage::ObjectId, std::uint64_t>> held;
      for (storage::ObjectId oid : *all) {
        if (!storage::IsReplicatedOid(oid)) continue;
        auto attr = rtp->stores_[s]->GetAttr(oid);
        if (attr.ok()) held.emplace_back(oid, attr->version);
      }
      registry->ReportHoldings(static_cast<std::uint32_t>(s), held);
    }
  };

  for (std::uint32_t i = 0; i < shards; ++i) {
    NamingShardConfig primary_cfg;
    primary_cfg.shard_index = i;
    primary_cfg.shard_map = rt->shard_map_;
    primary_cfg.oplog = rt->naming_oplogs_[i].get();
    if (options.naming_op_delay) {
      primary_cfg.op_delay = [hook = options.naming_op_delay, i] { hook(i); };
    }
    rt->naming_servers_.push_back(std::make_unique<NamingServer>(
        rt->fabric_.CreateNic(), rt->naming_services_[i].get(),
        options.control_services, rt->replica_maps_[i].get(), primary_cfg));

    portals::Nid standby_nid = portals::kInvalidNid;
    if (options.naming_standby) {
      const std::string participant =
          shards <= 1 ? "naming" : "naming" + std::to_string(i);
      // No op log attached: the standby replays it at takeover, through
      // the public mutators, then attaches it.
      rt->standby_services_.push_back(
          std::make_unique<naming::NamingService>(participant, nullptr));
      replica_options.shard_index = i;
      rt->standby_replica_maps_.push_back(
          std::make_unique<naming::ReplicaMap>(replica_options, nullptr));
      NamingShardConfig standby_cfg = primary_cfg;
      standby_cfg.standby = true;
      standby_cfg.reregister_holdings = pull_holdings;
      rt->standby_servers_.push_back(std::make_unique<NamingServer>(
          rt->fabric_.CreateNic(), rt->standby_services_.back().get(),
          options.control_services, rt->standby_replica_maps_.back().get(),
          standby_cfg));
      standby_nid = rt->standby_servers_.back()->nid();
    }
    rt->shard_map_->AddShard(rt->naming_servers_[i]->nid(), standby_nid);
  }

  rt->lock_server_ = std::make_unique<LockServer>(
      rt->fabric_.CreateNic(), &rt->lock_table_, options.control_services);

  LWFS_RETURN_IF_ERROR(rt->authn_server_->Start());
  LWFS_RETURN_IF_ERROR(rt->authz_server_->Start());
  for (auto& server : rt->naming_servers_) {
    LWFS_RETURN_IF_ERROR(server->Start());
  }
  for (auto& server : rt->standby_servers_) {
    LWFS_RETURN_IF_ERROR(server->Start());
  }
  LWFS_RETURN_IF_ERROR(rt->lock_server_->Start());

  // The NASD-contrast mode hands the signing key to the storage servers —
  // exactly the trust extension §3.1.2 criticizes; done here so the
  // ablations and tests can measure its consequences.
  StorageServerOptions storage_options = options.storage;
  if (storage_options.verify_mode == VerifyMode::kSharedKey) {
    storage_options.shared_key = authz_key;
  }
  storage_options.client_options = options.client_options;
  // Restart re-registration: a restarting server reports what it actually
  // holds to every replica registry *before* it resumes serving, so a
  // repair scan racing the restart never mistakes it for empty (the
  // registries and servers share a process here; a distributed deployment
  // would make this a control RPC per shard).  Each registry only updates
  // entries in its own oid stripe; standby registries are empty until a
  // takeover replays them, after which they take these reports too.
  storage_options.restart_report =
      [rtp](std::uint32_t server,
            const std::vector<std::pair<storage::ObjectId,
                                        std::uint64_t>>& held) {
        for (auto& registry : rtp->replica_maps_) {
          registry->ReportHoldings(server, held);
        }
        for (auto& registry : rtp->standby_replica_maps_) {
          registry->ReportHoldings(server, held);
        }
      };

  std::vector<portals::Nid> storage_nids;
  for (int i = 0; i < options.storage_servers; ++i) {
    std::unique_ptr<storage::ObjectStore> store;
    switch (options.backend) {
      case RuntimeOptions::Backend::kMemory:
        store = std::make_unique<storage::MemObjectStore>();
        break;
      case RuntimeOptions::Backend::kNull:
        store = std::make_unique<storage::NullObjectStore>();
        break;
      case RuntimeOptions::Backend::kBlock:
        store = std::make_unique<storage::BlockObjectStore>(
            options.device_blocks, options.block_size);
        break;
      case RuntimeOptions::Backend::kFile: {
        auto opened = storage::FileObjectStore::Open(
            options.file_store_root + "/s" + std::to_string(i));
        if (!opened.ok()) return opened.status();
        store = std::move(*opened);
        break;
      }
    }
    rt->stores_.push_back(std::move(store));
    auto server = std::make_unique<StorageServer>(
        rt->fabric_.CreateNic(), static_cast<std::uint32_t>(i),
        rt->stores_.back().get(), rt->authz_server_->nid(),
        options.authz.now, storage_options);
    LWFS_RETURN_IF_ERROR(server->Start());
    storage_nids.push_back(server->nid());
    rt->storage_servers_.push_back(std::move(server));
  }
  rt->authz_server_->SetStorageNids(storage_nids);

  ChunkReplicatorOptions replicator_options;
  replicator_options.repair_mb_s = options.replication.repair_mb_s;
  replicator_options.repair_chunk_bytes = options.replication.repair_chunk_bytes;
  // One replicator sweeps every shard's registry (stripes are disjoint).
  // Standby registries are included: empty before a takeover, and the
  // authoritative copy after one.
  std::vector<naming::ReplicaMap*> registries;
  for (auto& registry : rt->replica_maps_) registries.push_back(registry.get());
  for (auto& registry : rt->standby_replica_maps_) {
    registries.push_back(registry.get());
  }
  rt->replicator_ = std::make_unique<ChunkReplicator>(
      rt->fabric_.CreateNic(), std::move(registries), storage_nids,
      replicator_options, options.client_options);

  if (!options.naming_snapshot_file.empty()) {
    std::ifstream in(options.naming_snapshot_file, std::ios::binary);
    if (in) {
      Buffer snapshot((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
      LWFS_RETURN_IF_ERROR(
          rt->naming_services_[0]->Restore(ByteSpan(snapshot)));
    }
  }

  // The deployment's metrics tree (DESIGN.md §19).  Clients are not
  // mounted: the tree must not grow per client.
  metrics::Registry& tree = *rt->metrics_;
  tree.Attach("fabric", rt->fabric_.metrics());
  tree.Attach("authn", rt->authn_server_->metrics());
  tree.Attach("authn", rt->authn_service_->metrics());
  tree.Attach("authz", rt->authz_server_->metrics());
  tree.Attach("authz", rt->authz_service_->metrics());
  tree.Attach("locks", rt->lock_server_->metrics());
  tree.Attach("locks", rt->lock_table_.metrics());
  tree.Attach("replicator", rt->replicator_->metrics());
  for (std::uint32_t i = 0; i < rt->naming_servers_.size(); ++i) {
    tree.Attach("naming." + std::to_string(i),
                rt->naming_servers_[i]->metrics());
    tree.Attach("naming." + std::to_string(i) + ".replica_map",
                rt->replica_maps_[i]->metrics());
  }
  for (std::uint32_t i = 0; i < rt->standby_servers_.size(); ++i) {
    tree.Attach("naming_standby." + std::to_string(i),
                rt->standby_servers_[i]->metrics());
    tree.Attach("naming_standby." + std::to_string(i) + ".replica_map",
                rt->standby_replica_maps_[i]->metrics());
  }
  for (std::size_t i = 0; i < rt->storage_servers_.size(); ++i) {
    tree.Attach("storage." + std::to_string(i),
                rt->storage_servers_[i]->metrics());
  }

  rt->deployment_.authn = rt->authn_server_->nid();
  rt->deployment_.authz = rt->authz_server_->nid();
  rt->deployment_.naming = rt->naming_servers_[0]->nid();
  rt->deployment_.locks = rt->lock_server_->nid();
  rt->deployment_.storage = std::move(storage_nids);
  for (std::uint32_t i = 0; i < shards; ++i) {
    rt->deployment_.naming_shards.push_back(rt->naming_servers_[i]->nid());
    rt->deployment_.naming_standbys.push_back(
        options.naming_standby ? rt->standby_servers_[i]->nid()
                               : portals::kInvalidNid);
  }
  return rt;
}

ServiceRuntime::~ServiceRuntime() {
  // Stop order: storage first (they call into authz), then control services.
  for (auto& server : storage_servers_) server->Stop();
  if (lock_server_) lock_server_->Stop();
  for (auto& server : standby_servers_) server->Stop();
  for (auto& server : naming_servers_) server->Stop();
  if (authz_server_) authz_server_->Stop();
  if (authn_server_) authn_server_->Stop();
}

void ServiceRuntime::AddUser(const std::string& name, const std::string& secret,
                             security::Uid uid) {
  users_.AddPrincipal(name, secret, uid);
}

std::unique_ptr<Client> ServiceRuntime::MakeClient() {
  auto client = std::make_unique<Client>(fabric_.CreateNic(), deployment_,
                                         options_.client_options);
  client->SetHedgeAfterUs(options_.replication.hedge_after_us);
  return client;
}

Status ServiceRuntime::SaveNamingSnapshot() {
  if (options_.naming_snapshot_file.empty()) {
    return FailedPrecondition("no naming_snapshot_file configured");
  }
  Buffer snapshot = naming_services_[0]->Serialize();
  std::ofstream out(options_.naming_snapshot_file,
                    std::ios::binary | std::ios::trunc);
  if (!out) return Internal("cannot open naming snapshot file");
  out.write(reinterpret_cast<const char*>(snapshot.data()),
            static_cast<std::streamsize>(snapshot.size()));
  return out ? OkStatus() : Internal("naming snapshot write failed");
}

}  // namespace lwfs::core

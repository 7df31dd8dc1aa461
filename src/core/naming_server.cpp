#include "core/naming_server.h"

#include <string>
#include <utility>

#include "core/wire.h"

namespace lwfs::core {

NamingServer::NamingServer(std::shared_ptr<portals::Nic> nic,
                           naming::NamingService* service,
                           rpc::ServerOptions options,
                           naming::ReplicaMap* replicas,
                           NamingShardConfig shard)
    : service_(service),
      replicas_(replicas),
      shard_(std::move(shard)),
      server_(std::move(nic), options),
      ops_(&server_, "naming"),
      active_(!shard_.standby) {
  metrics_->Attach("rpc", server_.metrics());
  metrics_->Attach("op", ops_.metrics());
  // The namespace ops declared inline (core/wire.h) run on the delivering
  // thread unless the shard charges a modeled op cost, which sleeps.
  auto dispatch = [&](rpc::OpDef def) {
    return shard_.op_delay ? rpc::Queued(def) : def;
  };
  ops_.On<wire::MkdirReq, rpc::Void>(
      dispatch(wire::kNameMkdirOp),
      [this](rpc::ServerContext& ctx,
             wire::MkdirReq& req) -> Result<rpc::Void> {
        LWFS_RETURN_IF_ERROR(Admit(ctx, nullptr));  // dirs live on every shard
        LWFS_RETURN_IF_ERROR(service_->Mkdir(req.path, req.recursive));
        return rpc::Void{};
      });

  ops_.On<wire::LinkReq, rpc::Void>(
      dispatch(wire::kNameLinkOp),
      [this](rpc::ServerContext& ctx,
             wire::LinkReq& req) -> Result<rpc::Void> {
        LWFS_RETURN_IF_ERROR(Admit(ctx, &req.path));
        LWFS_RETURN_IF_ERROR(service_->Link(req.path, req.ref));
        return rpc::Void{};
      });

  ops_.On<wire::StageLinkReq, rpc::Void>(
      dispatch(wire::kNameStageLinkOp),
      [this](rpc::ServerContext& ctx,
             wire::StageLinkReq& req) -> Result<rpc::Void> {
        LWFS_RETURN_IF_ERROR(Admit(ctx, &req.path));
        LWFS_RETURN_IF_ERROR(service_->StageLink(req.txid, req.path, req.ref));
        return rpc::Void{};
      });

  ops_.On<wire::StageUnlinkReq, rpc::Void>(
      dispatch(wire::kNameStageUnlinkOp),
      [this](rpc::ServerContext& ctx,
             wire::StageUnlinkReq& req) -> Result<rpc::Void> {
        LWFS_RETURN_IF_ERROR(Admit(ctx, &req.path));
        LWFS_RETURN_IF_ERROR(service_->StageUnlink(req.txid, req.path));
        return rpc::Void{};
      });

  ops_.On<wire::PathReq, wire::ObjectRefRep>(
      dispatch(wire::kNameLookupOp),
      [this](rpc::ServerContext& ctx,
             wire::PathReq& req) -> Result<wire::ObjectRefRep> {
        LWFS_RETURN_IF_ERROR(Admit(ctx, &req.path));
        auto ref = service_->Lookup(req.path);
        if (!ref.ok()) return ref.status();
        return wire::ObjectRefRep{*ref};
      });

  ops_.On<wire::PathReq, rpc::Void>(
      dispatch(wire::kNameUnlinkOp),
      [this](rpc::ServerContext& ctx,
             wire::PathReq& req) -> Result<rpc::Void> {
        LWFS_RETURN_IF_ERROR(Admit(ctx, &req.path));
        LWFS_RETURN_IF_ERROR(service_->Unlink(req.path));
        return rpc::Void{};
      });

  ops_.On<wire::PathReq, rpc::Void>(
      wire::kNameRmdirOp,
      [this](rpc::ServerContext& ctx,
             wire::PathReq& req) -> Result<rpc::Void> {
        LWFS_RETURN_IF_ERROR(Admit(ctx, nullptr));  // dirs live on every shard
        LWFS_RETURN_IF_ERROR(service_->Rmdir(req.path));
        return rpc::Void{};
      });

  ops_.On<wire::RenameReq, rpc::Void>(
      wire::kNameRenameOp,
      [this](rpc::ServerContext& ctx,
             wire::RenameReq& req) -> Result<rpc::Void> {
        LWFS_RETURN_IF_ERROR(Admit(ctx, nullptr));
        if (shard_.shard_map != nullptr &&
            shard_.shard_map->shard_count() > 1) {
          // Partitioned namespace: a directory rename cannot be atomic on
          // one shard (its children hash everywhere), and a cross-shard
          // link rename must go through the 2PC stage-link/stage-unlink
          // path the client drives.
          if (service_->IsDirectory(req.from)) {
            return FailedPrecondition(
                "directory rename is not atomic across a sharded namespace");
          }
          if (shard_.shard_map->ShardForPath(req.from) != shard_.shard_index ||
              shard_.shard_map->ShardForPath(req.to) != shard_.shard_index) {
            return WrongShard("cross-shard rename must use the 2PC path");
          }
        }
        LWFS_RETURN_IF_ERROR(service_->Rename(req.from, req.to));
        return rpc::Void{};
      });

  ops_.On<wire::PathReq, wire::ListNamesRep>(
      wire::kNameListOp,
      [this](rpc::ServerContext& ctx,
             wire::PathReq& req) -> Result<wire::ListNamesRep> {
        LWFS_RETURN_IF_ERROR(Admit(ctx, nullptr));  // clients merge across shards
        auto entries = service_->List(req.path);
        if (!entries.ok()) return entries.status();
        return wire::ListNamesRep{std::move(*entries)};
      });

  // Epoch-stamped shard-map snapshot.  Served without the role gate: a
  // passive standby answering a map fetch must not trigger a takeover, and
  // a deposed primary can still point clients at the new map.
  ops_.On<rpc::Void, wire::ShardMapRep>(
      wire::kNameShardMapOp,
      [this](rpc::ServerContext&, rpc::Void&) -> Result<wire::ShardMapRep> {
        wire::ShardMapRep rep;
        if (shard_.shard_map == nullptr) {
          rep.epoch = 1;
          rep.shards = {{nid(), portals::kInvalidNid}};
          return rep;
        }
        const naming::ShardMap::Snapshot snap = shard_.shard_map->snapshot();
        rep.epoch = snap.epoch;
        rep.shards.reserve(snap.shards.size());
        for (const naming::ShardMap::Shard& s : snap.shards) {
          rep.shards.emplace_back(s.primary, s.standby);
        }
        return rep;
      });

  // Replica registry: placement, lookup, degraded-write reports, and the
  // replica-count audit.  Registered only when a deployment attaches a map.
  if (replicas_ != nullptr) {
    ops_.On<wire::ReplicaPlaceReq, wire::ReplicaChainRep>(
        wire::kReplicaPlaceOp,
        [this](rpc::ServerContext& ctx,
               wire::ReplicaPlaceReq& req) -> Result<wire::ReplicaChainRep> {
          LWFS_RETURN_IF_ERROR(Admit(ctx, nullptr));
          auto placement = replicas_->Place(storage::ContainerId{req.cid},
                                            req.preferred, req.factor);
          if (!placement.ok()) return placement.status();
          return wire::ReplicaChainRep{placement->oid.value,
                                       placement->cid.value,
                                       std::move(placement->chain)};
        });

    ops_.On<wire::ReplicaLookupReq, wire::ReplicaChainRep>(
        wire::kReplicaLookupOp,
        [this](rpc::ServerContext&,
               wire::ReplicaLookupReq& req) -> Result<wire::ReplicaChainRep> {
          LWFS_RETURN_IF_ERROR(AdmitOid(req.oid));
          auto placement = replicas_->Lookup(storage::ObjectId{req.oid});
          if (!placement.ok()) return placement.status();
          return wire::ReplicaChainRep{placement->oid.value,
                                       placement->cid.value,
                                       std::move(placement->chain)};
        });

    ops_.On<wire::ReplicaReportReq, rpc::Void>(
        wire::kReplicaReportOp,
        [this](rpc::ServerContext&,
               wire::ReplicaReportReq& req) -> Result<rpc::Void> {
          LWFS_RETURN_IF_ERROR(AdmitOid(req.oid));
          LWFS_RETURN_IF_ERROR(replicas_->ReportStale(
              storage::ObjectId{req.oid}, req.version, req.stale));
          return rpc::Void{};
        });

    ops_.On<rpc::Void, wire::ReplicaAuditRep>(
        wire::kReplicaAuditOp,
        [this](rpc::ServerContext& ctx,
               rpc::Void&) -> Result<wire::ReplicaAuditRep> {
          LWFS_RETURN_IF_ERROR(Admit(ctx, nullptr, /*charge=*/false));
          const naming::ReplicaAuditCounts counts = replicas_->Audit();
          return wire::ReplicaAuditRep{counts.objects, counts.fully_replicated,
                                       counts.under_replicated,
                                       counts.stale_members};
        });
  }

  // Two-phase-commit participant endpoints.  Role-gated (a commit sent to
  // a standby after takeover must land on the replayed state) but free of
  // the modeled op cost — votes are not metadata ops.
  ops_.On<wire::TxnReq, wire::TxnVoteRep>(
      wire::kTxnPrepareOp,
      [this](rpc::ServerContext& ctx,
             wire::TxnReq& req) -> Result<wire::TxnVoteRep> {
        LWFS_RETURN_IF_ERROR(Admit(ctx, nullptr, /*charge=*/false));
        auto vote = service_->participant()->Prepare(req.txid);
        if (!vote.ok()) return vote.status();
        return wire::TxnVoteRep{*vote};
      });
  ops_.On<wire::TxnReq, rpc::Void>(
      wire::kTxnCommitOp,
      [this](rpc::ServerContext& ctx, wire::TxnReq& req) -> Result<rpc::Void> {
        LWFS_RETURN_IF_ERROR(Admit(ctx, nullptr, /*charge=*/false));
        LWFS_RETURN_IF_ERROR(service_->participant()->Commit(req.txid));
        return rpc::Void{};
      });
  ops_.On<wire::TxnReq, rpc::Void>(
      wire::kTxnAbortOp,
      [this](rpc::ServerContext& ctx, wire::TxnReq& req) -> Result<rpc::Void> {
        LWFS_RETURN_IF_ERROR(Admit(ctx, nullptr, /*charge=*/false));
        LWFS_RETURN_IF_ERROR(service_->participant()->Abort(req.txid));
        return rpc::Void{};
      });
}

Status NamingServer::Admit(rpc::ServerContext& ctx,
                           const std::string* leaf_path, bool charge) {
  if (shard_.shard_map != nullptr) {
    // A passive server's first request may be the takeover, which replays
    // the op log and re-reads every store: a worker's job.
    if (ctx.inline_dispatch() && !active_.load()) return ctx.Defer();
    {
      std::lock_guard<std::mutex> lock(takeover_mutex_);
      LWFS_RETURN_IF_ERROR(EnsureActiveLocked());
    }
    if (leaf_path != nullptr &&
        shard_.shard_map->ShardForPath(*leaf_path) != shard_.shard_index) {
      return WrongShard("path belongs to another metadata shard");
    }
  }
  if (charge && shard_.op_delay) shard_.op_delay();
  return OkStatus();
}

Status NamingServer::AdmitOid(std::uint64_t oid) {
  if (shard_.shard_map != nullptr) {
    {
      std::lock_guard<std::mutex> lock(takeover_mutex_);
      LWFS_RETURN_IF_ERROR(EnsureActiveLocked());
    }
    if (shard_.shard_map->ShardForOid(storage::ObjectId{oid}) !=
        shard_.shard_index) {
      return WrongShard("oid belongs to another metadata shard");
    }
  }
  if (shard_.op_delay) shard_.op_delay();
  return OkStatus();
}

Status NamingServer::EnsureActiveLocked() {
  naming::ShardMap& map = *shard_.shard_map;
  if (active_) {
    // Fencing: a deposed primary stops mutating the moment the map moves
    // on, so a takeover can never race it into split-brain.
    if (!map.IsActivePrimary(shard_.shard_index, nid())) {
      active_ = false;
      return WrongShard("shard primary deposed");
    }
    return OkStatus();
  }
  if (map.IsActivePrimary(shard_.shard_index, nid())) {
    active_ = true;  // promoted out of band
    return OkStatus();
  }
  if (!map.IsStandby(shard_.shard_index, nid())) {
    return WrongShard("not a member of this shard");
  }
  // Warm-standby takeover: the client only lands here after the primary
  // stopped answering (breaker/timeout).  Replay every committed mutation,
  // step in as primary (epoch bump invalidates cached client maps), then
  // pull real holdings so repair state reflects the storage tier's truth.
  std::uint64_t replayed = 0;
  if (shard_.oplog != nullptr) {
    for (const naming::OpRecord& rec : shard_.oplog->ReadFrom(0)) {
      Status applied;
      switch (rec.kind) {
        case naming::OpRecord::Kind::kReplicaPlace:
        case naming::OpRecord::Kind::kReplicaReportStale:
        case naming::OpRecord::Kind::kReplicaMarkRepaired:
        case naming::OpRecord::Kind::kReplicaHoldings:
          applied = replicas_ != nullptr
                        ? replicas_->Replay(rec)
                        : Internal("registry record without a registry");
          break;
        default:
          applied = service_->Replay(rec);
          break;
      }
      if (applied.ok()) {
        ++replayed;
      } else {
        replay_errors_.Add();
      }
    }
    // From here on this server is the shard's writer: continue the log so
    // the audit trail (and any future standby) stays complete.
    service_->SetOpLog(shard_.oplog);
    if (replicas_ != nullptr) replicas_->SetOpLog(shard_.oplog);
  }
  LWFS_RETURN_IF_ERROR(map.Promote(shard_.shard_index, nid()));
  if (shard_.reregister_holdings && replicas_ != nullptr) {
    shard_.reregister_holdings(replicas_);
  }
  takeovers_.Add();
  replayed_.Add(replayed);
  active_ = true;
  return OkStatus();
}

}  // namespace lwfs::core

#include "core/storage_server.h"

#include <algorithm>
#include <chrono>
#include <deque>

#include "core/wire.h"
#include "util/logging.h"

namespace lwfs::core {

namespace {
rpc::ServerOptions ControlOptions(const StorageServerOptions& options) {
  rpc::ServerOptions control;
  control.request_portal = rpc::kControlPortal;
  control.worker_threads = 1;
  control.request_queue_depth = 1024;
  control.clock = options.clock;
  return control;
}

/// Data-plane worker count when neither knob picks one (see the
/// worker_threads comment in storage_server.h).
constexpr int kDefaultDataWorkers = 4;

rpc::ServerOptions DataOptions(const StorageServerOptions& options) {
  rpc::ServerOptions data = options.rpc;
  if (options.worker_threads > 0) {
    // Explicitly set: wins over whatever rpc carries.
    data.worker_threads = options.worker_threads;
  } else if (data.worker_threads <= 1) {
    // Neither knob set (rpc still at its single-worker default): the data
    // portal needs concurrency for the network transfer of request N+1 to
    // overlap medium service of request N.
    data.worker_threads = kDefaultDataWorkers;
  }
  if (data.clock == nullptr) data.clock = options.clock;
  return data;
}

rpc::ClientOptions AuthzClientOptions(const StorageServerOptions& options) {
  rpc::ClientOptions client = options.client_options;
  if (client.clock == nullptr) client.clock = options.clock;
  return client;
}

rpc::ServerOptions ReplicaOptions(const StorageServerOptions& options) {
  rpc::ServerOptions replica;
  replica.request_portal = rpc::kReplicaPortal;
  replica.worker_threads = std::max(options.replica_worker_threads, 1);
  replica.clock = options.clock;
  return replica;
}

/// Chunks of one write kept in flight past the current pull.  Depth 2
/// overlaps the network pull of chunk N+1 with medium service of chunk N
/// while bounding per-request staging at 2 chunks — which is why the pool
/// is clamped to at least that much.
constexpr std::size_t kRequestPipelineDepth = 2;

IoSchedulerOptions SchedulerOptions(const StorageServerOptions& options) {
  IoSchedulerOptions sched;
  sched.modeled_disk_mb_s = options.modeled_disk_mb_s;
  sched.modeled_op_latency_us = options.modeled_op_latency_us;
  sched.coalesce = options.scheduler;
  sched.clock = options.clock;
  return sched;
}

/// An extent must end inside the object offset space, [0,
/// kMaxObjectBytes]: a larger end would make the store materialize a table
/// for it (or wrap inside the store and the scheduler's run planner).
/// Reject it before it gets that far.
Status CheckExtent(std::uint64_t offset, std::uint64_t length) {
  if (offset > storage::kMaxObjectBytes ||
      length > storage::kMaxObjectBytes - offset) {
    return InvalidArgument("extent ends past the largest object size");
  }
  return OkStatus();
}

/// A read extent must also fit one request's materialization bound.
Status CheckReadExtent(std::uint64_t offset, std::uint64_t length) {
  if (length > storage::kMaxReadBytes) {
    return InvalidArgument("read longer than one request may materialize");
  }
  return CheckExtent(offset, length);
}
}  // namespace

StorageServer::StorageServer(std::shared_ptr<portals::Nic> nic,
                             std::uint32_t server_id,
                             storage::ObjectStore* store,
                             portals::Nid authz_nid, security::NowFn now,
                             StorageServerOptions options)
    : server_id_(server_id),
      clock_(util::OrReal(options.clock)),
      store_(store),
      authz_nid_(authz_nid),
      now_(std::move(now)),
      options_(options),
      participant_(participant_name()),
      data_server_(nic, DataOptions(options)),
      control_server_(nic, ControlOptions(options)),
      replica_server_(nic, ReplicaOptions(options)),
      authz_client_(std::move(nic), AuthzClientOptions(options)),
      data_ops_(&data_server_, "storage"),
      control_ops_(&control_server_, "storage_ctl"),
      replica_ops_(&replica_server_, "storage_rep"),
      staging_(std::max(options.staging_bytes,
                        kRequestPipelineDepth * options.bulk_chunk_bytes),
               options.clock),
      scheduler_(SchedulerOptions(options)) {
  metrics_->Attach("rpc.data", data_server_.metrics());
  metrics_->Attach("rpc.control", control_server_.metrics());
  metrics_->Attach("rpc.replica", replica_server_.metrics());
  metrics_->Attach("authz_client", authz_client_.metrics());
  metrics_->Attach("op", data_ops_.metrics());
  metrics_->Attach("op", control_ops_.metrics());
  metrics_->Attach("replica_op", replica_ops_.metrics());
  metrics_->Attach("sched", scheduler_.metrics());
  metrics_->Attach("staging", staging_.metrics());
  metrics_->Attach("cap_cache", cap_cache_.metrics());
  // Every capability-gated data op authorizes against the container the
  // capability itself names; the middleware runs this before any handler.
  data_ops_.SetAuthorizer([this](rpc::ServerContext& ctx,
                                 const security::Capability& cap,
                                 std::uint32_t needed_ops) {
    return Authorize(ctx, cap, needed_ops);
  });
  // Forwarded chain hops carry the client's own capability (capabilities
  // are transferable, §3.1.2), so the replica portal authorizes exactly
  // like the data portal.
  replica_ops_.SetAuthorizer([this](rpc::ServerContext& ctx,
                                    const security::Capability& cap,
                                    std::uint32_t needed_ops) {
    return Authorize(ctx, cap, needed_ops);
  });
  RegisterDataHandlers();
  RegisterControlHandlers();
  RegisterReplicaHandlers();
}

Status StorageServer::Start() {
  LWFS_RETURN_IF_ERROR(data_ops_.init_status());
  LWFS_RETURN_IF_ERROR(control_ops_.init_status());
  LWFS_RETURN_IF_ERROR(replica_ops_.init_status());
  scheduler_.Start();
  LWFS_RETURN_IF_ERROR(data_server_.Start());
  LWFS_RETURN_IF_ERROR(replica_server_.Start());
  return control_server_.Start();
}

void StorageServer::Stop() {
  // Close the staging pool first: a data worker blocked in Acquire wakes
  // with kUnavailable instead of hanging the join below.  In-flight
  // requests caught mid-transfer fail with that status — shutdown is an
  // error, never a hang.
  staging_.Close();
  // Workers next: data, replica, and control handlers may all be blocked
  // awaiting scheduler tickets (repair reads/writes route through the
  // scheduler too), so the scheduler must outlive every worker pool and
  // drains last.
  data_server_.Stop();
  replica_server_.Stop();
  control_server_.Stop();
  scheduler_.Stop();
}

void StorageServer::Restart() {
  // Re-register what the persistent store still holds with the replica
  // registry *before* any volatile state clears and before the node takes
  // traffic again: a background repair scan racing this restart must see
  // the survivor's real holdings, never a phantom-empty server.
  if (options_.restart_report) {
    std::vector<std::pair<storage::ObjectId, std::uint64_t>> held;
    auto all = store_->ListAll();
    if (all.ok()) {
      for (storage::ObjectId oid : *all) {
        if (!storage::IsReplicatedOid(oid)) continue;
        auto attr = store_->GetAttr(oid);
        if (attr.ok()) held.emplace_back(oid, attr->version);
      }
    }
    options_.restart_report(server_id_, held);
  }
  cap_cache_.Clear();
  participant_.Reset();
  data_server_.ResetReplyCache();
  control_server_.ResetReplyCache();
  replica_server_.ResetReplyCache();
}

Status StorageServer::Authorize(rpc::ServerContext& ctx,
                                const security::Capability& cap,
                                std::uint32_t needed_ops) {
  // Cheap structural check first: the capability must grant the operation
  // class.  Handlers act only on the container it names (CheckObject).
  if ((needed_ops & ~cap.ops) != 0) {
    return PermissionDenied("capability does not grant operation");
  }
  // Expiry is visible in the capability; no round trip needed.
  if (cap.expires_us <= now_()) {
    return PermissionDenied("capability expired");
  }

  if (options_.verify_mode == VerifyMode::kSharedKey) {
    // NASD/T10 scheme: local signature check with the shared key.  No
    // message, no back pointer — and therefore no revocation path.
    if (cap.tag != security::SipTag(options_.shared_key,
                                    ByteSpan(cap.SignedBytes()))) {
      return PermissionDenied("capability signature mismatch");
    }
    return OkStatus();
  }

  // Verified before?  (Figure 4-b: cache hit skips step 2 entirely.)  An
  // inline miss is counted by the worker that takes the request over.
  if (options_.verify_mode == VerifyMode::kAuthzWithCache &&
      cap_cache_.Lookup(cap, now_(), /*count_miss=*/!ctx.inline_dispatch())) {
    return OkStatus();
  }
  // Miss: one verify round trip to the authorization service, which also
  // records the back pointer for revocation.  A delivering thread never
  // makes it: nothing has happened yet, so a worker takes the request.
  if (ctx.inline_dispatch()) return ctx.Defer();
  remote_verifies_.Add();
  auto reply = rpc::CallTyped<rpc::Void>(authz_client_, authz_nid_,
                                         kOpVerifyCap,
                                         wire::VerifyCapReq{server_id_, cap});
  if (!reply.ok()) return reply.status();
  if (options_.verify_mode == VerifyMode::kAuthzWithCache) {
    cap_cache_.Insert(cap);
  }
  return OkStatus();
}

Result<storage::ObjAttr> StorageServer::CheckObject(
    const security::Capability& cap, storage::ObjectId oid) {
  auto attr = store_->GetAttr(oid);
  if (!attr.ok()) return attr.status();
  if (attr->cid != cap.cid) {
    // Do not leak existence of objects in other containers.
    return NotFound("no such object");
  }
  return attr;
}

void StorageServer::ChargeModeledUs(double us) {
  if (us <= 0) return;
  // One disk arm: extend the arm's committed-busy horizon under the lock,
  // then sleep out this request's slot without holding it.  Competing
  // requests still serialize (each slot starts where the previous one
  // ended), but nothing sleeps inside a contended mutex — which would
  // stall unrelated workers and deadlock a virtual-time run.
  util::Clock::TimePoint until;
  {
    std::lock_guard<std::mutex> lock(medium_mu_);
    const util::Clock::TimePoint now = clock_->Now();
    if (medium_busy_until_ < now) medium_busy_until_ = now;
    medium_busy_until_ +=
        std::chrono::microseconds(static_cast<std::int64_t>(us));
    until = medium_busy_until_;
  }
  clock_->SleepUntil(until);
}

Result<std::uint64_t> StorageServer::ScheduledWrite(
    rpc::ServerContext& ctx, storage::ObjectId oid, std::uint64_t offset,
    std::uint64_t total, std::span<const std::uint32_t> crcs) {
  std::deque<std::shared_ptr<IoTicket>> pipeline;
  Status first_error = OkStatus();
  auto fail = [&](Status s) {
    if (s.code() == ErrorCode::kDataLoss) ctx.NotePayloadCorrupt();
    if (!s.ok() && first_error.ok()) first_error = std::move(s);
  };
  auto retire_oldest = [&] {
    fail(pipeline.front()->Await());
    pipeline.pop_front();
  };
  // Check and stage one chunk on this worker, then queue its publish.  A
  // chunk that fails its check stops the request: nothing of it, and no
  // later chunk, is submitted.
  auto stage_and_submit = [&](std::uint64_t at, util::SharedSlice data,
                              std::span<const std::uint32_t> want,
                              std::shared_ptr<StagingReservation> reservation,
                              bool last) {
    const std::uint64_t n = data.size();
    auto staged = store_->Stage(oid, at, data, want);
    if (!staged.ok()) {
      fail(staged.status());
      return;
    }
    auto service = [store = store_,
                    staged = std::make_shared<storage::StagedWrite>(
                        std::move(*staged)),
                    reservation = std::move(reservation)]() -> Status {
      return store->Publish(std::move(*staged));
    };
    if (last && pipeline.empty()) {
      // Nothing of this request is left in flight: the last chunk needs no
      // pipelining, so an idle server services it on this worker.
      // Non-final chunks keep queueing, so the pull and check of chunk N+1
      // overlap the publish of chunk N.
      fail(scheduler_.Write(oid, at, n, std::move(service)));
      return;
    }
    pipeline.push_back(scheduler_.Submit(oid, at, n, std::move(service)));
    while (pipeline.size() >= kRequestPipelineDepth && first_error.ok()) {
      retire_oldest();
    }
  };

  const std::uint64_t end = offset + total;
  std::uint64_t moved = 0;
  std::size_t piece = 0;  // crcs index of the piece that starts at `moved`
  while (moved < total && first_error.ok()) {
    // The next chunk: the whole pieces that fit in bulk_chunk_bytes, at
    // least one, so each chunk is checked against its own piece CRCs.
    std::uint64_t n = 0;
    std::size_t pieces = 0;
    while (moved + n < total) {
      const std::uint64_t len = storage::PieceLength(offset + moved + n, end);
      if (pieces > 0 && n + len > options_.bulk_chunk_bytes) break;
      n += len;
      ++pieces;
    }
    // Reserve staging space before pulling: when the pool is exhausted this
    // worker stalls, the request portal backs up, and new requests bounce
    // with kResourceExhausted — bounded staging is the flow control.
    // Blocking is safe here: this worker holds no reservation of its own
    // (pipelined chunks' reservations live in the scheduler's service fns,
    // which the scheduler thread releases without ever touching the pool).
    const auto reserved = static_cast<std::size_t>(n);
    Status acquired = staging_.Acquire(reserved);
    if (!acquired.ok()) {
      fail(std::move(acquired));
      break;
    }
    auto reservation =
        std::make_shared<StagingReservation>(&staging_, reserved);
    const std::uint64_t at = offset + moved;
    // The slice references the client's registered payload (kept alive by
    // its refcount) when the client registered an owned slice; the store's
    // staging copy is then the write path's only pass over the bytes.
    if (n <= options_.bulk_chunk_bytes) {
      auto pulled = ctx.PullBulkSlice(static_cast<std::size_t>(n), moved);
      if (!pulled.ok()) {
        fail(pulled.status());
        break;
      }
      moved += n;
      stage_and_submit(at, std::move(*pulled), crcs.subspan(piece, pieces),
                       std::move(reservation), moved == total);
      piece += pieces;
      continue;
    }
    // One piece longer than a chunk (bulk_chunk_bytes < kExtentBytes): pull
    // it a chunk at a time and check the whole piece before any chunk of
    // it is staged — verify first, then copy.
    std::vector<util::SharedSlice> parts;
    std::vector<std::uint32_t> part_crcs;
    std::uint32_t piece_crc = 0;  // CRC32 of the empty prefix
    for (std::uint64_t got = 0; got < n;) {
      const auto len = static_cast<std::size_t>(
          std::min<std::uint64_t>(options_.bulk_chunk_bytes, n - got));
      auto pulled = ctx.PullBulkSlice(len, moved + got);
      if (!pulled.ok()) {
        fail(pulled.status());
        break;
      }
      LWFS_COUNT_CRC(util::CrcSide::kServer, len);
      part_crcs.push_back(Crc32(pulled->span()));
      piece_crc = Crc32Combine(piece_crc, part_crcs.back(), len);
      parts.push_back(std::move(*pulled));
      got += len;
    }
    if (!first_error.ok()) break;
    if (piece_crc != crcs[piece]) {
      fail(DataLoss("write payload failed its checksum"));
      break;
    }
    for (std::size_t i = 0; i < parts.size() && first_error.ok(); ++i) {
      const std::uint64_t part_at = offset + moved;
      moved += parts[i].size();
      stage_and_submit(part_at, std::move(parts[i]), {&part_crcs[i], 1},
                       reservation, moved == total);
    }
    ++piece;
  }
  while (!pipeline.empty()) retire_oldest();
  if (!first_error.ok()) return first_error;
  return moved;
}

Result<util::SharedSlice> StorageServer::ScheduledReadSlice(
    storage::ObjectId oid, std::uint64_t offset, std::uint64_t length,
    std::uint64_t size) {
  // Only the bytes the object holds are materialized, so only those are
  // reserved: a read into an oversized buffer must not hold the pool.
  const std::uint64_t want =
      offset >= size ? 0 : std::min<std::uint64_t>(length, size - offset);
  if (want == 0) return util::SharedSlice{};
  // Flow control: reserve staging for the materialized read (Acquire
  // clamps oversized requests to pool capacity) while the medium services
  // it.  Blocking here is safe — this worker holds no reservation yet.
  // After the handler returns, the slice's retention in the reply frame
  // and reply cache is bounded by the cache's eviction, not the pool.
  LWFS_RETURN_IF_ERROR(staging_.Acquire(static_cast<std::size_t>(want)));
  StagingReservation reservation(&staging_, static_cast<std::size_t>(want));
  return scheduler_.Read(
      oid, offset, want,
      [store = store_, oid](std::uint64_t off,
                            std::uint64_t len) -> Result<util::SharedSlice> {
        return store->ReadSlice(oid, off, len);
      });
}

Result<std::uint64_t> StorageServer::ReplyWithScheduledRead(
    rpc::ServerContext& ctx, storage::ObjectId oid, std::uint64_t offset,
    std::uint64_t length, std::uint64_t size) {
  auto slice = ScheduledReadSlice(oid, offset, length, size);
  if (!slice.ok()) return slice.status();
  const std::uint64_t moved = slice->size();
  if (moved > 0) LWFS_RETURN_IF_ERROR(ctx.PushBulkSlice(std::move(*slice)));
  return moved;
}

void StorageServer::RegisterDataHandlers() {
  // Authorization for every capability-gated op below runs in the service
  // middleware (required_ops in each OpDef), before the handler body.
  // Create, remove and getattr are declared inline (core/wire.h); a modeled
  // create cost sleeps out the create arm's slot, so then only a worker may
  // run a create.
  data_ops_.On<wire::ObjCreateReq, wire::ObjCreateRep>(
      options_.modeled_create_latency_us > 0 ? rpc::Queued(wire::kObjCreateOp)
                                             : wire::kObjCreateOp,
      [this](rpc::ServerContext&,
             wire::ObjCreateReq& req) -> Result<wire::ObjCreateRep> {
        ChargeModeledUs(options_.modeled_create_latency_us);
        auto oid = store_->Create(req.cap.cid);
        if (!oid.ok()) return oid.status();
        if (req.txid != 0) {
          // Eager create + compensating remove: the object is invisible
          // until a name commits, so eager application is safe.
          participant_.Join(req.txid);
          storage::ObjectId created = *oid;
          participant_.AddUndo(req.txid, [this, created] {
            (void)store_->Remove(created);
          });
        }
        return wire::ObjCreateRep{oid->value};
      });

  data_ops_.On<wire::ObjWriteReq, wire::IoMovedRep>(
      wire::kObjWriteOp,
      [this](rpc::ServerContext& ctx,
             wire::ObjWriteReq& req) -> Result<wire::IoMovedRep> {
        auto attr = CheckObject(req.cap, storage::ObjectId{req.oid});
        if (!attr.ok()) return attr.status();
        const std::uint64_t total = ctx.bulk_out_size();
        LWFS_RETURN_IF_ERROR(CheckExtent(req.offset, total));
        // End-to-end integrity, checked where the bytes land: each piece's
        // CRC, which the client folded into the header checksum, gates its
        // store copy.  A corrupt pull lands nothing, and the client sees
        // kDataLoss and retries.
        if (req.piece_crcs.size() !=
                storage::PieceCount(req.offset, total) ||
            (total > 0 && storage::CombinePieceCrcs(req.offset, total,
                                                    req.piece_crcs) !=
                              ctx.bulk_out_crc())) {
          return InvalidArgument("piece checksums do not fold to the payload's");
        }

        // Server-directed pull, one bounded chunk at a time (Figure 6).
        auto moved = ScheduledWrite(ctx, storage::ObjectId{req.oid},
                                    req.offset, total, req.piece_crcs);
        if (!moved.ok()) return moved.status();
        return wire::IoMovedRep{*moved};
      });

  // The read: no client-registered bulk-in region and no server push — the
  // store-owned slice is appended to the reply frame itself
  // (PushBulkSlice) and fans out to the client as refcount bumps.  The
  // store's medium copy is the path's only copy.
  data_ops_.On<wire::ObjReadReq, wire::IoMovedRep>(
      wire::kObjReadOp,
      [this](rpc::ServerContext& ctx,
             wire::ObjReadReq& req) -> Result<wire::IoMovedRep> {
        auto attr = CheckObject(req.cap, storage::ObjectId{req.oid});
        if (!attr.ok()) return attr.status();
        LWFS_RETURN_IF_ERROR(CheckReadExtent(req.offset, req.length));
        auto moved = ReplyWithScheduledRead(ctx, storage::ObjectId{req.oid},
                                            req.offset, req.length,
                                            attr->size);
        if (!moved.ok()) return moved.status();
        return wire::IoMovedRep{*moved};
      });

  data_ops_.On<wire::ObjRemoveReq, rpc::Void>(
      wire::kObjRemoveOp,
      [this](rpc::ServerContext&,
             wire::ObjRemoveReq& req) -> Result<rpc::Void> {
        auto attr = CheckObject(req.cap, storage::ObjectId{req.oid});
        if (!attr.ok()) return attr.status();
        if (req.txid != 0) {
          // Destructive op: defer to commit.
          participant_.Join(req.txid);
          storage::ObjectId victim{req.oid};
          participant_.StageApply(req.txid, [this, victim] {
            return store_->Remove(victim);
          });
        } else {
          LWFS_RETURN_IF_ERROR(store_->Remove(storage::ObjectId{req.oid}));
        }
        return rpc::Void{};
      });

  data_ops_.On<wire::ObjGetAttrReq, wire::ObjAttrRep>(
      wire::kObjGetAttrOp,
      [this](rpc::ServerContext&,
             wire::ObjGetAttrReq& req) -> Result<wire::ObjAttrRep> {
        auto attr = CheckObject(req.cap, storage::ObjectId{req.oid});
        if (!attr.ok()) return attr.status();
        return wire::ObjAttrRep{*attr};
      });

  data_ops_.On<wire::ObjListReq, wire::ObjListRep>(
      wire::kObjListOp,
      [this](rpc::ServerContext&,
             wire::ObjListReq& req) -> Result<wire::ObjListRep> {
        auto ids = store_->List(req.cap.cid);
        if (!ids.ok()) return ids.status();
        wire::ObjListRep rep;
        rep.oids.reserve(ids->size());
        for (storage::ObjectId oid : *ids) rep.oids.push_back(oid.value);
        return rep;
      });

  data_ops_.On<wire::ObjFilterReq, wire::ObjFilterRep>(
      wire::kObjFilterOp,
      [this](rpc::ServerContext& ctx,
             wire::ObjFilterReq& req) -> Result<wire::ObjFilterRep> {
        auto attr = CheckObject(req.cap, storage::ObjectId{req.oid});
        if (!attr.ok()) return attr.status();
        LWFS_RETURN_IF_ERROR(CheckReadExtent(req.offset, req.length));
        // The whole point: the data is read and reduced *here*; only the
        // result crosses the network.  The read takes the same scheduled
        // path as obj_read.
        auto data = ScheduledReadSlice(storage::ObjectId{req.oid},
                                       req.offset, req.length, attr->size);
        if (!data.ok()) return data.status();
        auto result = ApplyFilter(req.spec, data->span());
        if (!result.ok()) return result.status();
        if (result->size() > ctx.bulk_in_size()) {
          return ResourceExhausted("client result region too small");
        }
        if (!result->empty()) {
          LWFS_RETURN_IF_ERROR(ctx.PushBulk(ByteSpan(*result)));
        }
        return wire::ObjFilterRep{result->size(), data->size()};
      });

  data_ops_.On<wire::ObjTruncateReq, rpc::Void>(
      wire::kObjTruncateOp,
      [this](rpc::ServerContext&,
             wire::ObjTruncateReq& req) -> Result<rpc::Void> {
        auto attr = CheckObject(req.cap, storage::ObjectId{req.oid});
        if (!attr.ok()) return attr.status();
        LWFS_RETURN_IF_ERROR(CheckExtent(0, req.size));
        LWFS_RETURN_IF_ERROR(
            store_->Truncate(storage::ObjectId{req.oid}, req.size));
        return rpc::Void{};
      });

  // Replication data plane: the idempotent fan-out create and the chain
  // write's head hop (clients always address the chain head's data
  // portal; forwarded hops arrive on the replica portal instead).
  data_ops_.On<wire::ObjCreateAtReq, rpc::Void>(
      wire::kObjCreateAtOp,
      [this](rpc::ServerContext&,
             wire::ObjCreateAtReq& req) -> Result<rpc::Void> {
        return HandleObjCreateAt(req);
      });
  data_ops_.On<wire::ReplicaWriteReq, wire::ReplicaWriteRep>(
      wire::kReplicaWriteOp,
      [this](rpc::ServerContext& ctx,
             wire::ReplicaWriteReq& req) -> Result<wire::ReplicaWriteRep> {
        return HandleReplicaWrite(ctx, req);
      });

  // Two-phase-commit participant endpoints.
  data_ops_.On<wire::TxnReq, wire::TxnVoteRep>(
      wire::kTxnPrepareOp,
      [this](rpc::ServerContext&,
             wire::TxnReq& req) -> Result<wire::TxnVoteRep> {
        auto vote = participant_.Prepare(req.txid);
        if (!vote.ok()) return vote.status();
        return wire::TxnVoteRep{*vote};
      });
  data_ops_.On<wire::TxnReq, rpc::Void>(
      wire::kTxnCommitOp,
      [this](rpc::ServerContext&, wire::TxnReq& req) -> Result<rpc::Void> {
        LWFS_RETURN_IF_ERROR(participant_.Commit(req.txid));
        return rpc::Void{};
      });
  data_ops_.On<wire::TxnReq, rpc::Void>(
      wire::kTxnAbortOp,
      [this](rpc::ServerContext&, wire::TxnReq& req) -> Result<rpc::Void> {
        LWFS_RETURN_IF_ERROR(participant_.Abort(req.txid));
        return rpc::Void{};
      });
}

void StorageServer::RegisterControlHandlers() {
  control_ops_.On<wire::InvalidateCapsReq, rpc::Void>(
      wire::kInvalidateCapsOp,
      [this](rpc::ServerContext&,
             wire::InvalidateCapsReq& req) -> Result<rpc::Void> {
        cap_cache_.Invalidate(req.cap_ids);
        return rpc::Void{};
      });

  // Repair plane (chunk-replicator traffic).  Cap-free like capability
  // invalidation: these ops originate from the deployment's own repair
  // service, not from applications, and move data between servers the
  // registry already placed the object on.
  control_ops_.On<wire::RepairProbeReq, wire::RepairProbeRep>(
      wire::kRepairProbeOp,
      [this](rpc::ServerContext&,
             wire::RepairProbeReq& req) -> Result<wire::RepairProbeRep> {
        wire::RepairProbeRep rep;
        rep.probes.reserve(req.oids.size());
        for (std::uint64_t oid : req.oids) {
          auto attr = store_->GetAttr(storage::ObjectId{oid});
          if (attr.ok()) {
            rep.probes.push_back(
                wire::ReplicaProbe{oid, true, attr->version, attr->size});
          } else {
            rep.probes.push_back(wire::ReplicaProbe{oid, false, 0, 0});
          }
        }
        return rep;
      });

  // Repair reads compete for the medium through the same elevator as
  // client traffic — rate limiting happens replicator-side, and what does
  // get through is scheduled, not priority traffic.  The survivor's bytes
  // ride the reply frame, and the replicator forwards that very slice as
  // the repair write's payload.
  control_ops_.On<wire::RepairReadReq, wire::RepairReadRep>(
      wire::kRepairReadOp,
      [this](rpc::ServerContext& ctx,
             wire::RepairReadReq& req) -> Result<wire::RepairReadRep> {
        const storage::ObjectId oid{req.oid};
        LWFS_RETURN_IF_ERROR(CheckReadExtent(req.offset, req.length));
        auto attr = store_->GetAttr(oid);
        if (!attr.ok()) return attr.status();
        auto moved =
            ReplyWithScheduledRead(ctx, oid, req.offset, req.length,
                                   attr->size);
        if (!moved.ok()) return moved.status();
        return wire::RepairReadRep{*moved, attr->version, attr->size};
      });

  control_ops_.On<wire::RepairWriteReq, wire::RepairWriteRep>(
      wire::kRepairWriteOp,
      [this](rpc::ServerContext& ctx,
             wire::RepairWriteReq& req) -> Result<wire::RepairWriteRep> {
        const storage::ObjectId oid{req.oid};
        // Create-if-missing: a member that lost the object outright gets
        // it back; one that merely lagged keeps its bytes and is
        // overwritten below.  Same-bytes-same-offset makes re-execution
        // of a duplicated repair write harmless.
        Status created =
            store_->CreateWithId(storage::ContainerId{req.cid}, oid);
        if (!created.ok() && created.code() != ErrorCode::kAlreadyExists) {
          return created;
        }
        const auto n = static_cast<std::size_t>(ctx.bulk_out_size());
        LWFS_RETURN_IF_ERROR(CheckExtent(req.offset, n));
        if (n > 0) {
          auto chunk = ctx.PullBulkSlice(n, 0);
          if (!chunk.ok()) return chunk.status();
          LWFS_RETURN_IF_ERROR(ApplyChunk(ctx, oid, req.offset, *chunk));
        }
        if (req.target_version > 0) {
          LWFS_RETURN_IF_ERROR(store_->SetVersion(oid, req.target_version));
        }
        auto attr = store_->GetAttr(oid);
        if (!attr.ok()) return attr.status();
        return wire::RepairWriteRep{attr->version};
      });
}

void StorageServer::RegisterReplicaHandlers() {
  replica_ops_.On<wire::ReplicaWriteReq, wire::ReplicaWriteRep>(
      wire::kReplicaWriteOp,
      [this](rpc::ServerContext& ctx,
             wire::ReplicaWriteReq& req) -> Result<wire::ReplicaWriteRep> {
        return HandleReplicaWrite(ctx, req);
      });
}

Result<rpc::Void> StorageServer::HandleObjCreateAt(wire::ObjCreateAtReq& req) {
  ChargeModeledUs(options_.modeled_create_latency_us);
  const storage::ObjectId oid{req.oid};
  Status created = store_->CreateWithId(req.cap.cid, oid);
  if (!created.ok()) {
    if (created.code() != ErrorCode::kAlreadyExists) return created;
    // Idempotent under retransmits, repair races, and restarted reply
    // caches: the object already existing in the *same* container is
    // success, not failure.
    auto attr = store_->GetAttr(oid);
    if (!attr.ok()) return created;
    if (attr->cid != req.cap.cid) return created;
    return rpc::Void{};
  }
  if (req.txid != 0) {
    participant_.Join(req.txid);
    participant_.AddUndo(req.txid,
                         [this, oid] { (void)store_->Remove(oid); });
  }
  return rpc::Void{};
}

Status StorageServer::ApplyChunk(rpc::ServerContext& ctx,
                                 storage::ObjectId oid, std::uint64_t offset,
                                 const util::SharedSlice& chunk) {
  const std::uint32_t crc = ctx.bulk_out_crc();
  auto staged = store_->Stage(oid, offset, chunk, {&crc, 1});
  if (!staged.ok()) {
    if (staged.status().code() == ErrorCode::kDataLoss) {
      ctx.NotePayloadCorrupt();
    }
    return staged.status();
  }
  return scheduler_.Write(
      oid, offset, chunk.size(),
      [store = store_, staged = std::make_shared<storage::StagedWrite>(
                           std::move(*staged))]() -> Status {
        return store->Publish(std::move(*staged));
      });
}

Result<wire::ReplicaWriteRep> StorageServer::HandleReplicaWrite(
    rpc::ServerContext& ctx, wire::ReplicaWriteReq& req) {
  const storage::ObjectId oid{req.oid};
  auto attr = CheckObject(req.cap, oid);
  if (!attr.ok()) return attr.status();
  const auto n = static_cast<std::size_t>(ctx.bulk_out_size());
  LWFS_RETURN_IF_ERROR(CheckExtent(req.offset, n));

  // One reservation for the whole hop payload (clients chunk replicated
  // writes, WritePipeline included, so a hop's payload is one chunk).
  // Blocking in Acquire is safe: this worker holds no reservation yet, and
  // the hold-while-forwarding wait below points strictly down an acyclic
  // chain (for factor <= 3 a forward always terminates at a non-forwarding
  // tail).
  LWFS_RETURN_IF_ERROR(staging_.Acquire(n));
  StagingReservation reservation(&staging_, n);

  auto chunk = ctx.PullBulkSlice(n, 0);
  if (!chunk.ok()) return chunk.status();
  // Per-hop CRC gate *before* forwarding or applying: bytes corrupted on
  // the previous hop's wire must not travel down the chain or reach the
  // store.  Checking inside the store copy instead would let every hop
  // start its copy at once, and on replicated_io that burst raised the
  // read tail by a quarter, so a hop keeps its check-then-copy order.
  LWFS_COUNT_CRC(util::CrcSide::kServer, n);
  if (Crc32(chunk->span()) != ctx.bulk_out_crc()) {
    ctx.NotePayloadCorrupt();
    return DataLoss("chain-hop payload failed its checksum");
  }
  // The verified CRC rides the slice, so the forward's request header
  // reuses it instead of re-streaming the chunk; the next hop still checks
  // the bytes it pulls against it.
  chunk->SetCachedCrc(ctx.bulk_out_crc());

  // Forward the same slice downstream concurrently with the local apply —
  // the forwarding hop costs zero copies, and chain latency is
  // max(local, downstream), not their sum.  An unreachable hop is
  // *skipped*, never allowed to sever the chain: the forward goes to the
  // member after it, so one dead replica costs exactly one missed member,
  // not everything downstream of it.
  std::size_t hop = 0;
  rpc::CallHandle forward;
  auto issue_forward = [&] {
    for (; hop < req.chain.size(); ++hop) {
      wire::ReplicaWriteReq next;
      next.cap = req.cap;
      next.oid = req.oid;
      next.offset = req.offset;
      next.chain.assign(
          req.chain.begin() + static_cast<std::ptrdiff_t>(hop) + 1,
          req.chain.end());
      rpc::CallOptions call;
      call.bulk_out_slice = *chunk;
      call.request_portal = rpc::kReplicaPortal;
      auto issued = rpc::CallTypedAsync(
          authz_client_, static_cast<portals::Nid>(req.chain[hop].nid),
          kOpReplicaWrite, next, call);
      if (issued.ok()) {
        forward = std::move(*issued);
        return;
      }
    }
  };
  issue_forward();

  const Status applied = scheduler_.Write(
      oid, req.offset, n,
      [store = store_, oid, offset = req.offset, data = *chunk]() -> Status {
        return store->WriteSlice(oid, offset, data);
      });

  wire::ReplicaWriteRep rep;
  while (forward.valid()) {
    auto down = rpc::ResolveTyped<wire::ReplicaWriteRep>(forward.Await());
    if (down.ok()) {
      rep.applied = std::move(down->applied);
      rep.version = down->version;
      break;
    }
    // A failed downstream hop is *not* a failed write: skip the hop and
    // re-forward to the member after it.  Whoever stays unreachable is
    // absent from the applied set, reported stale by the client, and
    // repaired from the survivors.
    forward = rpc::CallHandle();
    ++hop;
    issue_forward();
  }
  LWFS_RETURN_IF_ERROR(applied);
  auto post = store_->GetAttr(oid);
  if (!post.ok()) return post.status();
  rep.applied.push_back(server_id_);
  rep.version = std::max(rep.version, post->version);
  return rep;
}

}  // namespace lwfs::core

#include "core/client.h"

#include <algorithm>
#include <cstring>
#include <thread>
#include <utility>

#include "core/wire.h"
#include "naming/shard_map.h"
#include "rpc/service.h"

namespace lwfs::core {

bool FailoverWorthy(const Status& status) {
  switch (status.code()) {
    case ErrorCode::kTimeout:
    case ErrorCode::kUnavailable:
    case ErrorCode::kNotFound:
    case ErrorCode::kDataLoss:
      return true;
    default:
      return false;
  }
}

namespace {

/// A read reply's bytes: the count comes from the body, the bytes from the
/// bulk that rode the reply frame.
Result<util::SharedSlice> ResolveSliceRead(const rpc::CallHandle& handle,
                                           Result<Buffer> reply) {
  auto moved = rpc::ResolveTyped<wire::IoMovedRep>(std::move(reply));
  if (!moved.ok()) return moved.status();
  util::SharedSlice bulk = handle.ReplyBulk();
  if (bulk.size() != moved->moved) {
    // The frame CRC already vouches for the bytes; a mismatch here means
    // the reply body and its bulk parts disagree — treat it like any other
    // corrupt transfer.
    return DataLoss("slice read bulk does not match reported byte count");
  }
  return bulk;
}

/// An issue failure mid-list: drain what already went out (a borrowed
/// payload or landing span must be quiescent before the caller can free
/// it), then report the failure.
Status DrainAfter(PendingIo& io, Status error) {
  for (rpc::CallHandle& handle : io.handles()) (void)handle.Await();
  return error;
}

}  // namespace

// ---------------------------------------------------------------------------
// PendingIo / PendingCreate / Batch
// ---------------------------------------------------------------------------

Result<IoResult> PendingIo::Resolve() {
  // Every call is waited for before any error is reported.
  Status first_error = OkStatus();
  IoResult result;
  if (!is_read_) {
    for (rpc::CallHandle& handle : handles_) {
      Status s = handle.Await().status();
      if (first_error.ok()) first_error = std::move(s);
    }
    if (!first_error.ok()) return first_error;
    result.bytes = written_;
    return result;
  }
  result.slices.resize(extents_.size());
  Buffer joined;  // the parts so far of an extent split over requests
  for (std::size_t i = 0; i < handles_.size(); ++i) {
    const Part& part = parts_[i];
    const ReadExtent& extent = extents_[part.extent];
    auto slice = ResolveSliceRead(handles_[i], handles_[i].Await());
    if (slice.ok() && slice->size() > extent.length - part.at) {
      slice = DataLoss("read returned more bytes than asked for");
    }
    if (!slice.ok() && first_error.ok()) first_error = slice.status();
    if (!first_error.ok()) continue;
    const ByteSpan bytes = slice->span();
    result.bytes += bytes.size();
    if (!extent.out.empty()) {
      // The span adapter's one copy: the reply slice into the caller's
      // span, counted as staging — span reads cost what they always have.
      if (!bytes.empty()) {
        std::memcpy(extent.out.data() + part.at, bytes.data(), bytes.size());
        LWFS_COUNT_COPY(util::CopyKind::kStage, bytes.size());
      }
    } else if (extent.length <= storage::kMaxReadBytes) {
      result.slices[part.extent] = std::move(*slice);
    } else {
      // A split extent joins its parts: one delivery copy per byte.
      joined.insert(joined.end(), bytes.begin(), bytes.end());
      LWFS_COUNT_COPY(util::CopyKind::kDeliver, bytes.size());
      if (i + 1 == handles_.size() || parts_[i + 1].extent != part.extent) {
        result.slices[part.extent] =
            util::SharedSlice::FromBuffer(std::exchange(joined, Buffer{}));
      }
    }
  }
  if (!first_error.ok()) return first_error;
  return result;
}

Result<IoResult> PendingIo::Await() {
  if (!issued_) return FailedPrecondition("awaiting an empty io handle");
  return Resolve();
}

bool PendingIo::TryAwait(Result<IoResult>* out) {
  if (!issued_) return false;
  for (rpc::CallHandle& handle : handles_) {
    if (!handle.TryAwait(nullptr)) return false;
  }
  Result<IoResult> done = Resolve();
  if (out != nullptr) *out = std::move(done);
  return true;
}

Result<storage::ObjectId> PendingCreate::Await() {
  if (!handle_.valid()) {
    return FailedPrecondition("awaiting an empty create handle");
  }
  auto rep = rpc::ResolveTyped<wire::ObjCreateRep>(handle_.Await());
  if (!rep.ok()) return rep.status();
  return storage::ObjectId{rep->oid};
}

bool PendingCreate::TryAwait(Result<storage::ObjectId>* out) {
  if (!handle_.valid()) return false;
  Result<Buffer> reply = Buffer{};
  if (!handle_.TryAwait(&reply)) return false;
  if (out != nullptr) {
    auto rep = rpc::ResolveTyped<wire::ObjCreateRep>(std::move(reply));
    if (!rep.ok()) {
      *out = rep.status();
    } else {
      *out = storage::ObjectId{rep->oid};
    }
  }
  return true;
}

Status Batch::RetireOldest() {
  Op op = std::move(inflight_.front());
  inflight_.pop_front();
  auto done = op.io.Await();
  if (!done.ok()) {
    if (first_error_.ok()) first_error_ = done.status();
    return done.status();
  }
  if (op.out != nullptr) *op.out = std::move(*done);
  return OkStatus();
}

Status Batch::MakeRoom() {
  if (!first_error_.ok()) return first_error_;
  while (inflight_.size() >= window_) (void)RetireOldest();
  return first_error_;
}

Status Batch::Keep(Result<PendingIo> issued, IoResult* out) {
  if (!issued.ok()) {
    if (first_error_.ok()) first_error_ = issued.status();
    return issued.status();
  }
  inflight_.push_back(Op{std::move(*issued), out});
  return OkStatus();
}

Status Batch::Write(std::uint32_t server, const security::Capability& cap,
                    storage::ObjectId oid, std::vector<WritePiece> pieces) {
  LWFS_RETURN_IF_ERROR(MakeRoom());
  return Keep(client_->WriteObjectAsync(server, cap, oid, std::move(pieces)),
              nullptr);
}

Status Batch::Read(std::uint32_t server, const security::Capability& cap,
                   storage::ObjectId oid, std::vector<ReadExtent> extents,
                   IoResult* out) {
  LWFS_RETURN_IF_ERROR(MakeRoom());
  return Keep(client_->ReadObjectAsync(server, cap, oid, std::move(extents)),
              out);
}

Status Batch::Drain() {
  while (!inflight_.empty()) (void)RetireOldest();
  return first_error_;
}

// ---------------------------------------------------------------------------
// PendingReplicatedWrite
// ---------------------------------------------------------------------------

PendingReplicatedWrite::PendingReplicatedWrite(Client* client,
                                               security::Capability cap,
                                               ReplicaChain chain,
                                               std::uint64_t offset,
                                               util::SharedSlice data)
    : client_(client),
      cap_(std::move(cap)),
      chain_(std::move(chain)),
      members_(chain_.servers),
      offset_(offset),
      data_(std::move(data)) {}

Status PendingReplicatedWrite::Issue() {
  for (;;) {
    auto head = client_->StorageNid(members_.front());
    if (!head.ok()) return head.status();
    wire::ReplicaWriteReq req;
    req.cap = cap_;
    req.oid = chain_.oid.value;
    req.offset = offset_;
    for (std::size_t i = 1; i < members_.size(); ++i) {
      auto nid = client_->StorageNid(members_[i]);
      if (!nid.ok()) return nid.status();
      req.chain.push_back(wire::ReplicaHop{members_[i], *nid});
    }
    // An owned slice is one registration the head forwards; a borrowed
    // one stays pinned by `data_` until the call (and any failover
    // reissue) completes.
    rpc::CallOptions options;
    options.bulk_out_slice = data_;
    auto handle = rpc::CallTypedAsync(client_->rpc_, *head, kOpReplicaWrite,
                                      req, options);
    if (handle.ok()) {
      handle_ = std::move(*handle);
      ++generation_;
      return OkStatus();
    }
    // Head unreachable at issue time (down node, open breaker): fail over
    // exactly as for a mid-call transport failure — the next member heads a
    // shorter chain and the skipped one is reported stale by Finish().
    if (!FailoverWorthy(handle.status()) || members_.size() == 1) {
      return handle.status();
    }
    members_.erase(members_.begin());
    client_->write_failovers_.Add();
  }
}

bool PendingReplicatedWrite::Advance(Result<Buffer> reply,
                                     Result<std::uint64_t>* out) {
  if (!reply.ok() && FailoverWorthy(reply.status()) && members_.size() > 1) {
    // Head unreachable: the next member heads a shorter chain.  The skipped
    // member is accounted for in Finish() — it will be absent from the
    // applied set, so it gets reported stale like any missed hop.
    members_.erase(members_.begin());
    client_->write_failovers_.Add();
    if (Issue().ok()) return false;
  }
  final_ = Finish(std::move(reply));
  done_ = true;
  if (out != nullptr) *out = final_;
  return true;
}

Result<std::uint64_t> PendingReplicatedWrite::Finish(Result<Buffer> reply) {
  auto rep = rpc::ResolveTyped<wire::ReplicaWriteRep>(std::move(reply));
  if (!rep.ok()) return rep.status();
  applied_ = std::move(rep->applied);
  version_ = rep->version;
  // A commit that missed members is a *degraded* success: report the misses
  // (with the committed version) so the background replicator re-replicates
  // from survivors, rather than failing a write the chain durably applied.
  std::vector<std::uint32_t> stale;
  for (std::uint32_t member : chain_.servers) {
    if (std::find(applied_.begin(), applied_.end(), member) ==
        applied_.end()) {
      stale.push_back(member);
    }
  }
  if (!stale.empty()) {
    client_->degraded_writes_.Add();
    (void)client_->ReportStaleReplicas(chain_.oid, version_, stale);
  }
  return data_.size();
}

Result<std::uint64_t> PendingReplicatedWrite::Await() {
  if (done_) return final_;
  if (!handle_.valid()) {
    return FailedPrecondition("awaiting an empty replicated write");
  }
  for (;;) {
    Result<std::uint64_t> out = 0;
    if (Advance(handle_.Await(), &out)) return out;
  }
}

bool PendingReplicatedWrite::TryAwait(Result<std::uint64_t>* out) {
  if (done_) {
    if (out != nullptr) *out = final_;
    return true;
  }
  if (!handle_.valid()) return false;
  Result<Buffer> reply = Buffer{};
  if (!handle_.TryAwait(&reply)) return false;
  return Advance(std::move(reply), out);
}

// ---------------------------------------------------------------------------
// RemoteParticipant
// ---------------------------------------------------------------------------

Result<bool> RemoteParticipant::Prepare(txn::TxnId txid) {
  auto vote = rpc::CallTyped<wire::TxnVoteRep>(*rpc_, nid_, kOpTxnPrepare,
                                               wire::TxnReq{txid});
  if (!vote.ok()) return vote.status();
  return vote->vote;
}

Status RemoteParticipant::Commit(txn::TxnId txid) {
  return rpc::CallTyped<rpc::Void>(*rpc_, nid_, kOpTxnCommit,
                                   wire::TxnReq{txid})
      .status();
}

Status RemoteParticipant::Abort(txn::TxnId txid) {
  return rpc::CallTyped<rpc::Void>(*rpc_, nid_, kOpTxnAbort,
                                   wire::TxnReq{txid})
      .status();
}

// ---------------------------------------------------------------------------
// RemoteObjectStore
// ---------------------------------------------------------------------------

Result<storage::ObjectId> RemoteObjectStore::Create(storage::ContainerId cid) {
  if (cid != cap_.cid) {
    return PermissionDenied("capability is for a different container");
  }
  return client_->CreateObject(server_, cap_);
}
Status RemoteObjectStore::CreateWithId(storage::ContainerId cid,
                                       storage::ObjectId oid) {
  if (cid != cap_.cid) {
    return PermissionDenied("capability is for a different container");
  }
  return client_->CreateObjectAt(server_, cap_, oid);
}
Status RemoteObjectStore::Remove(storage::ObjectId oid) {
  return client_->RemoveObject(server_, cap_, oid);
}
Status RemoteObjectStore::Write(storage::ObjectId oid, std::uint64_t offset,
                                ByteSpan data) {
  return client_->WriteObject(server_, cap_, oid, offset, data);
}
Result<Buffer> RemoteObjectStore::Read(storage::ObjectId oid,
                                       std::uint64_t offset,
                                       std::uint64_t length) {
  auto slice = ReadSlice(oid, offset, length);
  if (!slice.ok()) return slice.status();
  // Same single staging copy as a span read, sized to the bytes read.
  return slice->ToBuffer(util::CopyKind::kStage);
}
Result<util::SharedSlice> RemoteObjectStore::ReadSlice(storage::ObjectId oid,
                                                       std::uint64_t offset,
                                                       std::uint64_t length) {
  auto done = Await(client_->ReadObjectAsync(server_, cap_, oid,
                                             {{offset, length}}));
  if (!done.ok()) return done.status();
  return std::move(done->slices.front());
}
Status RemoteObjectStore::Truncate(storage::ObjectId oid, std::uint64_t size) {
  return client_->TruncateObject(server_, cap_, oid, size);
}
Result<storage::ObjAttr> RemoteObjectStore::GetAttr(storage::ObjectId oid) {
  return client_->GetAttr(server_, cap_, oid);
}
Result<std::vector<storage::ObjectId>> RemoteObjectStore::List(
    storage::ContainerId cid) {
  if (cid != cap_.cid) {
    return PermissionDenied("capability is for a different container");
  }
  return client_->ListObjects(server_, cap_);
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

Client::Client(std::shared_ptr<portals::Nic> nic, Deployment deployment,
               rpc::ClientOptions rpc_options)
    : nic_(nic), deployment_(std::move(deployment)), rpc_(nic, rpc_options) {
  metrics_->Attach("rpc", rpc_.metrics());
  route_.epoch = 1;
  route_.primaries = deployment_.naming_shards.empty()
                         ? std::vector<portals::Nid>{deployment_.naming}
                         : deployment_.naming_shards;
  route_.standbys = deployment_.naming_standbys;
  route_.standbys.resize(route_.primaries.size(), portals::kInvalidNid);
}

// ---- Shard routing ---------------------------------------------------------

std::uint32_t Client::naming_shard_count() const {
  std::lock_guard<std::mutex> lock(route_mutex_);
  return static_cast<std::uint32_t>(route_.primaries.size());
}

std::uint64_t Client::shard_route_epoch() const {
  std::lock_guard<std::mutex> lock(route_mutex_);
  return route_.epoch;
}

std::uint32_t Client::ShardForPathRoute(std::string_view path) const {
  std::lock_guard<std::mutex> lock(route_mutex_);
  return naming::ShardMap::ShardForHash(
      naming::ShardMap::HashPath(path),
      static_cast<std::uint32_t>(route_.primaries.size()));
}

std::uint32_t Client::ShardForOidRoute(storage::ObjectId oid) const {
  std::lock_guard<std::mutex> lock(route_mutex_);
  const auto count = static_cast<std::uint32_t>(route_.primaries.size());
  if (count <= 1) return 0;
  // Replicated oids are minted shard-striped, so ownership decodes from the
  // sequence number itself (see ReplicaMapOptions::shard_index).
  return static_cast<std::uint32_t>(
      (oid.value & ~storage::kReplicatedOidBit) % count);
}

portals::Nid Client::ShardPrimary(std::uint32_t shard) const {
  std::lock_guard<std::mutex> lock(route_mutex_);
  if (shard >= route_.primaries.size()) return portals::kInvalidNid;
  return route_.primaries[shard];
}

portals::Nid Client::ShardStandby(std::uint32_t shard) const {
  std::lock_guard<std::mutex> lock(route_mutex_);
  if (shard >= route_.standbys.size()) return portals::kInvalidNid;
  return route_.standbys[shard];
}

Status Client::RefreshShardRoute() {
  // Any live shard member can serve the map (the op is served outside the
  // role gate, so probing a passive standby does not trigger takeover).
  std::vector<portals::Nid> candidates;
  {
    std::lock_guard<std::mutex> lock(route_mutex_);
    candidates = route_.primaries;
    candidates.insert(candidates.end(), route_.standbys.begin(),
                      route_.standbys.end());
  }
  Status last = Unavailable("no naming shard reachable for a map refresh");
  for (portals::Nid nid : candidates) {
    if (nid == portals::kInvalidNid) continue;
    auto rep = rpc::CallTyped<wire::ShardMapRep>(rpc_, nid, kOpNameShardMap,
                                                 rpc::Void{});
    if (!rep.ok()) {
      last = rep.status();
      continue;
    }
    std::lock_guard<std::mutex> lock(route_mutex_);
    if (rep->epoch >= route_.epoch &&
        rep->shards.size() == route_.primaries.size()) {
      route_.epoch = rep->epoch;
      for (std::size_t i = 0; i < rep->shards.size(); ++i) {
        route_.primaries[i] = rep->shards[i].first;
        route_.standbys[i] = rep->shards[i].second;
      }
    }
    return OkStatus();
  }
  return last;
}

namespace {

/// Transport-level failures worth retrying on the shard's warm standby.
/// Deliberately narrower than the replication chain's FailoverWorthy:
/// kNotFound is an application answer for naming (missing name), not a
/// reason to wake the standby.
bool NamingFailoverWorthy(const Status& status) {
  return status.code() == ErrorCode::kTimeout ||
         status.code() == ErrorCode::kUnavailable;
}

}  // namespace

template <typename Rep, typename Req>
Result<Rep> Client::NamingCall(std::uint32_t shard, rpc::Opcode op,
                               const Req& req) {
  constexpr int kMaxAttempts = 4;
  Status last = OkStatus();
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    const portals::Nid primary = ShardPrimary(shard);
    auto rep = rpc::CallTyped<Rep>(rpc_, primary, op, req);
    if (rep.ok()) return rep;
    last = rep.status();
    if (last.code() == ErrorCode::kWrongShard) {
      // Stale route (shard moved under us, or a deposed primary fenced the
      // call): refresh the epoch-stamped map and retry.
      wrong_shard_retries_.Add();
      (void)RefreshShardRoute();
      continue;
    }
    if (!NamingFailoverWorthy(last)) return rep;
    const portals::Nid standby = ShardStandby(shard);
    if (standby == portals::kInvalidNid || standby == primary) return rep;
    // Primary unreachable: the standby's first admitted op triggers its
    // takeover (log replay + promote).  Refresh afterwards so subsequent
    // calls route straight to the new primary.
    naming_failovers_.Add();
    auto retry = rpc::CallTyped<Rep>(rpc_, standby, op, req);
    if (retry.ok()) {
      (void)RefreshShardRoute();
      return retry;
    }
    last = retry.status();
    if (last.code() == ErrorCode::kWrongShard) {
      wrong_shard_retries_.Add();
      (void)RefreshShardRoute();
      continue;
    }
    return retry;
  }
  return Status{last.code(),
                "naming shard route did not converge: " + last.message()};
}

Result<portals::Nid> Client::StorageNid(std::uint32_t server) const {
  if (server >= deployment_.storage.size()) {
    return InvalidArgument("no such storage server index");
  }
  return deployment_.storage[server];
}

Result<security::Credential> Client::Login(const std::string& principal,
                                           const std::string& secret) {
  auto handle = LoginAsync(principal, secret);
  if (!handle.ok()) return handle.status();
  return ResolveLogin(handle->Await());
}

Result<rpc::CallHandle> Client::LoginAsync(const std::string& principal,
                                           const std::string& secret) {
  return rpc::CallTypedAsync(rpc_, deployment_.authn, kOpLogin,
                             wire::LoginReq{principal, secret});
}

Result<security::Credential> Client::ResolveLogin(Result<Buffer> reply) {
  auto rep = rpc::ResolveTyped<wire::CredentialRep>(std::move(reply));
  if (!rep.ok()) return rep.status();
  return rep->cred;
}

Status Client::RevokeCred(std::uint64_t cred_id) {
  return rpc::CallTyped<rpc::Void>(rpc_, deployment_.authn, kOpRevokeCred,
                                   wire::RevokeCredReq{cred_id})
      .status();
}

Result<storage::ContainerId> Client::CreateContainer(
    const security::Credential& cred) {
  auto rep = rpc::CallTyped<wire::CreateContainerRep>(
      rpc_, deployment_.authz, kOpCreateContainer,
      wire::CreateContainerReq{cred});
  if (!rep.ok()) return rep.status();
  return storage::ContainerId{rep->cid};
}

Result<security::Capability> Client::GetCap(const security::Credential& cred,
                                            storage::ContainerId cid,
                                            std::uint32_t ops) {
  auto handle = GetCapAsync(cred, cid, ops);
  if (!handle.ok()) return handle.status();
  return ResolveGetCap(handle->Await());
}

Result<rpc::CallHandle> Client::GetCapAsync(const security::Credential& cred,
                                            storage::ContainerId cid,
                                            std::uint32_t ops) {
  return rpc::CallTypedAsync(rpc_, deployment_.authz, kOpGetCap,
                             wire::GetCapReq{cred, cid.value, ops});
}

Result<security::Capability> Client::ResolveGetCap(Result<Buffer> reply) {
  auto rep = rpc::ResolveTyped<wire::CapabilityRep>(std::move(reply));
  if (!rep.ok()) return rep.status();
  return rep->cap;
}

Result<security::Capability> Client::RefreshCap(
    const security::Credential& cred, const security::Capability& cap) {
  auto rep = rpc::CallTyped<wire::CapabilityRep>(
      rpc_, deployment_.authz, kOpRefreshCap, wire::RefreshCapReq{cred, cap});
  if (!rep.ok()) return rep.status();
  return rep->cap;
}

Status Client::SetGrant(const security::Credential& cred,
                        storage::ContainerId cid, security::Uid grantee,
                        std::uint32_t ops) {
  return rpc::CallTyped<rpc::Void>(
             rpc_, deployment_.authz, kOpSetGrant,
             wire::SetGrantReq{cred, cid.value, grantee, ops})
      .status();
}

Status Client::RevokeCap(const security::Credential& cred,
                         std::uint64_t cap_id) {
  return rpc::CallTyped<rpc::Void>(rpc_, deployment_.authz,
                                   kOpRevokeCapability,
                                   wire::RevokeCapReq{cred, cap_id})
      .status();
}

Result<storage::ObjectId> Client::CreateObject(std::uint32_t server,
                                               const security::Capability& cap,
                                               txn::TxnId txid) {
  auto pending = CreateObjectAsync(server, cap, txid);
  if (!pending.ok()) return pending.status();
  return pending->Await();
}

Result<PendingCreate> Client::CreateObjectAsync(std::uint32_t server,
                                                const security::Capability& cap,
                                                txn::TxnId txid) {
  auto nid = StorageNid(server);
  if (!nid.ok()) return nid.status();
  auto handle = rpc::CallTypedAsync(rpc_, *nid, kOpObjCreate,
                                    wire::ObjCreateReq{cap, txid});
  if (!handle.ok()) return handle.status();
  return PendingCreate(std::move(*handle));
}

Result<PendingIo> Client::WriteObjectAsync(std::uint32_t server,
                                           const security::Capability& cap,
                                           storage::ObjectId oid,
                                           std::vector<WritePiece> pieces) {
  for (const WritePiece& piece : pieces) {
    // The servers refuse such a piece too; refusing it here keeps its
    // piece checksums from being cut at a wrapped offset.
    if (piece.offset > storage::kMaxObjectBytes ||
        piece.data.size() > storage::kMaxObjectBytes - piece.offset) {
      return InvalidArgument("extent ends past the largest object size");
    }
  }
  auto nid = StorageNid(server);
  if (!nid.ok()) return nid.status();
  PendingIo io;
  io.issued_ = true;
  io.handles_.reserve(pieces.size());
  for (const WritePiece& piece : pieces) {
    // The write's one checksum pass, on the issuing thread: a CRC per
    // storage::kExtentBytes piece for the server's store to verify, folded
    // into the header checksum, which then costs no second pass.  A
    // single-piece payload that carries a cached CRC costs none at all.
    wire::ObjWriteReq req{cap, oid.value, piece.offset, {}};
    util::SharedSlice data = piece.data;
    const std::size_t n = data.size();
    if (storage::PieceCount(piece.offset, n) == 1 && data.has_cached_crc()) {
      req.piece_crcs = {data.cached_crc()};
    } else if (n > 0) {
      LWFS_COUNT_CRC(util::CrcSide::kClient, n);
      req.piece_crcs = storage::PieceCrcs(piece.offset, data.span());
      data.SetCachedCrc(
          storage::CombinePieceCrcs(piece.offset, n, req.piece_crcs));
    }
    // An owned slice is registered by reference; the NIC match entry holds
    // a ref until the call completes, so the bytes survive even if the
    // caller drops the slice.  A borrowed one registers as a raw span, and
    // the fabric stages its bytes once.
    rpc::CallOptions options;
    options.bulk_out_slice = data;
    auto handle = rpc::CallTypedAsync(rpc_, *nid, kOpObjWrite, req, options);
    if (!handle.ok()) return DrainAfter(io, handle.status());
    io.handles_.push_back(std::move(*handle));
    io.written_ += piece.data.size();
  }
  return io;
}

Result<PendingIo> Client::ReadObjectAsync(std::uint32_t server,
                                          const security::Capability& cap,
                                          storage::ObjectId oid,
                                          std::vector<ReadExtent> extents) {
  for (const ReadExtent& extent : extents) {
    if (!extent.out.empty() && extent.out.size() != extent.length) {
      return InvalidArgument("read extent's landing span is not its length");
    }
    // The servers refuse such an extent too; refusing it here keeps it
    // from being split into requests first.
    if (extent.offset > storage::kMaxObjectBytes ||
        extent.length > storage::kMaxObjectBytes - extent.offset) {
      return InvalidArgument("extent ends past the largest object size");
    }
  }
  auto nid = StorageNid(server);
  if (!nid.ok()) return nid.status();
  PendingIo io;
  io.issued_ = true;
  io.is_read_ = true;
  io.extents_ = std::move(extents);
  io.handles_.reserve(io.extents_.size());
  io.parts_.reserve(io.extents_.size());
  for (std::size_t e = 0; e < io.extents_.size(); ++e) {
    const ReadExtent& extent = io.extents_[e];
    // No bulk_in region: the payload rides the reply frame as store-owned
    // slices.  One request per kMaxReadBytes of the extent (at least one).
    std::uint64_t at = 0;
    do {
      const std::uint64_t n =
          std::min(extent.length - at, storage::kMaxReadBytes);
      auto handle = rpc::CallTypedAsync(
          rpc_, *nid, kOpObjRead,
          wire::ObjReadReq{cap, oid.value, extent.offset + at, n});
      if (!handle.ok()) return DrainAfter(io, handle.status());
      io.handles_.push_back(std::move(*handle));
      io.parts_.push_back(PendingIo::Part{e, at});
      at += n;
    } while (at < extent.length);
  }
  return io;
}

Status Client::WriteObject(std::uint32_t server,
                           const security::Capability& cap,
                           storage::ObjectId oid, std::uint64_t offset,
                           ByteSpan data) {
  // Borrowed view is safe here: the span outlives the synchronous Await.
  return Await(WriteObjectAsync(server, cap, oid,
                                {{offset, util::SharedSlice::External(data)}}))
      .status();
}

Result<std::uint64_t> Client::ReadObject(std::uint32_t server,
                                         const security::Capability& cap,
                                         storage::ObjectId oid,
                                         std::uint64_t offset,
                                         MutableByteSpan out) {
  auto done =
      Await(ReadObjectAsync(server, cap, oid, {{offset, out.size(), out}}));
  if (!done.ok()) return done.status();
  return done->bytes;
}

Status Client::RemoveObject(std::uint32_t server,
                            const security::Capability& cap,
                            storage::ObjectId oid, txn::TxnId txid) {
  auto nid = StorageNid(server);
  if (!nid.ok()) return nid.status();
  return rpc::CallTyped<rpc::Void>(rpc_, *nid, kOpObjRemove,
                                   wire::ObjRemoveReq{cap, oid.value, txid})
      .status();
}

Result<storage::ObjAttr> Client::GetAttr(std::uint32_t server,
                                         const security::Capability& cap,
                                         storage::ObjectId oid) {
  auto handle = GetAttrAsync(server, cap, oid);
  if (!handle.ok()) return handle.status();
  return ResolveGetAttr(handle->Await());
}

Result<rpc::CallHandle> Client::GetAttrAsync(std::uint32_t server,
                                             const security::Capability& cap,
                                             storage::ObjectId oid) {
  auto nid = StorageNid(server);
  if (!nid.ok()) return nid.status();
  return rpc::CallTypedAsync(rpc_, *nid, kOpObjGetAttr,
                             wire::ObjGetAttrReq{cap, oid.value});
}

Result<storage::ObjAttr> Client::ResolveGetAttr(Result<Buffer> reply) {
  auto rep = rpc::ResolveTyped<wire::ObjAttrRep>(std::move(reply));
  if (!rep.ok()) return rep.status();
  return rep->attr;
}

Result<std::vector<storage::ObjectId>> Client::ListObjects(
    std::uint32_t server, const security::Capability& cap) {
  auto nid = StorageNid(server);
  if (!nid.ok()) return nid.status();
  auto rep = rpc::CallTyped<wire::ObjListRep>(rpc_, *nid, kOpObjList,
                                              wire::ObjListReq{cap});
  if (!rep.ok()) return rep.status();
  std::vector<storage::ObjectId> out;
  out.reserve(rep->oids.size());
  for (std::uint64_t oid : rep->oids) out.push_back(storage::ObjectId{oid});
  return out;
}

Status Client::TruncateObject(std::uint32_t server,
                              const security::Capability& cap,
                              storage::ObjectId oid, std::uint64_t size) {
  auto nid = StorageNid(server);
  if (!nid.ok()) return nid.status();
  return rpc::CallTyped<rpc::Void>(rpc_, *nid, kOpObjTruncate,
                                   wire::ObjTruncateReq{cap, oid.value, size})
      .status();
}

Result<Client::FilterOutcome> Client::FilterObject(
    std::uint32_t server, const security::Capability& cap,
    storage::ObjectId oid, std::uint64_t offset, std::uint64_t length,
    const FilterSpec& spec, MutableByteSpan result) {
  auto nid = StorageNid(server);
  if (!nid.ok()) return nid.status();
  rpc::CallOptions options;
  options.bulk_in = result;  // the server pushes only the filter output
  auto rep = rpc::CallTyped<wire::ObjFilterRep>(
      rpc_, *nid, kOpObjFilter,
      wire::ObjFilterReq{cap, oid.value, offset, length, spec}, options);
  if (!rep.ok()) return rep.status();
  return FilterOutcome{rep->result_bytes, rep->input_bytes};
}

Result<Buffer> Client::FilterObjectAlloc(std::uint32_t server,
                                         const security::Capability& cap,
                                         storage::ObjectId oid,
                                         std::uint64_t offset,
                                         std::uint64_t length,
                                         const FilterSpec& spec) {
  // Worst case for the built-in filters: never larger than the input, but
  // histograms on tiny inputs can exceed it.
  const std::uint64_t worst =
      std::max<std::uint64_t>(length, 8ull * spec.bins + 64);
  Buffer out(static_cast<std::size_t>(worst), 0);
  auto outcome =
      FilterObject(server, cap, oid, offset, length, spec, MutableByteSpan(out));
  if (!outcome.ok()) return outcome.status();
  out.resize(static_cast<std::size_t>(outcome->result_bytes));
  return out;
}

// ---- Replication (DESIGN.md §15) -------------------------------------------

Result<ReplicaChain> Client::PlaceReplicated(storage::ContainerId cid,
                                             std::uint32_t preferred,
                                             std::uint32_t factor) {
  // Placements partition by preferred head so every shard mints from its
  // own (striped) oid space; the full retry/failover protocol applies.
  const std::uint32_t shard = preferred % naming_shard_count();
  auto rep = NamingCall<wire::ReplicaChainRep>(
      shard, kOpReplicaPlace, wire::ReplicaPlaceReq{cid.value, preferred,
                                                    factor});
  if (!rep.ok()) return rep.status();
  return ReplicaChain{storage::ObjectId{rep->oid},
                      storage::ContainerId{rep->cid},
                      std::move(rep->servers)};
}

Result<rpc::CallHandle> Client::PlaceReplicatedAsync(storage::ContainerId cid,
                                                     std::uint32_t preferred,
                                                     std::uint32_t factor) {
  return rpc::CallTypedAsync(
      rpc_, ShardPrimary(preferred % naming_shard_count()), kOpReplicaPlace,
      wire::ReplicaPlaceReq{cid.value, preferred, factor});
}

Result<ReplicaChain> Client::ResolvePlaceReplicated(Result<Buffer> reply) {
  auto rep = rpc::ResolveTyped<wire::ReplicaChainRep>(std::move(reply));
  if (!rep.ok()) return rep.status();
  return ReplicaChain{storage::ObjectId{rep->oid},
                      storage::ContainerId{rep->cid},
                      std::move(rep->servers)};
}

Result<ReplicaChain> Client::LookupReplicas(storage::ObjectId oid) {
  auto rep = NamingCall<wire::ReplicaChainRep>(
      ShardForOidRoute(oid), kOpReplicaLookup,
      wire::ReplicaLookupReq{oid.value});
  if (!rep.ok()) return rep.status();
  return ReplicaChain{storage::ObjectId{rep->oid},
                      storage::ContainerId{rep->cid},
                      std::move(rep->servers)};
}

Status Client::ReportStaleReplicas(storage::ObjectId oid,
                                   std::uint64_t version,
                                   const std::vector<std::uint32_t>& stale) {
  stale_reports_.Add();
  return NamingCall<rpc::Void>(ShardForOidRoute(oid), kOpReplicaReport,
                               wire::ReplicaReportReq{oid.value, version,
                                                      stale})
      .status();
}

Result<naming::ReplicaAuditCounts> Client::AuditReplicas() {
  // Each shard audits its own oid space; the registry-wide answer is the sum.
  naming::ReplicaAuditCounts counts;
  const std::uint32_t shards = naming_shard_count();
  for (std::uint32_t shard = 0; shard < shards; ++shard) {
    auto rep = NamingCall<wire::ReplicaAuditRep>(shard, kOpReplicaAudit,
                                                 rpc::Void{});
    if (!rep.ok()) return rep.status();
    counts.objects += rep->objects;
    counts.fully_replicated += rep->fully_replicated;
    counts.under_replicated += rep->under_replicated;
    counts.stale_members += rep->stale_members;
  }
  return counts;
}

Status Client::CreateObjectAt(std::uint32_t server,
                              const security::Capability& cap,
                              storage::ObjectId oid, txn::TxnId txid) {
  auto handle = CreateObjectAtAsync(server, cap, oid, txid);
  if (!handle.ok()) return handle.status();
  return rpc::ResolveTyped<rpc::Void>(handle->Await()).status();
}

Result<rpc::CallHandle> Client::CreateObjectAtAsync(
    std::uint32_t server, const security::Capability& cap,
    storage::ObjectId oid, txn::TxnId txid) {
  auto nid = StorageNid(server);
  if (!nid.ok()) return nid.status();
  return rpc::CallTypedAsync(rpc_, *nid, kOpObjCreateAt,
                             wire::ObjCreateAtReq{cap, oid.value, txid});
}

Result<ReplicaChain> Client::CreateReplicatedObject(
    const security::Capability& cap, std::uint32_t preferred,
    std::uint32_t factor, txn::TxnId txid) {
  auto chain = PlaceReplicated(cap.cid, preferred, factor);
  if (!chain.ok()) return chain.status();
  std::vector<std::uint32_t> stale;
  Status first_error = OkStatus();
  std::size_t created = 0;
  for (std::uint32_t member : chain->servers) {
    Status s = CreateObjectAt(member, cap, chain->oid, txid);
    if (s.ok()) {
      ++created;
    } else {
      if (first_error.ok()) first_error = s;
      stale.push_back(member);
    }
  }
  if (created == 0) return first_error;
  // Members unreachable at create time start out stale; the background
  // replicator recreates them from a survivor.
  if (!stale.empty()) (void)ReportStaleReplicas(chain->oid, 0, stale);
  return chain;
}

Result<PendingReplicatedWrite> Client::WriteReplicatedSliceAsync(
    const security::Capability& cap, const ReplicaChain& chain,
    std::uint64_t offset, const util::SharedSlice& data) {
  if (chain.servers.empty()) return InvalidArgument("empty replica chain");
  replicated_writes_.Add();
  ReplicaChain ordered = chain;
  // Prefer a head whose breaker is closed: a tripped head only fails fast
  // and forces a failover reissue.  Rotating (not reordering) preserves the
  // cyclic placement order for the downstream hops.
  for (std::size_t i = 0; i < ordered.servers.size(); ++i) {
    auto nid = StorageNid(ordered.servers[i]);
    if (nid.ok() && !rpc_.BreakerOpen(*nid)) {
      std::rotate(ordered.servers.begin(), ordered.servers.begin() + i,
                  ordered.servers.end());
      break;
    }
  }
  PendingReplicatedWrite pending(this, cap, std::move(ordered), offset, data);
  LWFS_RETURN_IF_ERROR(pending.Issue());
  return pending;
}

Status Client::WriteReplicatedSlice(const security::Capability& cap,
                                    const ReplicaChain& chain,
                                    std::uint64_t offset,
                                    const util::SharedSlice& data) {
  return Await(WriteReplicatedSliceAsync(cap, chain, offset, data)).status();
}

Result<util::SharedSlice> Client::ReadReplicatedSlice(
    const security::Capability& cap, const ReplicaChain& chain,
    std::uint64_t offset, std::uint64_t length) {
  if (chain.servers.empty()) return InvalidArgument("empty replica chain");

  // Plain path: hedging off or nowhere to hedge — sequential failover.
  if (chain.servers.size() == 1 || hedge_after_us_ == 0) {
    Status last = OkStatus();
    for (std::size_t i = 0; i < chain.servers.size(); ++i) {
      auto got = Await(ReadObjectAsync(chain.servers[i], cap, chain.oid,
                                       {{offset, length}}));
      if (got.ok()) return std::move(got->slices.front());
      last = got.status();
      if (!FailoverWorthy(last)) return last;
      read_failovers_.Add();
    }
    return last;
  }

  // Hedged path.  Attempts register no landing buffer at all: each reply
  // arrives as a ref-counted slice in its own call state, so a losing
  // attempt never pins memory proportional to the read size — when its
  // (abandoned) reply lands, the completion callback tallies the payload
  // into hedge_loser_bytes and the slice's refcount drops on the spot.
  struct Attempt {
    PendingIo io;
    bool is_hedge = false;
    bool dead = false;
  };
  util::Clock* clock = rpc_.clock();
  std::vector<Attempt> attempts;
  std::size_t next_member = 0;
  Status last = Unavailable("no replica reachable");

  auto issue = [&](bool is_hedge) -> bool {
    while (next_member < chain.servers.size()) {
      const std::uint32_t member = chain.servers[next_member++];
      auto io = ReadObjectAsync(member, cap, chain.oid, {{offset, length}});
      if (!io.ok()) {
        last = io.status();
        if (!FailoverWorthy(last)) return false;
        // Unreachable at issue time (down node, open breaker): fail over
        // straight to the next member.
        read_failovers_.Add();
        continue;
      }
      Attempt a;
      a.io = std::move(*io);
      a.is_hedge = is_hedge;
      attempts.push_back(std::move(a));
      return true;
    }
    return false;
  };

  // Account a still-inflight loser the moment its reply lands.  The
  // callback captures its own handle, which keeps the call state alive
  // until the one-shot callback is extracted and destroyed at completion
  // — at which point the loser's bulk slice is released too.
  auto abandon = [this](Attempt& a) {
    for (rpc::CallHandle h : a.io.handles()) {
      // `keep` holds the counter's registry: the call may outlive the
      // client.
      h.OnComplete([h, keep = metrics_, tally = hedge_loser_bytes_](
                       const Result<Buffer>&) {
        tally.Add(h.ReplyBulk().size());
      });
    }
  };

  if (!issue(/*is_hedge=*/false)) return last;

  // Fire the hedge immediately if the primary's breaker is already open;
  // otherwise arm it for `hedge_after_us` on the deployment clock.
  bool hedge_fired = false;
  {
    auto primary = StorageNid(chain.servers[0]);
    if (primary.ok() && rpc_.BreakerOpen(*primary)) {
      if (issue(/*is_hedge=*/true)) {
        hedged_reads_.Add();
      }
      hedge_fired = true;
    }
  }
  const util::Clock::TimePoint hedge_at =
      clock->Now() + std::chrono::microseconds(hedge_after_us_);
  constexpr auto kPollStep = std::chrono::microseconds(50);

  for (;;) {
    std::size_t live = 0;
    for (Attempt& a : attempts) {
      if (a.dead) continue;
      Result<IoResult> got = IoResult{};
      if (!a.io.TryAwait(&got)) {
        ++live;
        continue;
      }
      if (got.ok()) {
        for (Attempt& b : attempts) {
          if (&b != &a && !b.dead) abandon(b);
        }
        if (a.is_hedge) hedge_wins_.Add();
        return std::move(got->slices.front());
      }
      a.dead = true;
      last = got.status();
      if (!FailoverWorthy(last)) return last;
      read_failovers_.Add();
      if (issue(a.is_hedge)) ++live;  // replace the dead attempt
    }
    if (live == 0) return last;
    if (!hedge_fired && clock->Now() >= hedge_at) {
      hedge_fired = true;
      if (issue(/*is_hedge=*/true)) {
        hedged_reads_.Add();
      }
    }
    clock->SleepFor(kPollStep);
  }
}

// ---- Naming ----------------------------------------------------------------

Status Client::Mkdir(std::string_view path, bool recursive) {
  // Directories are replicated on every shard so each shard can resolve
  // its own leaves without cross-shard hops; fan the mkdir out.
  const std::uint32_t shards = naming_shard_count();
  for (std::uint32_t shard = 0; shard < shards; ++shard) {
    Status s = NamingCall<rpc::Void>(shard, kOpNameMkdir,
                                     wire::MkdirReq{std::string(path),
                                                    recursive})
                   .status();
    if (!s.ok()) return s;
  }
  return OkStatus();
}

Status Client::LinkName(std::string_view path, const storage::ObjectRef& ref) {
  return NamingCall<rpc::Void>(ShardForPathRoute(path), kOpNameLink,
                               wire::LinkReq{std::string(path), ref})
      .status();
}

Status Client::StageLinkName(txn::TxnId txid, std::string_view path,
                             const storage::ObjectRef& ref) {
  return NamingCall<rpc::Void>(ShardForPathRoute(path), kOpNameStageLink,
                               wire::StageLinkReq{txid, std::string(path),
                                                  ref})
      .status();
}

Status Client::StageUnlinkName(txn::TxnId txid, std::string_view path) {
  return NamingCall<rpc::Void>(ShardForPathRoute(path), kOpNameStageUnlink,
                               wire::StageUnlinkReq{txid, std::string(path)})
      .status();
}

Result<storage::ObjectRef> Client::LookupName(std::string_view path) {
  auto rep = NamingCall<wire::ObjectRefRep>(ShardForPathRoute(path),
                                            kOpNameLookup,
                                            wire::PathReq{std::string(path)});
  if (!rep.ok()) return rep.status();
  return rep->ref;
}

Status Client::UnlinkName(std::string_view path) {
  return NamingCall<rpc::Void>(ShardForPathRoute(path), kOpNameUnlink,
                               wire::PathReq{std::string(path)})
      .status();
}

Status Client::RmdirName(std::string_view path) {
  const std::uint32_t shards = naming_shard_count();
  if (shards > 1) {
    // "Empty" means empty on every shard.  Probe before removing anything
    // so a non-empty shard cannot strand a half-removed directory.
    for (std::uint32_t shard = 0; shard < shards; ++shard) {
      auto rep = NamingCall<wire::ListNamesRep>(
          shard, kOpNameList, wire::PathReq{std::string(path)});
      if (!rep.ok()) return rep.status();
      if (!rep->entries.empty()) {
        return FailedPrecondition("directory not empty");
      }
    }
  }
  for (std::uint32_t shard = 0; shard < shards; ++shard) {
    Status s = NamingCall<rpc::Void>(shard, kOpNameRmdir,
                                     wire::PathReq{std::string(path)})
                   .status();
    if (!s.ok()) return s;
  }
  return OkStatus();
}

Status Client::RenameName(std::string_view from, std::string_view to) {
  const std::uint32_t src = ShardForPathRoute(from);
  const std::uint32_t dst = ShardForPathRoute(to);
  if (src != dst) {
    return FailedPrecondition(
        "cross-shard rename needs a transaction (RenameNameTxn)");
  }
  return NamingCall<rpc::Void>(src, kOpNameRename,
                               wire::RenameReq{std::string(from),
                                               std::string(to)})
      .status();
}

Status Client::RenameNameTxn(std::string_view from, std::string_view to,
                             std::uint32_t journal_server,
                             const security::Capability& journal_cap) {
  const std::uint32_t src = ShardForPathRoute(from);
  const std::uint32_t dst = ShardForPathRoute(to);
  if (src == dst) return RenameName(from, to);  // natively atomic at one shard

  auto ref = LookupName(from);
  if (!ref.ok()) return ref.status();

  TxnParticipants participants;
  participants.naming_shards = {src, dst};
  auto txn = BeginTxn(journal_server, journal_cap, participants);
  if (!txn.ok()) return txn.status();
  Status staged = StageLinkName((*txn)->id(), to, *ref);
  if (staged.ok()) staged = StageUnlinkName((*txn)->id(), from);
  if (!staged.ok()) {
    (void)(*txn)->Abort();
    return staged;
  }
  return (*txn)->Commit();
}

Result<std::vector<naming::DirEntry>> Client::ListNames(
    std::string_view path) {
  const std::uint32_t shards = naming_shard_count();
  std::vector<naming::DirEntry> merged;
  for (std::uint32_t shard = 0; shard < shards; ++shard) {
    auto rep = NamingCall<wire::ListNamesRep>(
        shard, kOpNameList, wire::PathReq{std::string(path)});
    if (!rep.ok()) return rep.status();
    if (shards == 1) return std::move(rep->entries);
    for (naming::DirEntry& entry : rep->entries) {
      // Subdirectories exist on every shard; leaves are partitioned and
      // appear exactly once.
      if (entry.is_directory &&
          std::any_of(merged.begin(), merged.end(),
                      [&](const naming::DirEntry& seen) {
                        return seen.name == entry.name;
                      })) {
        continue;
      }
      merged.push_back(std::move(entry));
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const naming::DirEntry& a, const naming::DirEntry& b) {
              return a.name < b.name;
            });
  return merged;
}

// ---- Locks -------------------------------------------------------------------

Result<txn::LockId> Client::TryLock(const txn::LockKey& key,
                                    const txn::LockRange& range,
                                    txn::LockMode mode) {
  auto handle = TryLockAsync(key, range, mode);
  if (!handle.ok()) return handle.status();
  return ResolveTryLock(handle->Await());
}

Result<rpc::CallHandle> Client::TryLockAsync(const txn::LockKey& key,
                                             const txn::LockRange& range,
                                             txn::LockMode mode) {
  return rpc::CallTypedAsync(
      rpc_, deployment_.locks, kOpLockTry,
      wire::LockTryReq{key.container, key.resource, range.start, range.end,
                       mode == txn::LockMode::kExclusive});
}

Result<txn::LockId> Client::ResolveTryLock(Result<Buffer> reply) {
  auto rep = rpc::ResolveTyped<wire::LockIdRep>(std::move(reply));
  if (!rep.ok()) return rep.status();
  return rep->id;
}

Result<txn::LockId> Client::LockBlocking(const txn::LockKey& key,
                                         const txn::LockRange& range,
                                         txn::LockMode mode,
                                         std::chrono::milliseconds max_wait) {
  // Blocking wrapper over the shared retry schedule; event-driven clients
  // use the same schedule but arm a timer wake instead of sleeping.
  util::Clock* clock = rpc_.clock();
  txn::LockRetrySchedule retry(clock->Now(), max_wait);
  for (;;) {
    auto id = TryLock(key, range, mode);
    if (id.ok() || id.status().code() != ErrorCode::kResourceExhausted) {
      return id;
    }
    const auto next = retry.Next(clock->Now());
    if (!next.has_value()) return Timeout("lock wait timed out");
    clock->SleepUntil(*next);
  }
}

Status Client::Unlock(txn::LockId id) {
  auto handle = UnlockAsync(id);
  if (!handle.ok()) return handle.status();
  return ResolveUnlock(handle->Await());
}

Result<rpc::CallHandle> Client::UnlockAsync(txn::LockId id) {
  return rpc::CallTypedAsync(rpc_, deployment_.locks, kOpLockRelease,
                             wire::LockReleaseReq{id});
}

Status Client::ResolveUnlock(Result<Buffer> reply) {
  return rpc::ResolveTyped<rpc::Void>(std::move(reply)).status();
}

// ---- Transactions --------------------------------------------------------------

Result<std::unique_ptr<Transaction>> Client::BeginTxn(
    std::uint32_t journal_server, const security::Capability& journal_cap,
    const TxnParticipants& participants) {
  auto txn = std::make_unique<Transaction>();
  txn->journal_store_ =
      std::make_unique<RemoteObjectStore>(this, journal_server, journal_cap);
  auto journal =
      txn::Journal::Create(txn->journal_store_.get(), journal_cap.cid);
  if (!journal.ok()) return journal.status();
  txn->journal_ = std::make_unique<txn::Journal>(*journal);

  std::vector<txn::Participant*> raw;
  for (std::uint32_t server : participants.storage_servers) {
    auto nid = StorageNid(server);
    if (!nid.ok()) return nid.status();
    txn->stubs_.push_back(std::make_unique<RemoteParticipant>(
        &rpc_, *nid, "storage:" + std::to_string(server)));
    raw.push_back(txn->stubs_.back().get());
  }
  std::vector<std::uint32_t> naming_shards = participants.naming_shards;
  if (participants.naming &&
      std::find(naming_shards.begin(), naming_shards.end(), 0u) ==
          naming_shards.end()) {
    naming_shards.push_back(0);  // legacy flag = shard 0
  }
  const std::uint32_t shard_count = naming_shard_count();
  for (std::uint32_t shard : naming_shards) {
    if (shard >= shard_count) {
      return InvalidArgument("no such naming shard");
    }
    // Participant identity must match the shard service's 2PC name so
    // crash recovery can map journal records back to the right shard.
    const std::string name =
        shard_count <= 1 ? "naming" : "naming" + std::to_string(shard);
    txn->stubs_.push_back(std::make_unique<RemoteParticipant>(
        &rpc_, ShardPrimary(shard), name));
    raw.push_back(txn->stubs_.back().get());
  }

  txn->coordinator_ = std::make_unique<txn::Coordinator>(txn->journal_.get());
  auto txid = txn->coordinator_->Begin(std::move(raw));
  if (!txid.ok()) return txid.status();
  txn->id_ = *txid;
  return txn;
}

}  // namespace lwfs::core

// lwfs::core::Client — the public LWFS-core client API.
//
// Mirrors the programming model of Figure 8: authenticate once, create a
// container, acquire capabilities, then talk *directly* to storage servers
// (exposing their parallelism — design guideline 3 of §3), with optional
// naming, locking, and distributed transactions layered on top.
//
// Everything is addressed explicitly: object operations name the storage
// server they go to, because data distribution is application policy, not
// core policy (§3.1.1).
#pragma once

#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/filters.h"
#include "core/protocol.h"
#include "naming/naming.h"
#include "naming/replica_map.h"
#include "rpc/rpc.h"
#include "security/types.h"
#include "storage/ids.h"
#include "storage/object_store.h"
#include "txn/journal.h"
#include "txn/lock_retry.h"
#include "txn/lock_table.h"
#include "txn/two_phase.h"
#include "util/shared_buffer.h"
#include "util/status.h"

namespace lwfs::core {

/// Where the services live.  Built by ServiceRuntime (in-process testbed) or
/// by hand for a custom deployment.
struct Deployment {
  portals::Nid authn = portals::kInvalidNid;
  portals::Nid authz = portals::kInvalidNid;
  portals::Nid naming = portals::kInvalidNid;
  portals::Nid locks = portals::kInvalidNid;
  std::vector<portals::Nid> storage;
  /// Sharded metadata plane: primary nid per naming shard (empty = the
  /// single `naming` server above owns the whole namespace).  `naming`
  /// stays equal to shard 0's primary for backward compatibility.
  std::vector<portals::Nid> naming_shards;
  /// Warm standby per shard (kInvalidNid = no standby for that shard).
  std::vector<portals::Nid> naming_standbys;
};

class Client;

/// Errors worth retrying on another replica-chain member: the member is
/// gone, unreachable, lost the object, or corrupted the transfer.
/// Authorization and argument errors would fail identically on every
/// member, so failing over on them only hides bugs.
bool FailoverWorthy(const Status& status);

/// One piece of a list write: `data` lands at `offset`.  An owned slice
/// is registered by reference for the server's pull; a borrowed (External)
/// one registers as a span the fabric stages once, and must stay valid
/// until the write resolves.
struct WritePiece {
  std::uint64_t offset = 0;
  util::SharedSlice data;
};

/// One extent of a list read: `length` bytes at `offset`.  With `out`
/// empty the extent resolves to a slice (IoResult::slices); otherwise
/// `out.size()` must equal `length` and the bytes land there — one counted
/// staging copy — so `out` must stay valid until the read resolves.
struct ReadExtent {
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  MutableByteSpan out{};
};

/// What a list I/O resolved to.
struct IoResult {
  /// Bytes moved over every piece: a write's payload, or the bytes read
  /// (each extent short at EOF).
  std::uint64_t bytes = 0;
  /// Reads: one slice per extent, in list order — the bytes read for an
  /// extent without a landing span, empty for one with.
  std::vector<util::SharedSlice> slices;
};

/// The synchronous form of every async call in the client stacks
/// (PendingIo, pfs::StripedIo, PendingReplicatedWrite, PendingCreate):
/// wait for what `issued` started, or pass its issue error through.
template <typename Handle>
auto Await(Result<Handle> issued) -> decltype(issued->Await()) {
  if (!issued.ok()) return issued.status();
  return issued->Await();
}

/// Completion handle for an object list read or write (Client::
/// WriteObjectAsync / ReadObjectAsync): one RPC per piece, all issued at
/// once (a read extent longer than storage::kMaxReadBytes goes out as
/// several).  Await() waits for every one of them, then reports the first
/// error or the IoResult.
class PendingIo {
 public:
  PendingIo() = default;

  [[nodiscard]] bool valid() const { return issued_; }

  Result<IoResult> Await();
  /// Non-blocking variant; true once every call has completed.
  bool TryAwait(Result<IoResult>* out);

  /// The calls in flight — logical clients arm a completion wake on each
  /// (driver::Context::WakeOnComplete) instead of blocking in Await.
  [[nodiscard]] std::vector<rpc::CallHandle>& handles() { return handles_; }

 private:
  friend class Client;
  /// Which extent (and where in it) a read call's bytes belong to.
  struct Part {
    std::size_t extent = 0;
    std::uint64_t at = 0;
  };
  Result<IoResult> Resolve();

  std::vector<rpc::CallHandle> handles_;
  std::vector<Part> parts_;          // reads: parallel to handles_
  std::vector<ReadExtent> extents_;  // reads only
  bool is_read_ = false;
  bool issued_ = false;
  std::uint64_t written_ = 0;        // writes: payload size
};

/// Completion handle for an asynchronous object create.
class PendingCreate {
 public:
  PendingCreate() = default;
  [[nodiscard]] bool valid() const { return handle_.valid(); }
  Result<storage::ObjectId> Await();
  /// Non-blocking variant; true once the call has completed.
  bool TryAwait(Result<storage::ObjectId>* out);
  [[nodiscard]] rpc::CallHandle& handle() { return handle_; }

 private:
  friend class Client;
  explicit PendingCreate(rpc::CallHandle handle) : handle_(std::move(handle)) {}
  rpc::CallHandle handle_;
};

/// A replicated object's placement as handed out by the naming server's
/// replica registry: deployment storage indices, chain head first.
struct ReplicaChain {
  storage::ObjectId oid = storage::kInvalidObject;
  storage::ContainerId cid = storage::kInvalidContainer;
  std::vector<std::uint32_t> servers;
};

/// Completion handle for a chain-replicated write.  One RPC carries the whole
/// slice to the chain head, which forwards it hop by hop; the commit ack comes
/// back from the head once the tail has applied.  If the head itself is
/// unreachable, TryAwait/Await transparently reissue the write to the next
/// chain member (head failover) — `generation()` bumps on every reissue so
/// event-driven callers know to re-arm completion wakes on the new handle().
class PendingReplicatedWrite {
 public:
  PendingReplicatedWrite() = default;

  [[nodiscard]] bool valid() const { return handle_.valid(); }

  /// Bytes written on success.  A commit that missed downstream members is
  /// still a success (degraded write): the miss is reported to the replica
  /// registry for background repair, not surfaced as an error.
  Result<std::uint64_t> Await();
  /// Non-blocking variant; true once resolved.  May synchronously reissue
  /// the write to the next chain member on head failure (and return false).
  bool TryAwait(Result<std::uint64_t>* out);

  [[nodiscard]] rpc::CallHandle& handle() { return handle_; }
  /// Bumped every time head failover reissues the hop; callers that armed a
  /// wake on handle() re-arm when this changes.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }
  /// Committed object version (valid after a successful Await).
  [[nodiscard]] std::uint64_t version() const { return version_; }
  /// Chain members that acked the write (valid after a successful Await).
  [[nodiscard]] const std::vector<std::uint32_t>& applied() const {
    return applied_;
  }

 private:
  friend class Client;
  PendingReplicatedWrite(Client* client, security::Capability cap,
                         ReplicaChain chain, std::uint64_t offset,
                         util::SharedSlice data);
  Status Issue();
  /// Shared completion step: true when resolved, false when a failover
  /// reissue is now in flight.
  bool Advance(Result<Buffer> reply, Result<std::uint64_t>* out);
  Result<std::uint64_t> Finish(Result<Buffer> reply);

  Client* client_ = nullptr;
  security::Capability cap_;
  ReplicaChain chain_;                   // full placement, for stale accounting
  std::vector<std::uint32_t> members_;   // remaining candidates, current head first
  std::uint64_t offset_ = 0;
  util::SharedSlice data_;
  rpc::CallHandle handle_;
  std::uint64_t generation_ = 0;
  bool done_ = false;
  Result<std::uint64_t> final_ = 0;
  std::uint64_t version_ = 0;
  std::vector<std::uint32_t> applied_;
};

/// Issues object list I/O through a bounded in-flight window and gathers
/// the statuses — the client-side "outstanding requests" knob of Figure
/// 6's flow-control argument.  Write()/Read() return immediately while the
/// window has room and otherwise retire the oldest operation first.  The
/// first error seen anywhere in the batch is sticky: subsequent issues
/// return it without sending, so issue loops bail out naturally, and
/// Drain() reports it after retiring everything in flight.
///
/// Borrowed write slices, read landing spans and any `out` pointer must
/// stay valid until the operation retires.  Not thread-safe: use one Batch
/// per issuing thread.
class Batch {
 public:
  static constexpr std::size_t kDefaultWindow = 8;

  explicit Batch(Client* client, std::size_t window = kDefaultWindow)
      : client_(client), window_(window == 0 ? 1 : window) {}
  ~Batch() { (void)Drain(); }

  Batch(const Batch&) = delete;
  Batch& operator=(const Batch&) = delete;

  Status Write(std::uint32_t server, const security::Capability& cap,
               storage::ObjectId oid, std::vector<WritePiece> pieces);
  /// `*out` receives the read's IoResult when the op retires.
  Status Read(std::uint32_t server, const security::Capability& cap,
              storage::ObjectId oid, std::vector<ReadExtent> extents,
              IoResult* out = nullptr);

  /// Retire everything in flight; returns the first error seen across the
  /// whole batch.
  Status Drain();

  [[nodiscard]] std::size_t inflight() const { return inflight_.size(); }
  [[nodiscard]] std::size_t window() const { return window_; }
  [[nodiscard]] const Status& first_error() const { return first_error_; }

 private:
  Status RetireOldest();
  /// Retire down to the window before an issue; the sticky error, if any.
  Status MakeRoom();
  /// Keep an issued op in the window, or make its issue error sticky.
  Status Keep(Result<PendingIo> issued, IoResult* out);

  struct Op {
    PendingIo io;
    IoResult* out = nullptr;
  };
  Client* client_;
  std::size_t window_;
  std::deque<Op> inflight_;
  Status first_error_ = OkStatus();
};

/// txn::Participant stub that forwards prepare/commit/abort over RPC.
class RemoteParticipant final : public txn::Participant {
 public:
  RemoteParticipant(rpc::RpcClient* rpc, portals::Nid nid, std::string name)
      : rpc_(rpc), nid_(nid), name_(std::move(name)) {}

  Result<bool> Prepare(txn::TxnId txid) override;
  Status Commit(txn::TxnId txid) override;
  Status Abort(txn::TxnId txid) override;
  [[nodiscard]] std::string name() const override { return name_; }

 private:
  rpc::RpcClient* rpc_;
  portals::Nid nid_;
  std::string name_;
};

/// storage::ObjectStore adapter over one remote storage server + capability.
/// Lets client-side components built against ObjectStore (notably
/// txn::Journal) operate on remote objects unchanged.
class RemoteObjectStore final : public storage::ObjectStore {
 public:
  RemoteObjectStore(Client* client, std::uint32_t server_index,
                    security::Capability cap)
      : client_(client), server_(server_index), cap_(std::move(cap)) {}

  Result<storage::ObjectId> Create(storage::ContainerId cid) override;
  Status CreateWithId(storage::ContainerId, storage::ObjectId oid) override;
  Status Remove(storage::ObjectId oid) override;
  Status Write(storage::ObjectId oid, std::uint64_t offset,
               ByteSpan data) override;
  Result<Buffer> Read(storage::ObjectId oid, std::uint64_t offset,
                      std::uint64_t length) override;
  Result<util::SharedSlice> ReadSlice(storage::ObjectId oid,
                                      std::uint64_t offset,
                                      std::uint64_t length) override;
  Status Truncate(storage::ObjectId oid, std::uint64_t size) override;
  Result<storage::ObjAttr> GetAttr(storage::ObjectId oid) override;
  Result<std::vector<storage::ObjectId>> List(storage::ContainerId) override;
  Status SetVersion(storage::ObjectId, std::uint64_t) override {
    // Version catch-up is a repair-plane op (control portal), not part of
    // the capability-gated client protocol.
    return FailedPrecondition("SetVersion is not part of the wire protocol");
  }
  std::uint64_t ObjectCount() override { return 0; }  // not tracked remotely

 private:
  Client* client_;
  std::uint32_t server_;
  security::Capability cap_;
};

/// A distributed transaction in flight.  Created by Client::BeginTxn; the
/// journal lives as an object on a storage server (§3.4 durability).
class Transaction {
 public:
  [[nodiscard]] txn::TxnId id() const { return id_; }
  Status Commit() { return coordinator_->Commit(id_); }
  Status Abort() { return coordinator_->Abort(id_); }
  [[nodiscard]] txn::Journal* journal() { return journal_.get(); }
  [[nodiscard]] txn::Coordinator* coordinator() { return coordinator_.get(); }

 private:
  friend class Client;
  txn::TxnId id_ = 0;
  std::unique_ptr<RemoteObjectStore> journal_store_;
  std::unique_ptr<txn::Journal> journal_;
  std::vector<std::unique_ptr<RemoteParticipant>> stubs_;
  std::unique_ptr<txn::Coordinator> coordinator_;
};

/// Which services participate in a transaction.
struct TxnParticipants {
  std::vector<std::uint32_t> storage_servers;
  bool naming = false;  // legacy: enlist naming shard 0
  /// Naming shard indices to enlist (cross-shard rename enlists the source
  /// and destination shards).  Ignores duplicates with `naming`.
  std::vector<std::uint32_t> naming_shards;
};

class Client : public metrics::Instrumented {
 public:
  Client(std::shared_ptr<portals::Nic> nic, Deployment deployment,
         rpc::ClientOptions rpc_options = {});

  // ---- Authentication ----------------------------------------------------
  Result<security::Credential> Login(const std::string& principal,
                                     const std::string& secret);
  Status RevokeCred(std::uint64_t cred_id);

  // ---- Raw async stubs (event-driven state machines) ---------------------
  // Issue the call and return the handle; when it completes, decode the
  // reply with the matching Resolve*.  Blocking counterparts are thin
  // issue+Await+Resolve wrappers over these.
  Result<rpc::CallHandle> LoginAsync(const std::string& principal,
                                     const std::string& secret);
  static Result<security::Credential> ResolveLogin(Result<Buffer> reply);
  Result<rpc::CallHandle> GetCapAsync(const security::Credential& cred,
                                      storage::ContainerId cid,
                                      std::uint32_t ops);
  static Result<security::Capability> ResolveGetCap(Result<Buffer> reply);
  Result<rpc::CallHandle> GetAttrAsync(std::uint32_t server,
                                       const security::Capability& cap,
                                       storage::ObjectId oid);
  static Result<storage::ObjAttr> ResolveGetAttr(Result<Buffer> reply);
  Result<rpc::CallHandle> TryLockAsync(const txn::LockKey& key,
                                       const txn::LockRange& range,
                                       txn::LockMode mode);
  static Result<txn::LockId> ResolveTryLock(Result<Buffer> reply);
  Result<rpc::CallHandle> UnlockAsync(txn::LockId id);
  static Status ResolveUnlock(Result<Buffer> reply);

  // ---- Authorization -----------------------------------------------------
  Result<storage::ContainerId> CreateContainer(
      const security::Credential& cred);
  Result<security::Capability> GetCap(const security::Credential& cred,
                                      storage::ContainerId cid,
                                      std::uint32_t ops);
  Result<security::Capability> RefreshCap(const security::Credential& cred,
                                          const security::Capability& cap);
  Status SetGrant(const security::Credential& cred, storage::ContainerId cid,
                  security::Uid grantee, std::uint32_t ops);
  Status RevokeCap(const security::Credential& cred, std::uint64_t cap_id);

  // ---- Object storage (direct to storage servers) -------------------------
  // One async list call per direction; core::Await is the synchronous
  // form.  There is one server data path per direction: a borrowed-slice
  // write is the same pull as an owned one, and a read extent with a
  // landing span is a slice read plus one copy into it.
  Result<storage::ObjectId> CreateObject(std::uint32_t server,
                                         const security::Capability& cap,
                                         txn::TxnId txid = 0);
  Result<PendingCreate> CreateObjectAsync(std::uint32_t server,
                                          const security::Capability& cap,
                                          txn::TxnId txid = 0);
  /// List write: one kOpObjWrite per piece, all in flight at once.  An
  /// owned piece is never staged on either side (the store-medium copy at
  /// the server is the only copy) and stays alive until the call retires
  /// even if the caller drops its reference.
  Result<PendingIo> WriteObjectAsync(std::uint32_t server,
                                     const security::Capability& cap,
                                     storage::ObjectId oid,
                                     std::vector<WritePiece> pieces);
  /// List read: one kOpObjRead per extent (per storage::kMaxReadBytes of
  /// it), all in flight at once.  The reply frame carries each extent's
  /// bytes as store-owned slices, so a slice extent's bytes land exactly
  /// once (the store's medium copy) — no registered region, no push.
  Result<PendingIo> ReadObjectAsync(std::uint32_t server,
                                    const security::Capability& cap,
                                    storage::ObjectId oid,
                                    std::vector<ReadExtent> extents);
  /// Span adapters: one piece, awaited.
  Status WriteObject(std::uint32_t server, const security::Capability& cap,
                     storage::ObjectId oid, std::uint64_t offset,
                     ByteSpan data);
  /// Returns bytes actually read (short at EOF).
  Result<std::uint64_t> ReadObject(std::uint32_t server,
                                   const security::Capability& cap,
                                   storage::ObjectId oid, std::uint64_t offset,
                                   MutableByteSpan out);
  Status RemoveObject(std::uint32_t server, const security::Capability& cap,
                      storage::ObjectId oid, txn::TxnId txid = 0);
  Result<storage::ObjAttr> GetAttr(std::uint32_t server,
                                   const security::Capability& cap,
                                   storage::ObjectId oid);
  Result<std::vector<storage::ObjectId>> ListObjects(
      std::uint32_t server, const security::Capability& cap);
  Status TruncateObject(std::uint32_t server, const security::Capability& cap,
                        storage::ObjectId oid, std::uint64_t size);

  /// Active-storage filter (§6 "remote filtering"): run `spec` server-side
  /// over object bytes [offset, offset+length) (a float64 array) and
  /// receive only the result.  Returns {result bytes, input bytes reduced}.
  struct FilterOutcome {
    std::uint64_t result_bytes = 0;
    std::uint64_t input_bytes = 0;
  };
  Result<FilterOutcome> FilterObject(std::uint32_t server,
                                     const security::Capability& cap,
                                     storage::ObjectId oid,
                                     std::uint64_t offset, std::uint64_t length,
                                     const FilterSpec& spec,
                                     MutableByteSpan result);
  /// Convenience: allocates a result buffer sized for the worst case.
  Result<Buffer> FilterObjectAlloc(std::uint32_t server,
                                   const security::Capability& cap,
                                   storage::ObjectId oid, std::uint64_t offset,
                                   std::uint64_t length,
                                   const FilterSpec& spec);

  // ---- Replication (DESIGN.md §15) -----------------------------------------
  /// Ask the naming server's replica registry for an N-way placement.  The
  /// returned chain is rack-aware and deterministic for a given registry
  /// state, and the minted object id has the replicated bit (bit 62) set.
  Result<ReplicaChain> PlaceReplicated(storage::ContainerId cid,
                                       std::uint32_t preferred,
                                       std::uint32_t factor);
  Result<rpc::CallHandle> PlaceReplicatedAsync(storage::ContainerId cid,
                                               std::uint32_t preferred,
                                               std::uint32_t factor);
  static Result<ReplicaChain> ResolvePlaceReplicated(Result<Buffer> reply);
  Result<ReplicaChain> LookupReplicas(storage::ObjectId oid);
  /// Tell the registry that `stale` members missed the commit at `version`
  /// (degraded write); the background replicator repairs them later.
  Status ReportStaleReplicas(storage::ObjectId oid, std::uint64_t version,
                             const std::vector<std::uint32_t>& stale);
  /// Registry-wide replica-count audit (the acceptance check for repair).
  Result<naming::ReplicaAuditCounts> AuditReplicas();

  /// Create an object under a caller-chosen (replicated) id on one member.
  /// Idempotent: re-creating the same id in the same container succeeds.
  Status CreateObjectAt(std::uint32_t server, const security::Capability& cap,
                        storage::ObjectId oid, txn::TxnId txid = 0);
  Result<rpc::CallHandle> CreateObjectAtAsync(std::uint32_t server,
                                              const security::Capability& cap,
                                              storage::ObjectId oid,
                                              txn::TxnId txid = 0);
  /// Place + fan out CreateObjectAt to every chain member.  Members that are
  /// unreachable at create time are reported stale rather than failing the
  /// create, as long as at least one member accepts the object.
  Result<ReplicaChain> CreateReplicatedObject(const security::Capability& cap,
                                              std::uint32_t preferred,
                                              std::uint32_t factor,
                                              txn::TxnId txid = 0);

  /// Chain-replicated zero-copy write: one slice-carrying RPC to the chain
  /// head, which forwards the same slice downstream (client -> head -> tail)
  /// and acks after the tail commits.  See PendingReplicatedWrite for the
  /// failover and degraded-write semantics.
  Result<PendingReplicatedWrite> WriteReplicatedSliceAsync(
      const security::Capability& cap, const ReplicaChain& chain,
      std::uint64_t offset, const util::SharedSlice& data);
  Status WriteReplicatedSlice(const security::Capability& cap,
                              const ReplicaChain& chain, std::uint64_t offset,
                              const util::SharedSlice& data);

  /// Read-from-any with hedging: issues to the chain head, then fires a
  /// second request to the next member if the head's circuit breaker is open
  /// (immediately) or its latency exceeds hedge_after_us (on the clock).
  /// First successful reply wins; transport failures fail over through the
  /// rest of the chain.  With hedging off (hedge_after_us == 0) this is a
  /// plain read with sequential failover.
  /// Attempts carry no landing buffer: each reply arrives as a ref-counted
  /// slice in its own call state, so a losing hedge releases its payload
  /// with a refcount drop (tallied in hedge_loser_bytes) instead of
  /// holding a full-size pinned buffer until the abandoned call completes.
  Result<util::SharedSlice> ReadReplicatedSlice(const security::Capability& cap,
                                                const ReplicaChain& chain,
                                                std::uint64_t offset,
                                                std::uint64_t length);

  /// Hedged-read latency knob, microseconds; 0 disables hedging.
  void SetHedgeAfterUs(std::uint64_t us) { hedge_after_us_ = us; }
  [[nodiscard]] std::uint64_t hedge_after_us() const { return hedge_after_us_; }

  // ---- Naming --------------------------------------------------------------
  // All naming ops route by shard when the deployment is sharded: leaf ops
  // go to ShardForPath(path)'s primary, directory ops fan out to every
  // shard (directories are replicated everywhere so any shard can resolve
  // its own leaves).  A kWrongShard rejection refreshes the client's
  // epoch-stamped map copy and retries; a transport failure retries the
  // shard's warm standby, whose first admitted op triggers takeover.
  Status Mkdir(std::string_view path, bool recursive = false);
  Status LinkName(std::string_view path, const storage::ObjectRef& ref);
  Status StageLinkName(txn::TxnId txid, std::string_view path,
                       const storage::ObjectRef& ref);
  /// Stage an unlink inside a transaction — the source half of an atomic
  /// cross-shard rename (RenameNameTxn stages link + unlink under 2PC).
  Status StageUnlinkName(txn::TxnId txid, std::string_view path);
  Result<storage::ObjectRef> LookupName(std::string_view path);
  Status UnlinkName(std::string_view path);
  Status RmdirName(std::string_view path);
  /// Same-shard rename (atomic at one server).  Cross-shard leaf renames
  /// return kFailedPrecondition — use RenameNameTxn.
  Status RenameName(std::string_view from, std::string_view to);
  /// Atomic rename across shards: LookupName(from), then one distributed
  /// transaction staging the link on the destination shard and the unlink
  /// on the source shard.  Same-shard renames fall through to RenameName.
  Status RenameNameTxn(std::string_view from, std::string_view to,
                       std::uint32_t journal_server,
                       const security::Capability& journal_cap);
  Result<std::vector<naming::DirEntry>> ListNames(std::string_view path);

  /// Re-fetch the epoch-stamped shard map from any live naming server.
  /// Called automatically on kWrongShard; public for event-driven callers
  /// (the checkpoint pipeline) that resolve naming replies themselves.
  Status RefreshShardRoute();
  [[nodiscard]] std::uint32_t naming_shard_count() const;
  [[nodiscard]] std::uint64_t shard_route_epoch() const;

  // ---- Locks ----------------------------------------------------------------
  Result<txn::LockId> TryLock(const txn::LockKey& key,
                              const txn::LockRange& range, txn::LockMode mode);
  /// Poll TryLock with backoff until granted or `max_wait` elapses.
  Result<txn::LockId> LockBlocking(const txn::LockKey& key,
                                   const txn::LockRange& range,
                                   txn::LockMode mode,
                                   std::chrono::milliseconds max_wait =
                                       std::chrono::milliseconds(10000));
  Status Unlock(txn::LockId id);

  // ---- Transactions ---------------------------------------------------------
  /// Begin a distributed transaction whose journal is an object created in
  /// `journal_cap`'s container on `journal_server`.
  Result<std::unique_ptr<Transaction>> BeginTxn(
      std::uint32_t journal_server, const security::Capability& journal_cap,
      const TxnParticipants& participants);

  // ---- Introspection ---------------------------------------------------------
  [[nodiscard]] portals::Nid nid() const { return rpc_.nid(); }
  [[nodiscard]] const Deployment& deployment() const { return deployment_; }
  /// This endpoint's RPC engine, for libraries layered over the core that
  /// speak their own protocol from the same NIC (the pfs MDS calls).
  [[nodiscard]] rpc::RpcClient& rpc() { return rpc_; }
  /// True while `server_nid`'s circuit breaker holds calls back.
  [[nodiscard]] bool BreakerOpen(portals::Nid server_nid) {
    return rpc_.BreakerOpen(server_nid);
  }
  [[nodiscard]] std::size_t storage_server_count() const {
    return deployment_.storage.size();
  }

 private:
  friend class PendingReplicatedWrite;

  Result<portals::Nid> StorageNid(std::uint32_t server) const;

  /// Client copy of the shard map (primary + standby nid per shard),
  /// initialized from the deployment and refreshed via kOpNameShardMap.
  struct ShardRoute {
    std::uint64_t epoch = 0;
    std::vector<portals::Nid> primaries;
    std::vector<portals::Nid> standbys;
  };
  [[nodiscard]] std::uint32_t ShardForPathRoute(std::string_view path) const;
  [[nodiscard]] std::uint32_t ShardForOidRoute(storage::ObjectId oid) const;
  [[nodiscard]] portals::Nid ShardPrimary(std::uint32_t shard) const;
  [[nodiscard]] portals::Nid ShardStandby(std::uint32_t shard) const;
  /// One naming-plane call with the full routing protocol: kWrongShard →
  /// refresh map + retry (bounded); transport failure → retry the shard's
  /// standby (first admitted op triggers its takeover).
  template <typename Rep, typename Req>
  Result<Rep> NamingCall(std::uint32_t shard, rpc::Opcode op, const Req& req);

  std::shared_ptr<portals::Nic> nic_;
  Deployment deployment_;
  rpc::RpcClient rpc_;

  mutable std::mutex route_mutex_;
  ShardRoute route_;  // guarded by route_mutex_
  std::uint64_t hedge_after_us_ = 0;  // 0 = hedging off

  metrics::Counter wrong_shard_retries_ =
      metrics_->counter("wrong_shard_retries");
  metrics::Counter naming_failovers_ = metrics_->counter("naming_failovers");
  metrics::Counter replicated_writes_ =
      metrics_->counter("replication.replicated_writes");
  metrics::Counter write_failovers_ =
      metrics_->counter("replication.write_failovers");
  metrics::Counter degraded_writes_ =
      metrics_->counter("replication.degraded_writes");
  metrics::Counter stale_reports_ =
      metrics_->counter("replication.stale_reports");
  metrics::Counter hedged_reads_ =
      metrics_->counter("replication.hedged_reads");
  metrics::Counter hedge_wins_ = metrics_->counter("replication.hedge_wins");
  metrics::Counter read_failovers_ =
      metrics_->counter("replication.read_failovers");
  metrics::Counter hedge_loser_bytes_ =
      metrics_->counter("replication.hedge_loser_bytes");
};

}  // namespace lwfs::core

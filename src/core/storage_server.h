// LWFS storage server.
//
// Binds an ObjectStore (the OBD) to the network and enforces — but never
// decides — access policy (Figure 7): every data operation carries a
// capability, checked against the local verified-capability cache and, on a
// miss, against the authorization service (Figure 4-b).  Bulk data moves
// under server control (Figure 6): writes pull from the client, reads
// return store-owned slices in the reply frame, and every medium access
// runs through the server's one IoScheduler.
//
// The server is also a two-phase-commit participant: object creations
// inside a transaction are applied eagerly (fresh objects are invisible
// until named) with a compensating remove staged for abort.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "core/filters.h"
#include "core/io_scheduler.h"
#include "core/protocol.h"
#include "core/wire.h"
#include "rpc/rpc.h"
#include "rpc/service.h"
#include "security/authn.h"
#include "security/cap_cache.h"
#include "security/types.h"
#include "storage/object_store.h"
#include "txn/two_phase.h"

namespace lwfs::core {

/// How the storage server establishes that a capability is genuine.
enum class VerifyMode {
  /// The LWFS scheme (§3.1.2): ask the authorization service once, cache
  /// the verdict; the authz service records a back pointer and can revoke.
  kAuthzWithCache,
  /// LWFS scheme with the cache disabled: every request verifies remotely
  /// (the E6 ablation baseline).
  kAuthzEveryRequest,
  /// The NASD/T10 scheme the paper argues *against*: the storage server
  /// holds the authorization service's signing key and verifies locally.
  /// Fast and offline — but the authz service must now trust the storage
  /// server not to mint capabilities, and revocation by cache
  /// invalidation is impossible (tests demonstrate both consequences).
  kSharedKey,
};

struct StorageServerOptions {
  rpc::ServerOptions rpc;
  /// Options for the server's own outbound RPC client (capability verify
  /// calls to the authorization service): timeouts, retransmit budget,
  /// circuit breaker.
  rpc::ClientOptions client_options;
  /// Data-plane RPC workers.  >0 overrides rpc.worker_threads for the data
  /// portal.  0 (the default) derives the count: an rpc.worker_threads a
  /// caller raised above the rpc default of 1 is respected; otherwise the
  /// data portal gets 4 workers — with one worker the server cannot overlap
  /// the network pull of request N+1 with medium service of request N, and
  /// the scheduler never sees more than one queued extent, so the derived
  /// default is >1.
  int worker_threads = 0;
  /// Server pulls write payloads in chunks of this size, which bounds a
  /// write's buffer footprint no matter how large the client's I/O is (the
  /// essence of server-directed flow control).  A read is one extent,
  /// materialized under a staging reservation clamped to the pool.
  std::size_t bulk_chunk_bytes = 1 << 20;
  VerifyMode verify_mode = VerifyMode::kAuthzWithCache;
  /// kSharedKey only: the authorization service's signing key.
  security::SipKey shared_key;
  /// Modeled storage-medium bandwidth in MB/s; 0 disables the model and
  /// the data path runs at memcpy speed.  The discrete-event simulator
  /// charges every byte a storage service time (the ~95 MB/s OSTs of §4);
  /// this applies the same charge to the live server — serialized per
  /// server, like a single disk arm — so overlap experiments (the fig9
  /// window sweep) measure pipelining against a realistic service
  /// component rather than the host's memory bus.
  double modeled_disk_mb_s = 0;
  /// Modeled per-access (seek/op) cost in microseconds, charged once per
  /// scheduler run: per *merged run* when the scheduler is on — the
  /// physical payoff of coalescing — and per extent when it is off (a
  /// write chunk of at most bulk_chunk_bytes, or one read request).  0
  /// disables it.
  double modeled_op_latency_us = 0;
  /// Modeled cost of an object create in microseconds, charged through a
  /// serialized per-server create arm.  Without it creates are
  /// free on virtual time and a Fig 10-style create-throughput measurement
  /// is meaningless.  EXPERIMENTS.md calibrates the paper's storage server
  /// at ~0.25 ms (≈4k creates/s per server).  0 disables it.
  double modeled_create_latency_us = 0;
  /// Merge queued READ/WRITE extents into runs and service them in
  /// elevator order.  Off services each extent as its own run in arrival
  /// order — the per-request FIFO baseline of the server_sched bench.
  /// Either way the one IoScheduler is the only data-path executor.
  bool scheduler = true;
  /// Bound on total staging memory for in-flight bulk chunks; workers
  /// block for pool space before pulling from clients, so a burst of
  /// concurrent writes cannot overrun the I/O node (§3.2 flow control).
  /// Clamped up to 2 * bulk_chunk_bytes so a request can pipeline two
  /// chunks when the pool is otherwise idle.  Any number of concurrent
  /// requests make progress at any capacity: no worker ever waits for pool
  /// space while it holds a reservation (see io_scheduler.h).
  std::size_t staging_bytes = 16 << 20;
  /// Time source for the medium model, schedulers, and both RPC planes
  /// (nullptr = real time).  Also fans into rpc/client_options when those
  /// carry no clock of their own.
  util::Clock* clock = nullptr;
  /// Replica-portal workers for chain-forwarded write hops (the hops a
  /// chain head or middle sends downstream).  Forwarding hops block their
  /// worker for a full downstream round trip, so middles need headroom.
  int replica_worker_threads = 4;
  /// Restart re-registration hook: called from Restart() — before any
  /// cache is cleared and before the server takes traffic again — with
  /// (oid, version) for every *replicated* object the persistent store
  /// still holds.  The deployment wires this to ReplicaMap::ReportHoldings
  /// so a repair scan racing the restart never sees a phantom-empty
  /// server.  Null = no registry attached.
  std::function<void(
      std::uint32_t server,
      const std::vector<std::pair<storage::ObjectId, std::uint64_t>>& held)>
      restart_report;
};

class StorageServer : public metrics::Instrumented {
 public:
  /// `server_id` is this server's index in the deployment (used as the
  /// back-pointer identity at the authorization service).
  StorageServer(std::shared_ptr<portals::Nic> nic, std::uint32_t server_id,
                storage::ObjectStore* store, portals::Nid authz_nid,
                security::NowFn now, StorageServerOptions options = {});

  Status Start();
  void Stop();

  /// Simulated crash recovery: discard everything volatile — the verified-
  /// capability cache, staged (prepared-but-undecided) transaction state,
  /// and the RPC dedup/reply caches — keeping only the persistent
  /// ObjectStore, exactly what a process restart would keep.  In-doubt
  /// transactions resolve when the coordinator's recovery pass re-delivers
  /// decisions from its journal (presumed abort for undecided ones).  The
  /// fabric node stays registered; callers model the outage window with
  /// Fabric::SetNodeDown around this call.
  void Restart();

  [[nodiscard]] portals::Nid nid() const { return data_server_.nid(); }
  [[nodiscard]] std::uint32_t server_id() const { return server_id_; }
  [[nodiscard]] security::CapCache& cap_cache() { return cap_cache_; }
  [[nodiscard]] txn::StagedParticipant& participant() { return participant_; }
  [[nodiscard]] storage::ObjectStore* store() { return store_; }

  [[nodiscard]] std::vector<rpc::Opcode> registered_data_opcodes() const {
    return data_server_.RegisteredOpcodes();
  }
  [[nodiscard]] std::vector<rpc::Opcode> registered_control_opcodes() const {
    return control_server_.RegisteredOpcodes();
  }

  /// Participant name as used in transaction BEGIN records.
  [[nodiscard]] std::string participant_name() const {
    return "storage:" + std::to_string(server_id_);
  }

 private:
  void RegisterDataHandlers();
  void RegisterControlHandlers();
  void RegisterReplicaHandlers();

  /// Chain-replicated write hop (shared by the data portal, where the
  /// chain head receives it from the client, and the replica portal, where
  /// middles/tails receive forwarded hops): pull the chunk once as a
  /// slice, CRC-check it, forward the same slice downstream concurrently
  /// with the local apply, and reply only after both — so the reply the
  /// client sees is the tail's commit ack.
  Result<wire::ReplicaWriteRep> HandleReplicaWrite(rpc::ServerContext& ctx,
                                                   wire::ReplicaWriteReq& req);
  /// Idempotent caller-chosen-id create (replica fan-out path): a repeat
  /// create of the same oid in the same container succeeds.
  Result<rpc::Void> HandleObjCreateAt(wire::ObjCreateAtReq& req);

  /// Apply a repair's already-pulled payload to the store: staged and
  /// checked against the request header's checksum on this worker,
  /// published through the scheduler.
  Status ApplyChunk(rpc::ServerContext& ctx, storage::ObjectId oid,
                    std::uint64_t offset, const util::SharedSlice& chunk);

  /// Authorize `cap` for `needed_ops`: structural checks, cache lookup,
  /// remote verify on miss — which an inline dispatch defers to a worker.
  Status Authorize(rpc::ServerContext& ctx, const security::Capability& cap,
                   std::uint32_t needed_ops);

  /// Check that `oid` exists and belongs to `cap`'s container; returns the
  /// attribute.
  Result<storage::ObjAttr> CheckObject(const security::Capability& cap,
                                       storage::ObjectId oid);

  /// Charge `us` of modeled create cost: extend the create arm's busy
  /// horizon and sleep out the slot (outside the lock).
  void ChargeModeledUs(double us);

  /// The write data path: pull chunks of whole pieces as slices under
  /// staging reservations, check and stage each chunk against its pieces'
  /// `crcs` (ObjectStore::Stage), submit one publish per chunk, retire a
  /// bounded in-request pipeline.  A final chunk with nothing in flight
  /// ahead of it (every single-chunk write) goes through the synchronous
  /// IoScheduler::Write instead.
  Result<std::uint64_t> ScheduledWrite(rpc::ServerContext& ctx,
                                       storage::ObjectId oid,
                                       std::uint64_t offset,
                                       std::uint64_t total,
                                       std::span<const std::uint32_t> crcs);

  /// The one read data path: reads ONE extent for the request, clamped
  /// to the object's `size`, under a staging reservation through
  /// IoScheduler::Read, which services the run containing it with a
  /// single store ReadSlice and hands back this request's sub-slice.  The store's medium copy is the
  /// only copy.  obj_filter reduces the slice in place.
  Result<util::SharedSlice> ScheduledReadSlice(storage::ObjectId oid,
                                               std::uint64_t offset,
                                               std::uint64_t length,
                                               std::uint64_t size);
  /// ScheduledReadSlice whose slice rides the reply frame
  /// (PushBulkSlice), for obj_read and repair_read.  Returns the bytes
  /// read.
  Result<std::uint64_t> ReplyWithScheduledRead(rpc::ServerContext& ctx,
                                               storage::ObjectId oid,
                                               std::uint64_t offset,
                                               std::uint64_t length,
                                               std::uint64_t size);

  const std::uint32_t server_id_;
  util::Clock* const clock_;
  storage::ObjectStore* store_;
  const portals::Nid authz_nid_;
  security::NowFn now_;
  StorageServerOptions options_;
  security::CapCache cap_cache_;
  txn::StagedParticipant participant_;
  rpc::RpcServer data_server_;
  rpc::RpcServer control_server_;
  /// Chain-forwarding portal: downstream write hops land here instead of
  /// the data portal so two servers forwarding to each other can never
  /// exhaust each other's data workers (see rpc::kReplicaPortal).
  rpc::RpcServer replica_server_;
  rpc::RpcClient authz_client_;
  rpc::Service data_ops_;
  rpc::Service control_ops_;
  rpc::Service replica_ops_;
  metrics::Counter remote_verifies_ = metrics_->counter("remote_verifies");
  std::mutex medium_mu_;
  /// Modeled create arm: the horizon up to which it is committed.  Guarded
  /// by medium_mu_; the sleep itself happens outside the lock.
  util::Clock::TimePoint medium_busy_until_{};
  StagingPool staging_;
  IoScheduler scheduler_;
};

}  // namespace lwfs::core

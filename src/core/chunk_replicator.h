// Background chunk replicator — the repair half of the replication layer
// (DESIGN.md §15).
//
// The replicator runs next to the naming server's replica registry and is
// driven by explicit RunScan() calls (the runtime or a maintenance loop
// decides the cadence, which keeps VirtualClock runs deterministic: a scan
// is an ordinary sequence of RPCs, not a free-running thread).
//
// One scan:
//   1. snapshots the registry, then sends each storage server one batched
//      RepairProbe over the control portal asking about every replicated
//      object it should hold;
//   2. computes each object's repair target version — the highest version
//      any member actually holds, floored by the registry's committed
//      version (so a lagging probe can't lower the bar);
//   3. re-replicates every reachable member that is missing the object or
//      behind the target, chunk by chunk, from a member that holds the
//      target version (RepairRead from the survivor, RepairWrite to the
//      stale member — the survivor's reply slice is forwarded as the write
//      payload, so the replicator copies nothing; the final chunk carries
//      the source's version so the rebuilt member's version catches up —
//      see wire::RepairWriteReq);
//   4. clears the registry's stale marks for every member it verified or
//      repaired.
//
// Repair traffic is paced to `repair_mb_s` client-side (modeled clock
// sleeps) and flows through each server's IoScheduler server-side, so a
// repair storm cannot starve foreground I/O.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "naming/replica_map.h"
#include "rpc/rpc.h"
#include "util/bytes.h"
#include "util/metrics.h"
#include "util/status.h"

namespace lwfs::core {

struct ChunkReplicatorOptions {
  /// Repair bandwidth ceiling, MB/s; <= 0 disables pacing.
  double repair_mb_s = 64.0;
  /// Bytes per RepairRead/RepairWrite pair.
  std::size_t repair_chunk_bytes = 1 << 20;
};

/// Outcome of one scan (or the accumulated totals across scans).
struct RepairScanSummary {
  std::uint64_t entries = 0;        // registry entries examined
  std::uint64_t stale_members = 0;  // members found needing repair
  std::uint64_t repaired = 0;       // members brought back to current
  std::uint64_t failed = 0;         // members that could not be repaired
  std::uint64_t bytes_copied = 0;   // survivor bytes moved
};

/// Counts its scans in the registry cell `scans`.
class ChunkReplicator : public metrics::Instrumented {
 public:
  /// `registry` must outlive the replicator; `storage_nids[i]` is server
  /// index i's nid (same indexing as the replica chains).
  ChunkReplicator(std::shared_ptr<portals::Nic> nic,
                  naming::ReplicaMap* registry,
                  std::vector<portals::Nid> storage_nids,
                  ChunkReplicatorOptions options = {},
                  rpc::ClientOptions rpc_options = {});
  /// Sharded metadata plane: one replicator sweeps every shard's registry
  /// (each shard owns a disjoint striped oid space, so the scans compose).
  ChunkReplicator(std::shared_ptr<portals::Nic> nic,
                  std::vector<naming::ReplicaMap*> registries,
                  std::vector<portals::Nid> storage_nids,
                  ChunkReplicatorOptions options = {},
                  rpc::ClientOptions rpc_options = {});

  /// Run one full scan-and-repair pass (all registries).  Not reentrant:
  /// one scan at a time.
  Result<RepairScanSummary> RunScan();

  [[nodiscard]] std::uint64_t scans() const { return scans_.value(); }
  [[nodiscard]] const RepairScanSummary& totals() const { return totals_; }
  [[nodiscard]] const ChunkReplicatorOptions& options() const {
    return options_;
  }

 private:
  void ScanRegistry(naming::ReplicaMap* registry, RepairScanSummary* sum);
  Status RepairMember(storage::ObjectId oid, storage::ContainerId cid,
                      std::uint32_t member, std::uint32_t source,
                      std::uint64_t source_size, std::uint64_t source_version,
                      RepairScanSummary* sum);

  std::vector<naming::ReplicaMap*> registries_;
  std::vector<portals::Nid> storage_nids_;
  ChunkReplicatorOptions options_;
  rpc::RpcClient rpc_;

  metrics::Counter scans_ = metrics_->counter("scans");
  RepairScanSummary totals_;
};

}  // namespace lwfs::core

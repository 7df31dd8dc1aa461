// Replica-placement map: which storage servers hold each replicated object.
//
// The naming server hosts this registry (the paper's storage servers are
// policy-free, so placement — a policy — lives with the other client-side
// metadata).  Placement is a pure function of the registry's own allocation
// counter and the deployment shape: no clock reads, no randomness, so a
// VirtualClock run replays bit-identically.  Chains are rack-aware — each
// additional replica prefers a server in a rack none of the chain occupies
// yet (rack = index / rack_size) — which is what makes a single-rack outage
// survivable at replication_factor >= 2.
//
// Staleness model: every chain member is either *current* or *stale*.
// Clients report members that missed a committed write (with the committed
// version); restarted servers report what they actually hold so a repair
// scan racing a restart never sees a phantom-empty server; the background
// chunk replicator clears stale marks once it has copied survivor bytes at
// (or past) the committed version.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

#include "naming/op_log.h"
#include "storage/ids.h"
#include "util/metrics.h"
#include "util/status.h"

namespace lwfs::naming {

struct ReplicaMapOptions {
  /// Storage servers in the deployment.
  std::uint32_t servers = 1;
  /// Default chain length when a placement request passes factor = 0.
  std::uint32_t default_factor = 1;
  /// Servers per rack for placement spread; <= 1 disables rack awareness.
  std::uint32_t rack_size = 2;
  /// Identity of the metadata shard hosting this registry.  Shard i of N
  /// mints oids of the form bit62 | (seq * N + i), so every replicated oid
  /// names its owning shard statelessly (ShardMap::ShardForOid is a modulo)
  /// and shards never collide.  The defaults reproduce the unsharded oid
  /// sequence exactly.
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
};

/// One registry entry, snapshot form.
struct ReplicaPlacement {
  storage::ObjectId oid;
  storage::ContainerId cid;
  std::vector<std::uint32_t> chain;  // server indices, head first
  /// Highest version any member is known to have committed (0 until a
  /// degraded write forces the registry to start tracking it).
  std::uint64_t committed_version = 0;
  std::vector<std::uint32_t> stale;  // members needing repair, ascending
};

struct ReplicaAuditCounts {
  std::uint64_t objects = 0;
  std::uint64_t fully_replicated = 0;
  std::uint64_t under_replicated = 0;
  std::uint64_t stale_members = 0;
};

/// Counts read-path stale demotions in the registry cell
/// `stale_demotions`.
class ReplicaMap : public metrics::Instrumented {
 public:
  /// `oplog`, when set, records every committed registry mutation before
  /// the mutating call returns (see NamingService: commit-before-ack, so a
  /// warm standby replaying the log loses nothing acknowledged).
  explicit ReplicaMap(ReplicaMapOptions options, OpLog* oplog = nullptr);

  /// Allocate a replicated oid (kReplicatedOidBit | counter) and its chain.
  /// The chain starts at `preferred % servers` and spreads across racks.
  Result<ReplicaPlacement> Place(storage::ContainerId cid,
                                 std::uint32_t preferred,
                                 std::uint32_t factor);

  /// Registry read path.  Known-stale members are demoted to the back of
  /// the returned chain (stable order within each group) so hedged and
  /// failover reads try current members first; `stale_demotions()` counts
  /// lookups that reordered.  Snapshot()/UnderReplicated() keep registry
  /// order — the repair scanner wants the truth, not the read preference.
  Result<ReplicaPlacement> Lookup(storage::ObjectId oid) const;

  /// Degraded-write report: `stale` members missed the write committed at
  /// `version` on the rest of the chain.
  Status ReportStale(storage::ObjectId oid, std::uint64_t version,
                     const std::vector<std::uint32_t>& stale);

  /// Repair completion: `member` now holds the object at `version`.  The
  /// stale mark clears only if that catches the committed version.
  Status MarkRepaired(storage::ObjectId oid, std::uint32_t member,
                      std::uint64_t version);

  /// Restart re-registration: `held` maps oid -> version for every
  /// replicated object `server` still holds.  Entries placing the server
  /// that are missing from `held` are marked stale (the store lost them);
  /// held-at-committed-version entries are marked current.
  void ReportHoldings(
      std::uint32_t server,
      const std::vector<std::pair<storage::ObjectId, std::uint64_t>>& held);

  [[nodiscard]] ReplicaAuditCounts Audit() const;

  /// Entries with at least one stale member, for the repair scanner.
  [[nodiscard]] std::vector<ReplicaPlacement> UnderReplicated() const;
  /// Every entry (the scanner's full-scan mode).
  [[nodiscard]] std::vector<ReplicaPlacement> Snapshot() const;

  [[nodiscard]] const ReplicaMapOptions& options() const { return options_; }

  /// Lookups whose chain was reordered because a member was stale.
  [[nodiscard]] std::uint64_t stale_demotions() const;

  /// Standby replay: apply one registry op-log record without re-logging
  /// (call only while no op log is attached; see SetOpLog).
  Status Replay(const OpRecord& record);

  /// Attach (or detach) the committed-mutation log; a standby attaches it
  /// only after catching up so replay never re-logs.
  void SetOpLog(OpLog* oplog);

 private:
  struct Entry {
    storage::ContainerId cid;
    std::vector<std::uint32_t> chain;
    std::uint64_t committed_version = 0;
    std::set<std::uint32_t> stale;
  };

  [[nodiscard]] ReplicaPlacement ToPlacement(storage::ObjectId oid,
                                             const Entry& entry) const;

  const ReplicaMapOptions options_;
  mutable std::mutex mutex_;
  std::uint64_t next_seq_ = 1;
  std::map<storage::ObjectId, Entry> entries_;
  OpLog* oplog_ = nullptr;  // guarded by mutex_; appended under the lock
  metrics::Counter stale_demotions_ = metrics_->counter("stale_demotions");
};

}  // namespace lwfs::naming

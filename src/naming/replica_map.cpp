#include "naming/replica_map.h"

#include <algorithm>

namespace lwfs::naming {

namespace {
ReplicaMapOptions Sanitize(ReplicaMapOptions options) {
  if (options.servers == 0) options.servers = 1;
  if (options.default_factor == 0) options.default_factor = 1;
  if (options.shard_count == 0) options.shard_count = 1;
  if (options.shard_index >= options.shard_count) options.shard_index = 0;
  return options;
}
}  // namespace

ReplicaMap::ReplicaMap(ReplicaMapOptions options, OpLog* oplog)
    : options_(Sanitize(options)), oplog_(oplog) {}

void ReplicaMap::SetOpLog(OpLog* oplog) {
  std::lock_guard<std::mutex> lock(mutex_);
  oplog_ = oplog;
}

Result<ReplicaPlacement> ReplicaMap::Place(storage::ContainerId cid,
                                           std::uint32_t preferred,
                                           std::uint32_t factor) {
  if (factor == 0) factor = options_.default_factor;
  factor = std::min(factor, options_.servers);

  // Greedy rack-aware chain: start at the preferred server, then repeatedly
  // take the next server around the ring whose rack the chain does not
  // occupy yet, falling back to plain ring order once every rack is used.
  const std::uint32_t n = options_.servers;
  const std::uint32_t rack_size = std::max<std::uint32_t>(options_.rack_size, 1);
  auto rack_of = [rack_size](std::uint32_t server) { return server / rack_size; };

  std::vector<std::uint32_t> chain;
  chain.reserve(factor);
  chain.push_back(preferred % n);
  while (chain.size() < factor) {
    std::uint32_t pick = n;  // sentinel: nothing found yet
    for (std::uint32_t off = 1; off < n && pick == n; ++off) {
      const std::uint32_t candidate = (chain.front() + off) % n;
      if (std::find(chain.begin(), chain.end(), candidate) != chain.end()) {
        continue;
      }
      bool rack_clash = false;
      for (std::uint32_t member : chain) {
        rack_clash |= rack_of(member) == rack_of(candidate);
      }
      if (!rack_clash) pick = candidate;
    }
    if (pick == n) {
      // Every unused server shares a rack with the chain; take ring order.
      for (std::uint32_t off = 1; off < n && pick == n; ++off) {
        const std::uint32_t candidate = (chain.front() + off) % n;
        if (std::find(chain.begin(), chain.end(), candidate) == chain.end()) {
          pick = candidate;
        }
      }
    }
    if (pick == n) break;  // factor > distinct servers; clamped above
    chain.push_back(pick);
  }

  std::lock_guard<std::mutex> lock(mutex_);
  // Shard-striped sequence: shard i of N mints seq*N+i, so oid % N names
  // the owning shard and shards never collide (N=1 degenerates to the
  // original dense sequence).
  const storage::ObjectId oid{
      storage::kReplicatedOidBit |
      (next_seq_ * options_.shard_count + options_.shard_index)};
  ++next_seq_;
  Entry entry;
  entry.cid = cid;
  entry.chain = chain;
  auto [it, inserted] = entries_.emplace(oid, std::move(entry));
  if (!inserted) return Internal("replica id collision");
  if (oplog_ != nullptr) {
    OpRecord rec;
    rec.kind = OpRecord::Kind::kReplicaPlace;
    rec.u0 = cid.value;
    rec.s0 = preferred;
    rec.s1 = factor;
    rec.u1 = oid.value;
    oplog_->Append(std::move(rec));
  }
  return ToPlacement(oid, it->second);
}

Result<ReplicaPlacement> ReplicaMap::Lookup(storage::ObjectId oid) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(oid);
  if (it == entries_.end()) return NotFound("unknown replicated object");
  ReplicaPlacement placement = ToPlacement(oid, it->second);
  // Read-path ordering: demote known-stale members to the back (stable
  // within each group) so hedged/failover readers try current bytes first.
  if (!it->second.stale.empty()) {
    std::stable_partition(placement.chain.begin(), placement.chain.end(),
                          [&](std::uint32_t member) {
                            return it->second.stale.count(member) == 0;
                          });
    if (placement.chain != it->second.chain) stale_demotions_.Add();
  }
  return placement;
}

Status ReplicaMap::ReportStale(storage::ObjectId oid, std::uint64_t version,
                               const std::vector<std::uint32_t>& stale) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(oid);
  if (it == entries_.end()) return NotFound("unknown replicated object");
  Entry& entry = it->second;
  entry.committed_version = std::max(entry.committed_version, version);
  for (std::uint32_t member : stale) {
    if (std::find(entry.chain.begin(), entry.chain.end(), member) !=
        entry.chain.end()) {
      entry.stale.insert(member);
    }
  }
  if (oplog_ != nullptr) {
    OpRecord rec;
    rec.kind = OpRecord::Kind::kReplicaReportStale;
    rec.u0 = oid.value;
    rec.u1 = version;
    rec.members = stale;
    oplog_->Append(std::move(rec));
  }
  return OkStatus();
}

Status ReplicaMap::MarkRepaired(storage::ObjectId oid, std::uint32_t member,
                                std::uint64_t version) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(oid);
  if (it == entries_.end()) return NotFound("unknown replicated object");
  Entry& entry = it->second;
  if (version >= entry.committed_version) entry.stale.erase(member);
  if (oplog_ != nullptr) {
    OpRecord rec;
    rec.kind = OpRecord::Kind::kReplicaMarkRepaired;
    rec.u0 = oid.value;
    rec.u1 = version;
    rec.s0 = member;
    oplog_->Append(std::move(rec));
  }
  return OkStatus();
}

void ReplicaMap::ReportHoldings(
    std::uint32_t server,
    const std::vector<std::pair<storage::ObjectId, std::uint64_t>>& held) {
  std::map<storage::ObjectId, std::uint64_t> by_oid;
  for (const auto& [oid, version] : held) by_oid[oid] = version;

  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [oid, entry] : entries_) {
    if (std::find(entry.chain.begin(), entry.chain.end(), server) ==
        entry.chain.end()) {
      continue;
    }
    auto it = by_oid.find(oid);
    if (it == by_oid.end()) {
      // The store lost the object outright (or never created it).
      entry.stale.insert(server);
    } else if (it->second >= entry.committed_version) {
      entry.stale.erase(server);
    } else {
      entry.stale.insert(server);
    }
  }
  if (oplog_ != nullptr) {
    OpRecord rec;
    rec.kind = OpRecord::Kind::kReplicaHoldings;
    rec.s0 = server;
    rec.pairs.reserve(held.size());
    for (const auto& [oid, version] : held) {
      rec.pairs.emplace_back(oid.value, version);
    }
    oplog_->Append(std::move(rec));
  }
}

ReplicaAuditCounts ReplicaMap::Audit() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ReplicaAuditCounts counts;
  counts.objects = entries_.size();
  for (const auto& [oid, entry] : entries_) {
    (void)oid;
    if (entry.stale.empty()) {
      ++counts.fully_replicated;
    } else {
      ++counts.under_replicated;
      counts.stale_members += entry.stale.size();
    }
  }
  return counts;
}

std::vector<ReplicaPlacement> ReplicaMap::UnderReplicated() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ReplicaPlacement> out;
  for (const auto& [oid, entry] : entries_) {
    if (!entry.stale.empty()) out.push_back(ToPlacement(oid, entry));
  }
  return out;
}

std::vector<ReplicaPlacement> ReplicaMap::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ReplicaPlacement> out;
  out.reserve(entries_.size());
  for (const auto& [oid, entry] : entries_) out.push_back(ToPlacement(oid, entry));
  return out;
}

std::uint64_t ReplicaMap::stale_demotions() const {
  return stale_demotions_.value();
}

Status ReplicaMap::Replay(const OpRecord& record) {
  switch (record.kind) {
    case OpRecord::Kind::kReplicaPlace: {
      auto placement = Place(storage::ContainerId{record.u0}, record.s0,
                             record.s1);
      if (!placement.ok()) return placement.status();
      if (placement->oid.value != record.u1) {
        return Internal("replayed placement minted a different oid");
      }
      return OkStatus();
    }
    case OpRecord::Kind::kReplicaReportStale:
      return ReportStale(storage::ObjectId{record.u0}, record.u1,
                         record.members);
    case OpRecord::Kind::kReplicaMarkRepaired:
      return MarkRepaired(storage::ObjectId{record.u0}, record.s0, record.u1);
    case OpRecord::Kind::kReplicaHoldings: {
      std::vector<std::pair<storage::ObjectId, std::uint64_t>> held;
      held.reserve(record.pairs.size());
      for (const auto& [oid, version] : record.pairs) {
        held.emplace_back(storage::ObjectId{oid}, version);
      }
      ReportHoldings(record.s0, held);
      return OkStatus();
    }
    default:
      return InvalidArgument("not a registry record");
  }
}

ReplicaPlacement ReplicaMap::ToPlacement(storage::ObjectId oid,
                                         const Entry& entry) const {
  ReplicaPlacement placement;
  placement.oid = oid;
  placement.cid = entry.cid;
  placement.chain = entry.chain;
  placement.committed_version = entry.committed_version;
  placement.stale.assign(entry.stale.begin(), entry.stale.end());
  return placement;
}

}  // namespace lwfs::naming

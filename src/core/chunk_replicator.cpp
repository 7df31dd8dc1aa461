#include "core/chunk_replicator.h"

#include <algorithm>
#include <chrono>
#include <map>

#include "core/protocol.h"
#include "core/wire.h"
#include "rpc/service.h"
#include "util/clock.h"

namespace lwfs::core {

namespace {
constexpr std::uint32_t kNoSource = 0xFFFFFFFFu;
}  // namespace

ChunkReplicator::ChunkReplicator(std::shared_ptr<portals::Nic> nic,
                                 naming::ReplicaMap* registry,
                                 std::vector<portals::Nid> storage_nids,
                                 ChunkReplicatorOptions options,
                                 rpc::ClientOptions rpc_options)
    : ChunkReplicator(std::move(nic),
                      std::vector<naming::ReplicaMap*>{registry},
                      std::move(storage_nids), options,
                      std::move(rpc_options)) {}

ChunkReplicator::ChunkReplicator(std::shared_ptr<portals::Nic> nic,
                                 std::vector<naming::ReplicaMap*> registries,
                                 std::vector<portals::Nid> storage_nids,
                                 ChunkReplicatorOptions options,
                                 rpc::ClientOptions rpc_options)
    : registries_(std::move(registries)),
      storage_nids_(std::move(storage_nids)),
      options_(options),
      rpc_(std::move(nic), rpc_options) {}

Result<RepairScanSummary> ChunkReplicator::RunScan() {
  if (registries_.empty() || registries_[0] == nullptr) {
    return FailedPrecondition("replicator has no registry");
  }
  RepairScanSummary sum;
  for (naming::ReplicaMap* registry : registries_) {
    if (registry != nullptr) ScanRegistry(registry, &sum);
  }

  scans_.Add();
  totals_.entries += sum.entries;
  totals_.stale_members += sum.stale_members;
  totals_.repaired += sum.repaired;
  totals_.failed += sum.failed;
  totals_.bytes_copied += sum.bytes_copied;
  return sum;
}

void ChunkReplicator::ScanRegistry(naming::ReplicaMap* registry,
                                   RepairScanSummary* out) {
  RepairScanSummary& sum = *out;
  const std::vector<naming::ReplicaPlacement> snapshot = registry->Snapshot();
  sum.entries += snapshot.size();

  // One batched probe per server covering every object it should hold.
  std::vector<std::vector<std::uint64_t>> want(storage_nids_.size());
  for (const auto& entry : snapshot) {
    for (std::uint32_t m : entry.chain) {
      if (m < want.size()) want[m].push_back(entry.oid.value);
    }
  }
  rpc::CallOptions control;
  control.request_portal = rpc::kControlPortal;
  std::vector<std::map<std::uint64_t, wire::ReplicaProbe>> probed(
      storage_nids_.size());
  std::vector<bool> reachable(storage_nids_.size(), false);
  for (std::size_t s = 0; s < storage_nids_.size(); ++s) {
    if (want[s].empty()) {
      reachable[s] = true;
      continue;
    }
    auto rep = rpc::CallTyped<wire::RepairProbeRep>(
        rpc_, storage_nids_[s], kOpRepairProbe, wire::RepairProbeReq{want[s]},
        control);
    if (!rep.ok()) continue;  // unreachable: skip, never assume empty
    reachable[s] = true;
    for (const wire::ReplicaProbe& p : rep->probes) probed[s][p.oid] = p;
  }

  for (const auto& entry : snapshot) {
    auto probe_of = [&](std::uint32_t m) -> const wire::ReplicaProbe* {
      if (m >= probed.size()) return nullptr;
      auto it = probed[m].find(entry.oid.value);
      return it == probed[m].end() ? nullptr : &it->second;
    };

    // Repair target: the highest version any member holds, floored by the
    // registry's committed version (a lagging probe can't lower the bar).
    std::uint64_t target = entry.committed_version;
    for (std::uint32_t m : entry.chain) {
      const wire::ReplicaProbe* p = probe_of(m);
      if (p != nullptr && p->held) target = std::max(target, p->version);
    }

    std::uint32_t source = kNoSource;
    std::uint64_t source_size = 0;
    std::uint64_t source_version = 0;
    for (std::uint32_t m : entry.chain) {
      const wire::ReplicaProbe* p = probe_of(m);
      if (p != nullptr && p->held && p->version >= target) {
        source = m;
        source_size = p->size;
        source_version = p->version;
        break;
      }
    }

    for (std::uint32_t m : entry.chain) {
      if (m >= reachable.size() || !reachable[m]) continue;  // can't judge it
      const wire::ReplicaProbe* p = probe_of(m);
      if (p != nullptr && p->held && p->version >= target) {
        // Current (the source included) — clear any lingering stale mark.
        (void)registry->MarkRepaired(entry.oid, m, p->version);
        continue;
      }
      ++sum.stale_members;
      if (source == kNoSource) {
        ++sum.failed;  // nothing current survives to copy from
        continue;
      }
      Status repaired = RepairMember(entry.oid, entry.cid, m, source,
                                     source_size, source_version, &sum);
      if (repaired.ok()) {
        ++sum.repaired;
        (void)registry->MarkRepaired(entry.oid, m, source_version);
      } else {
        ++sum.failed;
      }
    }
  }
}

Status ChunkReplicator::RepairMember(storage::ObjectId oid,
                                     storage::ContainerId cid,
                                     std::uint32_t member, std::uint32_t source,
                                     std::uint64_t source_size,
                                     std::uint64_t source_version,
                                     RepairScanSummary* sum) {
  rpc::CallOptions control;
  control.request_portal = rpc::kControlPortal;
  util::Clock* clock = rpc_.clock();
  const std::uint64_t chunk_bytes =
      std::max<std::size_t>(options_.repair_chunk_bytes, 1);
  std::uint64_t offset = 0;
  std::uint64_t size = source_size;
  std::uint64_t version = source_version;
  do {
    const std::uint64_t want = std::min<std::uint64_t>(chunk_bytes,
                                                       size - offset);
    util::SharedSlice bytes;
    if (want > 0) {
      auto read = rpc::CallTypedAsync(
          rpc_, storage_nids_[source], kOpRepairRead,
          wire::RepairReadReq{oid.value, offset, want}, control);
      if (!read.ok()) return read.status();
      auto rrep = rpc::ResolveTyped<wire::RepairReadRep>(read->Await());
      if (!rrep.ok()) return rrep.status();
      bytes = read->ReplyBulk();
      if (bytes.size() != rrep->moved) {
        return DataLoss("repair read bulk does not match reported byte count");
      }
      version = std::max(version, rrep->version);
      size = std::max(size, rrep->size);
    }
    const std::uint64_t moved = bytes.size();
    const bool last = offset + moved >= size;
    // The survivor's reply slice is the repair write's payload: the member
    // pulls the very bytes that arrived, with no copy here.
    rpc::CallOptions write = control;
    write.bulk_out_slice = std::move(bytes);
    auto wrep = rpc::CallTyped<wire::RepairWriteRep>(
        rpc_, storage_nids_[member], kOpRepairWrite,
        wire::RepairWriteReq{oid.value, cid.value, offset,
                             last ? version : 0},
        write);
    if (!wrep.ok()) return wrep.status();
    offset += moved;
    sum->bytes_copied += moved;
    // Pace to the rate knob so repair cannot starve foreground traffic
    // (server-side the repair ops also queue through the IoScheduler).
    if (options_.repair_mb_s > 0 && moved > 0) {
      const double us =
          static_cast<double>(moved) / options_.repair_mb_s;  // B / (MB/s) = us
      clock->SleepFor(
          std::chrono::microseconds(static_cast<std::int64_t>(us)));
    }
    if (moved == 0 && offset < size) {
      return Internal("repair source returned a short read");
    }
  } while (offset < size);
  return OkStatus();
}

}  // namespace lwfs::core

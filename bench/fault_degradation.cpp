// Fault-degradation sweep (§3.2): aggregate dump throughput vs. injected
// message-drop rate, on the live in-process LWFS stack.
//
// The paper's robustness argument is that failures are paid for in *small*
// messages: a lost request or reply costs one retransmission after a short
// deadline, never a torn object or a wedged client.  This bench makes the
// claim measurable — each point injects a uniform drop probability on every
// link touching the storage servers, dumps a checkpoint-shaped workload
// through the fault-hardened RPC path, and reports:
//
//   * throughput (mean/sd over 5 seeded trials, MB/s) — should degrade
//     smoothly with the drop rate, not fall off a cliff;
//   * the recovery ledger — client retransmits, server dedup hits, CRC
//     rejects, and the injector's own fault counters — which shows *why*
//     the curve bends;
//   * integrity failures — reads that returned wrong bytes; always zero,
//     at any drop rate, or the run prints FAIL.
//
// With `--replicated` the bench instead measures degraded-mode operation of
// the replication layer: a 3-way replicated workload with one storage server
// hard-down — chain writes degrade (survivors commit, the miss is reported
// stale), reads fail over / hedge, and after the outage the repair scanner
// must restore full replication (the run exits 1 if it does not, or if any
// read returns wrong bytes).  Reported: healthy vs. degraded dump
// throughput, per-read p99 latency, the hedging/failover ledger, and the
// repair-scan + replica-audit summary.
//
// Emits BENCH_fault.json for the plots.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/client.h"
#include "core/runtime.h"
#include "util/clock.h"
#include "util/stats.h"

namespace {

using namespace lwfs;

constexpr double kDropRates[] = {0, 0.001, 0.01, 0.05};
constexpr int kObjectsPerTrial = 16;
constexpr std::size_t kObjectBytes = 256 << 10;
constexpr int kStorageServers = 4;
constexpr int kWriteAttempts = 4;  // clean retries after a budget-exhausted call

struct Point {
  double drop_rate = 0;
  double mean_mb_s = 0;
  double sd = 0;
  double relative = 0;  // vs. the fault-free baseline
  // Client-side recovery work (one fresh client per point).
  std::uint64_t calls = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t crc_rejects = 0;
  std::uint64_t bulk_crc_failures = 0;
  std::uint64_t call_failures = 0;  // calls that exhausted their budget
  // Server/fabric-side deltas over the point's trials.
  std::uint64_t served = 0;
  std::uint64_t dedup_hits = 0;
  std::uint64_t crc_drops = 0;
  std::uint64_t injected_drops = 0;
  std::uint64_t integrity_failures = 0;  // accepted-wrong-bytes reads: must be 0
};

Result<Point> RunPoint(core::ServiceRuntime& runtime, double drop_rate) {
  Point point;
  point.drop_rate = drop_rate;

  auto& injector = runtime.fabric().injector();
  injector.ClearFaults();
  for (portals::Nid nid : runtime.deployment().storage) {
    injector.SetNode(nid, {.drop = drop_rate});
  }

  auto client = runtime.MakeClient();
  auto cred = client->Login("bench", "pw");
  if (!cred.ok()) return cred.status();
  auto cid = client->CreateContainer(*cred);
  if (!cid.ok()) return cid.status();
  auto cap = client->GetCap(*cred, *cid, security::kOpAll);
  if (!cap.ok()) return cap.status();

  const Buffer payload = PatternBuffer(kObjectBytes, 0xFA17);
  const metrics::Snapshot before = runtime.metrics()->Snapshot();

  RunningStats stats;
  for (std::uint64_t trial = 1; trial <= bench::kTrials; ++trial) {
    injector.Seed(0xFA170000 + trial * 977 + std::uint64_t(drop_rate * 1e4));
    // Create untimed: the dump phase (Figure 9's metric) is the writes.
    std::vector<std::pair<int, storage::ObjectId>> objects;
    for (int i = 0; i < kObjectsPerTrial; ++i) {
      const int server = i % kStorageServers;
      auto oid = client->CreateObject(server, *cap);
      for (int a = 1; a < kWriteAttempts && !oid.ok(); ++a) {
        oid = client->CreateObject(server, *cap);
      }
      if (!oid.ok()) return oid.status();
      objects.emplace_back(server, *oid);
    }

    const auto start = util::RealClockInstance()->Now();
    for (const auto& [server, oid] : objects) {
      Status wrote = client->WriteObject(server, *cap, oid, 0, ByteSpan(payload));
      for (int a = 1; a < kWriteAttempts && !wrote.ok(); ++a) {
        ++point.call_failures;
        wrote = client->WriteObject(server, *cap, oid, 0, ByteSpan(payload));
      }
      if (!wrote.ok()) return wrote;
    }
    const std::chrono::duration<double> elapsed =
        util::RealClockInstance()->Now() - start;
    const double mb = double(kObjectsPerTrial) * double(kObjectBytes) / 1e6;
    stats.Add(mb / elapsed.count());

    // Untimed read-back through the same lossy fabric: detected failures
    // (kDataLoss, kTimeout) retry cleanly; *wrong accepted bytes* are the
    // one unforgivable outcome.
    for (const auto& [server, oid] : objects) {
      Buffer back(payload.size(), 0);
      auto n = client->ReadObject(server, *cap, oid, 0, MutableByteSpan(back));
      for (int a = 1; a < kWriteAttempts && !n.ok(); ++a) {
        n = client->ReadObject(server, *cap, oid, 0, MutableByteSpan(back));
      }
      if (!n.ok()) return n.status();
      if (*n != payload.size() || back != payload) ++point.integrity_failures;
    }
  }

  const metrics::Snapshot after = runtime.metrics()->Snapshot();
  auto delta = [&](std::string_view cell) {
    return after.Sum(cell) - before.Sum(cell);
  };
  const metrics::Snapshot rpc = client->metrics()->Snapshot();
  point.mean_mb_s = stats.mean();
  point.sd = stats.stddev();
  point.calls = rpc.Get("rpc.calls");
  point.retransmits = rpc.Get("rpc.retransmits");
  point.crc_rejects = rpc.Get("rpc.crc_rejects");
  point.bulk_crc_failures = rpc.Get("rpc.bulk_crc_failures");
  point.served = delta("**.rpc.**.served");
  point.dedup_hits = delta("**.rpc.**.dedup_hits");
  point.crc_drops = delta("**.rpc.**.crc_drops");
  point.injected_drops = delta("fabric.faults.drops");
  return point;
}

// ---------------------------------------------------------------------------
// Replicated degraded-mode suite (--replicated)
// ---------------------------------------------------------------------------

struct ReplicatedReport {
  double healthy_mb_s = 0, healthy_sd = 0;
  double degraded_mb_s = 0, degraded_sd = 0;
  double degraded_relative = 0;
  double healthy_read_p99_us = 0;
  double degraded_read_p99_us = 0;
  metrics::Snapshot client_metrics;  // after the degraded phase
  metrics::Snapshot deployment_metrics;  // after heal and repair
  core::RepairScanSummary repair;
  naming::ReplicaAuditCounts audit;
  std::uint64_t integrity_failures = 0;
};

double P99(std::vector<double>& us) {
  if (us.empty()) return 0;
  std::sort(us.begin(), us.end());
  const std::size_t idx = static_cast<std::size_t>(
      std::ceil(0.99 * static_cast<double>(us.size()))) - 1;
  return us[std::min(idx, us.size() - 1)];
}

Result<ReplicatedReport> RunReplicated() {
  core::RuntimeOptions options;
  options.storage_servers = kStorageServers;
  options.client_options.default_timeout = std::chrono::milliseconds(20);
  options.client_options.max_retransmits = 10;
  options.replication.replication_factor = 3;
  options.replication.hedge_after_us = 500;
  options.replication.repair_mb_s = 256.0;
  auto rt = core::ServiceRuntime::Start(options);
  if (!rt.ok()) return rt.status();
  core::ServiceRuntime& runtime = **rt;
  runtime.AddUser("bench", "pw", 1);

  auto client = runtime.MakeClient();
  auto cred = client->Login("bench", "pw");
  if (!cred.ok()) return cred.status();
  auto cid = client->CreateContainer(*cred);
  if (!cid.ok()) return cid.status();
  auto cap = client->GetCap(*cred, *cid, security::kOpAll);
  if (!cap.ok()) return cap.status();

  const Buffer payload = PatternBuffer(kObjectBytes, 0x5E77);
  ReplicatedReport rep;

  // One phase = kTrials x (create 16 replicated objects, timed chain-write
  // dump, per-read-timed read-back with integrity check).
  auto phase = [&](RunningStats& write_stats,
                   std::vector<double>& read_us) -> Status {
    for (std::uint64_t trial = 1; trial <= bench::kTrials; ++trial) {
      std::vector<core::ReplicaChain> chains;
      for (int i = 0; i < kObjectsPerTrial; ++i) {
        auto chain = client->CreateReplicatedObject(
            *cap, static_cast<std::uint32_t>(i % kStorageServers),
            options.replication.replication_factor);
        if (!chain.ok()) return chain.status();
        chains.push_back(std::move(*chain));
      }
      const auto start = util::RealClockInstance()->Now();
      for (const auto& chain : chains) {
        LWFS_RETURN_IF_ERROR(client->WriteReplicatedSlice(
            *cap, chain, 0, util::SharedSlice::External(payload)));
      }
      const std::chrono::duration<double> elapsed =
          util::RealClockInstance()->Now() - start;
      const double mb = double(kObjectsPerTrial) * double(kObjectBytes) / 1e6;
      write_stats.Add(mb / elapsed.count());

      for (const auto& chain : chains) {
        const auto r0 = util::RealClockInstance()->Now();
        auto back = client->ReadReplicatedSlice(*cap, chain, 0, payload.size());
        const std::chrono::duration<double, std::micro> lat =
            util::RealClockInstance()->Now() - r0;
        if (!back.ok()) return back.status();
        read_us.push_back(lat.count());
        if (!std::ranges::equal(back->span(), payload)) {
          ++rep.integrity_failures;
        }
      }
    }
    return OkStatus();
  };

  RunningStats healthy_writes;
  std::vector<double> healthy_reads;
  LWFS_RETURN_IF_ERROR(phase(healthy_writes, healthy_reads));
  rep.healthy_mb_s = healthy_writes.mean();
  rep.healthy_sd = healthy_writes.stddev();
  rep.healthy_read_p99_us = P99(healthy_reads);

  // Kill one storage server and run the identical workload degraded: chains
  // still include the dead member, so every write commits short-handed and
  // every read that lands on it fails over or hedges.
  const portals::Nid victim = runtime.deployment().storage[0];
  runtime.fabric().SetNodeDown(victim, true);
  RunningStats degraded_writes;
  std::vector<double> degraded_reads;
  LWFS_RETURN_IF_ERROR(phase(degraded_writes, degraded_reads));
  rep.degraded_mb_s = degraded_writes.mean();
  rep.degraded_sd = degraded_writes.stddev();
  rep.degraded_read_p99_us = P99(degraded_reads);
  rep.degraded_relative =
      rep.healthy_mb_s > 0 ? rep.degraded_mb_s / rep.healthy_mb_s : 0;
  rep.client_metrics = client->metrics()->Snapshot();

  // Heal and repair: restart re-registers the survivor's holdings, the scan
  // re-replicates everything the outage missed, and the audit must come back
  // fully replicated — this is the bench's pass/fail smoke gate.
  runtime.fabric().SetNodeDown(victim, false);
  runtime.storage_server(0).Restart();
  auto scan = runtime.replicator().RunScan();
  if (!scan.ok()) return scan.status();
  rep.repair = *scan;
  rep.audit = runtime.replica_map().Audit();
  rep.deployment_metrics = runtime.metrics()->Snapshot();
  return rep;
}

void PrintReplicated(const ReplicatedReport& r) {
  bench::PrintHeader(
      "Degraded mode: 3-way replicated dump, one server down "
      "(16 objects x 256 KiB, 4 servers)");
  std::printf("%10s  %12s %8s %9s %14s\n", "mode", "MB/s", "(sd)", "relative",
              "read p99 (us)");
  std::printf("%10s  %12.1f %8.1f %9.3f %14.0f\n", "healthy", r.healthy_mb_s,
              r.healthy_sd, 1.0, r.healthy_read_p99_us);
  std::printf("%10s  %12.1f %8.1f %9.3f %14.0f\n", "degraded", r.degraded_mb_s,
              r.degraded_sd, r.degraded_relative, r.degraded_read_p99_us);
  std::printf("\nclient:");
  for (const auto& [name, value] : r.client_metrics.cells()) {
    if (metrics::Matches("replication.*", name)) {
      std::printf(" %s=%llu", name.c_str() + std::strlen("replication."),
                  static_cast<unsigned long long>(value.value));
    }
  }
  std::printf("\n");
  std::printf(
      "repair: stale=%llu repaired=%llu failed=%llu copied=%llu bytes; "
      "audit: %llu/%llu fully replicated, under=%llu stale=%llu\n",
      static_cast<unsigned long long>(r.repair.stale_members),
      static_cast<unsigned long long>(r.repair.repaired),
      static_cast<unsigned long long>(r.repair.failed),
      static_cast<unsigned long long>(r.repair.bytes_copied),
      static_cast<unsigned long long>(r.audit.fully_replicated),
      static_cast<unsigned long long>(r.audit.objects),
      static_cast<unsigned long long>(r.audit.under_replicated),
      static_cast<unsigned long long>(r.audit.stale_members));
}

void DumpJson(const std::vector<Point>& points, const ReplicatedReport* rep) {
  std::FILE* out = std::fopen("BENCH_fault.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_fault.json\n");
    return;
  }
  std::fprintf(out,
               "{\n"
               "  \"benchmark\": \"fault_degradation\",\n"
               "  \"objects_per_trial\": %d,\n"
               "  \"object_bytes\": %zu,\n"
               "  \"storage_servers\": %d,\n"
               "  \"trials\": %d,\n"
               "  \"points\": [\n",
               kObjectsPerTrial, kObjectBytes, kStorageServers, bench::kTrials);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    std::fprintf(
        out,
        "    {\"drop_rate\": %.4f, \"mb_per_s\": %.2f, \"sd\": %.2f, "
        "\"relative\": %.3f, \"calls\": %llu, \"retransmits\": %llu, "
        "\"crc_rejects\": %llu, \"bulk_crc_failures\": %llu, "
        "\"call_failures\": %llu, \"served\": %llu, \"dedup_hits\": %llu, "
        "\"crc_drops\": %llu, \"injected_drops\": %llu, "
        "\"integrity_failures\": %llu}%s\n",
        p.drop_rate, p.mean_mb_s, p.sd, p.relative,
        static_cast<unsigned long long>(p.calls),
        static_cast<unsigned long long>(p.retransmits),
        static_cast<unsigned long long>(p.crc_rejects),
        static_cast<unsigned long long>(p.bulk_crc_failures),
        static_cast<unsigned long long>(p.call_failures),
        static_cast<unsigned long long>(p.served),
        static_cast<unsigned long long>(p.dedup_hits),
        static_cast<unsigned long long>(p.crc_drops),
        static_cast<unsigned long long>(p.injected_drops),
        static_cast<unsigned long long>(p.integrity_failures),
        i + 1 < points.size() ? "," : "");
  }
  std::fprintf(out, "  ]%s\n", rep != nullptr ? "," : "");
  if (rep != nullptr) {
    std::fprintf(
        out,
        "  \"replicated\": {\n"
        "    \"replication_factor\": 3,\n"
        "    \"healthy_mb_s\": %.2f, \"healthy_sd\": %.2f,\n"
        "    \"degraded_mb_s\": %.2f, \"degraded_sd\": %.2f, "
        "\"degraded_relative\": %.3f,\n"
        "    \"healthy_read_p99_us\": %.1f, \"degraded_read_p99_us\": %.1f,\n"
        "    \"repair\": {\"stale\": %llu, \"repaired\": %llu, "
        "\"failed\": %llu, \"bytes_copied\": %llu},\n"
        "    \"audit\": {\"objects\": %llu, \"fully_replicated\": %llu, "
        "\"under_replicated\": %llu, \"stale_members\": %llu},\n"
        "    \"integrity_failures\": %llu,\n"
        "    \"client_metrics\": %s,\n"
        "    \"metrics\": %s\n"
        "  }\n",
        rep->healthy_mb_s, rep->healthy_sd, rep->degraded_mb_s,
        rep->degraded_sd, rep->degraded_relative, rep->healthy_read_p99_us,
        rep->degraded_read_p99_us,
        static_cast<unsigned long long>(rep->repair.stale_members),
        static_cast<unsigned long long>(rep->repair.repaired),
        static_cast<unsigned long long>(rep->repair.failed),
        static_cast<unsigned long long>(rep->repair.bytes_copied),
        static_cast<unsigned long long>(rep->audit.objects),
        static_cast<unsigned long long>(rep->audit.fully_replicated),
        static_cast<unsigned long long>(rep->audit.under_replicated),
        static_cast<unsigned long long>(rep->audit.stale_members),
        static_cast<unsigned long long>(rep->integrity_failures),
        rep->client_metrics.Json().c_str(),
        rep->deployment_metrics.Json().c_str());
  }
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote BENCH_fault.json\n");
}

/// Degraded-mode gates: no wrong bytes, the degraded path still moves data,
/// and heal + repair scan restored full replication.
bool ReplicatedGatesPass(const ReplicatedReport& r) {
  if (r.integrity_failures > 0) return false;
  if (r.degraded_mb_s <= 0) return false;
  if (r.repair.failed > 0) return false;
  if (r.audit.under_replicated > 0 || r.audit.stale_members > 0) return false;
  return r.audit.fully_replicated == r.audit.objects;
}

}  // namespace

int main(int argc, char** argv) {
  // `--replicated` runs only the degraded-mode replication suite (the CI
  // smoke gate); the default run does the drop sweep plus the suite.
  const bool replicated_only =
      argc > 1 && std::strcmp(argv[1], "--replicated") == 0;
  if (replicated_only) {
    auto rep = RunReplicated();
    if (!rep.ok()) {
      std::fprintf(stderr, "FAIL replicated suite: %s\n",
                   rep.status().ToString().c_str());
      return 1;
    }
    PrintReplicated(*rep);
    DumpJson({}, &*rep);
    if (!ReplicatedGatesPass(*rep)) {
      std::fprintf(stderr, "FAIL: degraded-mode gates not met\n");
      return 1;
    }
    return 0;
  }

  core::RuntimeOptions options;
  options.storage_servers = kStorageServers;
  // Short deadlines + a deep budget: a dropped message costs one quick
  // retransmission, so degradation stays proportional to the drop rate.
  options.client_options.default_timeout = std::chrono::milliseconds(20);
  options.client_options.max_retransmits = 10;
  auto runtime = core::ServiceRuntime::Start(options);
  if (!runtime.ok()) {
    std::fprintf(stderr, "runtime start failed: %s\n",
                 runtime.status().ToString().c_str());
    return 1;
  }
  (*runtime)->AddUser("bench", "pw", 1);

  bench::PrintHeader(
      "Fault degradation: dump throughput vs. injected drop rate "
      "(16 objects x 256 KiB, 4 servers)");
  std::printf("%10s  %12s %8s %9s %12s %10s %9s %10s\n", "drop", "MB/s", "(sd)",
              "relative", "retransmits", "dedup", "crc_rej", "integrity");

  std::vector<Point> points;
  for (double rate : kDropRates) {
    auto point = RunPoint(**runtime, rate);
    if (!point.ok()) {
      std::fprintf(stderr, "FAIL at drop=%.4f: %s\n", rate,
                   point.status().ToString().c_str());
      return 1;
    }
    points.push_back(*point);
    Point& p = points.back();
    p.relative = points.front().mean_mb_s > 0
                     ? p.mean_mb_s / points.front().mean_mb_s
                     : 0;
    std::printf("%9.2f%%  %12.1f %8.1f %9.3f %12llu %10llu %9llu %10llu%s\n",
                rate * 100, p.mean_mb_s, p.sd, p.relative,
                static_cast<unsigned long long>(p.retransmits),
                static_cast<unsigned long long>(p.dedup_hits),
                static_cast<unsigned long long>(p.crc_rejects),
                static_cast<unsigned long long>(p.integrity_failures),
                p.integrity_failures > 0 ? "  FAIL" : "");
  }

  std::printf(
      "\nEvery byte read back matched what was written at every drop rate;\n"
      "losses cost retransmissions of small messages, never data.\n");

  auto rep = RunReplicated();
  if (!rep.ok()) {
    std::fprintf(stderr, "FAIL replicated suite: %s\n",
                 rep.status().ToString().c_str());
    return 1;
  }
  PrintReplicated(*rep);
  DumpJson(points, &*rep);

  bool graceful = ReplicatedGatesPass(*rep);
  for (const Point& p : points) {
    if (p.integrity_failures > 0) graceful = false;
  }
  if (points.size() >= 2 && points.back().mean_mb_s <= 0) graceful = false;
  return graceful ? 0 : 1;
}

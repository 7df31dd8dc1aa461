// Figure 10 reproduction: creation throughput (ops/sec) vs. number of
// client processes.
//   (a) LWFS object creation vs. Lustre file creation at 16 servers
//       (the paper plots this on a log axis — 2 orders of magnitude apart)
//   (b) Lustre file creation for m = 2/4/8/16 (flat: the MDS is the limit)
//   (c) LWFS object creation for m = 2/4/8/16 (scales with m)
//
// `--shards` switches to the real-stack metadata-shard sweep (DESIGN.md
// §16): the full deployment runs on a virtual clock with the namespace
// partitioned over 1/2/4/8 naming shards, every create's naming op charged
// to the owning shard's busy-clock, and throughput computed from the
// busiest shard's makespan — the steady-state completion time with enough
// client concurrency to keep every shard fed.  Emits BENCH_shard.json and
// exits nonzero if 4 shards deliver less than kShardSpeedupGate x the
// 1-shard rate (the sharding regression gate; `--smoke` shrinks the
// workload to CI scale).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/runtime.h"
#include "simapps/checkpoint_sim.h"
#include "util/clock.h"

namespace {

using namespace lwfs;
using namespace lwfs::simapps;

constexpr int kServerCounts[] = {2, 4, 8, 16};
constexpr int kClientCounts[] = {1, 2, 4, 8, 16, 24, 32, 48, 64};
constexpr std::uint64_t kCreatesPerClient = 32;

double Rate(CheckpointKind kind, int n, int m, std::uint64_t seed) {
  return SimulateCreates(kind, ClusterParams::DevCluster(n, m),
                         kCreatesPerClient, seed)
      .ops_per_sec();
}

void PrintPerServerTable(const char* title, CheckpointKind kind) {
  bench::PrintHeader(title);
  std::printf("%8s", "clients");
  for (int m : kServerCounts) std::printf("  %8dsrv %7s", m, "(sd)");
  std::printf("\n");
  for (int n : kClientCounts) {
    std::printf("%8d", n);
    for (int m : kServerCounts) {
      auto stats = bench::OverTrials(
          [&](std::uint64_t seed) { return Rate(kind, n, m, seed); });
      std::printf("  %11.0f %7.0f", stats.mean(), stats.stddev());
    }
    std::printf("\n");
  }
}

// ---------------------------------------------------------------------------
// --shards: metadata-shard scaling sweep over the real stack
// ---------------------------------------------------------------------------

/// 4 shards must beat 1 shard by at least this factor (acceptance gate).
constexpr double kShardSpeedupGate = 1.6;
/// Modeled metadata service cost per naming op at the owning shard.
constexpr double kPerOpUs = 50.0;

struct ShardResult {
  std::uint32_t shards = 0;
  std::uint64_t creates = 0;
  double makespan_ms = 0;   // busiest shard's modeled busy time
  double ops_per_sec = 0;
  double balance = 0;       // mean shard busy time / max (1.0 = perfect)
  std::uint64_t wrong_shard_retries = 0;
};

Result<ShardResult> RunShardCount(std::uint32_t shards, std::uint64_t creates) {
  ShardResult r;
  r.shards = shards;
  r.creates = creates;

  // Per-shard busy-clock: every naming op the owning shard admits charges
  // kPerOpUs here.  The makespan (max over shards) models the completion
  // time of the whole create burst once client concurrency keeps each
  // shard's queue non-empty — the same steady-state model the simulated
  // tables use, but driven by the real routing/admission path.
  std::mutex busy_mutex;
  std::vector<double> busy_us(shards, 0.0);

  util::VirtualClock clock;
  util::Clock::ThreadGuard guard(&clock);
  core::RuntimeOptions options;
  options.storage_servers = 4;
  options.naming_shards = shards;
  options.clock = &clock;
  options.naming_op_delay = [&](std::uint32_t shard) {
    std::lock_guard<std::mutex> lock(busy_mutex);
    busy_us[shard] += kPerOpUs;
  };
  auto runtime = core::ServiceRuntime::Start(options);
  if (!runtime.ok()) return runtime.status();
  (*runtime)->AddUser("bench", "pw", 1);
  auto client = (*runtime)->MakeClient();
  auto cred = client->Login("bench", "pw");
  if (!cred.ok()) return cred.status();
  auto cid = client->CreateContainer(*cred);
  if (!cid.ok()) return cid.status();
  auto cap = client->GetCap(*cred, *cid, security::kOpAll);
  if (!cap.ok()) return cap.status();
  LWFS_RETURN_IF_ERROR(client->Mkdir("/ckpt"));

  {  // The directory fan-out is setup cost, not create cost.
    std::lock_guard<std::mutex> lock(busy_mutex);
    std::fill(busy_us.begin(), busy_us.end(), 0.0);
  }

  for (std::uint64_t i = 0; i < creates; ++i) {
    const std::uint32_t server =
        static_cast<std::uint32_t>(i % 4);  // storage_servers
    auto oid = client->CreateObject(server, *cap);
    if (!oid.ok()) return oid.status();
    LWFS_RETURN_IF_ERROR(
        client->LinkName("/ckpt/rank" + std::to_string(i),
                         storage::ObjectRef{*cid, server, *oid}));
  }

  double max_us = 0, total_us = 0;
  {
    std::lock_guard<std::mutex> lock(busy_mutex);
    for (double us : busy_us) {
      max_us = std::max(max_us, us);
      total_us += us;
    }
  }
  if (max_us <= 0) return Internal("no naming op was charged");
  r.makespan_ms = max_us / 1e3;
  r.ops_per_sec = static_cast<double>(creates) / (max_us / 1e6);
  r.balance = total_us / static_cast<double>(shards) / max_us;
  r.wrong_shard_retries =
      client->metrics()->Snapshot().Get("wrong_shard_retries");
  return r;
}

bool DumpShardJson(const std::vector<ShardResult>& results, double speedup4,
                   bool smoke) {
  std::FILE* out = std::fopen("BENCH_shard.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_shard.json\n");
    return false;
  }
  std::fprintf(out,
               "{\n"
               "  \"benchmark\": \"fig10_shard_sweep\",\n"
               "  \"smoke\": %s,\n"
               "  \"per_op_us\": %.1f,\n"
               "  \"speedup_gate_4_shards\": %.2f,\n"
               "  \"speedup_4_shards\": %.2f,\n"
               "  \"shards\": [\n",
               smoke ? "true" : "false", kPerOpUs, kShardSpeedupGate, speedup4);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ShardResult& r = results[i];
    std::fprintf(out,
                 "    {\n"
                 "      \"shards\": %u,\n"
                 "      \"creates\": %llu,\n"
                 "      \"makespan_ms\": %.3f,\n"
                 "      \"ops_per_sec\": %.0f,\n"
                 "      \"balance\": %.3f,\n"
                 "      \"wrong_shard_retries\": %llu\n"
                 "    }%s\n",
                 r.shards, static_cast<unsigned long long>(r.creates),
                 r.makespan_ms, r.ops_per_sec, r.balance,
                 static_cast<unsigned long long>(r.wrong_shard_retries),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote BENCH_shard.json\n");
  return true;
}

int RunShardSweep(bool smoke) {
  const std::vector<std::uint32_t> counts =
      smoke ? std::vector<std::uint32_t>{1, 2, 4}
            : std::vector<std::uint32_t>{1, 2, 4, 8};
  const std::uint64_t creates = smoke ? 256 : 2048;

  bench::PrintHeader("Metadata shard sweep: create throughput vs shards");
  std::printf("%8s %10s %12s %12s %9s %8s\n", "shards", "creates",
              "makespan ms", "ops/sec", "balance", "retries");

  std::vector<ShardResult> results;
  for (std::uint32_t s : counts) {
    auto r = RunShardCount(s, creates);
    if (!r.ok()) {
      std::fprintf(stderr, "shard sweep failed at %u shards: %s\n", s,
                   r.status().ToString().c_str());
      return 1;
    }
    std::printf("%8u %10llu %12.3f %12.0f %9.3f %8llu\n", r->shards,
                static_cast<unsigned long long>(r->creates), r->makespan_ms,
                r->ops_per_sec, r->balance,
                static_cast<unsigned long long>(r->wrong_shard_retries));
    results.push_back(*r);
  }

  double base = 0, four = 0;
  for (const ShardResult& r : results) {
    if (r.shards == 1) base = r.ops_per_sec;
    if (r.shards == 4) four = r.ops_per_sec;
  }
  const double speedup4 = base > 0 ? four / base : 0;
  std::printf("\n4-shard speedup over 1 shard: %.2fx (gate %.2fx)\n", speedup4,
              kShardSpeedupGate);
  if (!DumpShardJson(results, speedup4, smoke)) return 1;
  if (speedup4 < kShardSpeedupGate) {
    std::fprintf(stderr,
                 "FAIL: 4 naming shards deliver only %.2fx the 1-shard create "
                 "rate (gate %.2fx) — shard routing or balance regressed\n",
                 speedup4, kShardSpeedupGate);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool shards = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--shards") == 0) shards = true;
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  if (shards) return RunShardSweep(smoke);

  std::printf("Figure 10: file/object creation throughput (ops/sec),\n"
              "dev-cluster model, %llu creates per client.\n",
              static_cast<unsigned long long>(kCreatesPerClient));

  bench::PrintHeader(
      "(a) LWFS object creation vs. Lustre file creation, 16 servers");
  std::printf("%8s  %14s  %14s  %8s\n", "clients", "LWFS ops/s",
              "Lustre ops/s", "ratio");
  for (int n : kClientCounts) {
    auto lwfs_stats = lwfs::bench::OverTrials([&](std::uint64_t seed) {
      return Rate(CheckpointKind::kLwfsObjectPerProcess, n, 16, seed);
    });
    auto lustre_stats = lwfs::bench::OverTrials([&](std::uint64_t seed) {
      return Rate(CheckpointKind::kPfsFilePerProcess, n, 16, seed);
    });
    std::printf("%8d  %14.0f  %14.0f  %7.1fx\n", n, lwfs_stats.mean(),
                lustre_stats.mean(), lwfs_stats.mean() / lustre_stats.mean());
  }

  PrintPerServerTable("(b) Lustre file creation (per server count)",
                      CheckpointKind::kPfsFilePerProcess);
  PrintPerServerTable("(c) LWFS object creation (per server count)",
                      CheckpointKind::kLwfsObjectPerProcess);

  std::printf(
      "\nPaper shapes to check: Lustre creation is flat in the number of\n"
      "servers (every create serializes at the MDS, hundreds of ops/sec);\n"
      "LWFS creation is distributed and reaches tens of thousands of\n"
      "ops/sec at 16 servers (Figure 10, Section 4).\n");
  return 0;
}

// Figure 9 reproduction: checkpoint dump throughput (MB/s) vs. number of
// client processes, for 2/4/8/16 storage servers, for the three
// implementations (Lustre file-per-process, Lustre shared-file, LWFS
// object-per-process).  Each client dumps 512 MB, as in §4; every point is
// the mean of 5 jittered trials with its standard deviation.
//
// A second section sweeps the async-engine window of the *live* LWFS
// checkpoint (LwfsCheckpoint::Config::window) over {1, 2, 4, 8, 16} on the
// in-process runtime and emits BENCH_fig9.json: window=1 degenerates to
// the old serial round-trip behaviour, wider windows keep every storage
// server busy, which is the overlap Figure 9's LWFS curves depend on.
// `--virtual` skips the analytic series and runs the live window sweep on
// a VirtualClock: the modeled medium charges virtual time, sleeps cost no
// wall-clock, and repeated trials of one window are bit-identical (sd 0).
// Results land in BENCH_fig9_virtual.json instead of BENCH_fig9.json.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "checkpoint/checkpoint.h"
#include "core/runtime.h"
#include "simapps/checkpoint_sim.h"
#include "util/clock.h"
#include "util/machines.h"

namespace {

using namespace lwfs;
using namespace lwfs::simapps;

constexpr int kServerCounts[] = {2, 4, 8, 16};
constexpr int kClientCounts[] = {1, 2, 4, 8, 16, 24, 32, 48, 64};

void PrintSeries(const char* title, CheckpointKind kind) {
  bench::PrintHeader(title);
  std::printf("%8s", "clients");
  for (int m : kServerCounts) std::printf("  %8dsrv %7s", m, "(sd)");
  std::printf("\n");
  const std::uint64_t bytes = DevCluster().bytes_per_client;
  for (int n : kClientCounts) {
    std::printf("%8d", n);
    for (int m : kServerCounts) {
      auto stats = bench::OverTrials([&](std::uint64_t seed) {
        return SimulateCheckpoint(kind, ClusterParams::DevCluster(n, m), bytes,
                                  seed)
            .throughput_mb_s();
      });
      std::printf("  %11.1f %7.1f", stats.mean(), stats.stddev());
    }
    std::printf("\n");
  }
}

struct SweepPoint {
  std::uint32_t window = 0;
  double mean_mb_s = 0;
  double sd = 0;
  // Server-side scheduler activity across all trials of this window: how
  // many extents the storage servers queued, how many merged runs they
  // became, and the merge count (see DESIGN.md "Server-directed
  // scheduling").
  std::uint64_t sched_requests = 0;
  std::uint64_t sched_runs = 0;
  std::uint64_t sched_merges = 0;
  std::uint64_t sched_coalesced_bytes = 0;
  // Robustness ledger for the same trials (see DESIGN.md "Fault model"):
  // requests served, retransmits absorbed by the reply cache, and frames
  // dropped for failing their wire checksum.  On a healthy in-process
  // fabric the last two stay zero — recorded so a regression that starts
  // silently retransmitting shows up in the numbers.
  std::uint64_t rpc_served = 0;
  std::uint64_t rpc_dedup_hits = 0;
  std::uint64_t rpc_crc_drops = 0;
};

struct SweepResult {
  std::vector<SweepPoint> points;
  // The deployment's metrics over the whole sweep (warm-up included); the
  // per-op rows below read every dispatch it served (DESIGN.md §11).
  metrics::Snapshot metrics;
};

/// One op's cells summed over every endpoint of one service.
struct OpRow {
  std::string name;  // "<service>.<op>", or "<service>.<plane>.<op>"
  std::uint64_t calls = 0, errors = 0, rejected = 0, denied = 0;
  std::uint64_t bulk_bytes = 0;
  metrics::Distribution latency_us;
};

/// Every op of the snapshot, found by its latency histogram
/// (`<service>[.<index>].<plane>.<op>.latency_us`), in name order.
std::vector<OpRow> OpRows(const metrics::Snapshot& snap) {
  std::map<std::string, OpRow> rows;
  for (const auto& [name, value] : snap.cells()) {
    if (value.kind != metrics::Kind::kHistogram) continue;
    std::vector<std::string> seg;
    for (std::size_t at = 0, dot; at <= name.size(); at = dot + 1) {
      dot = std::min(name.find('.', at), name.size());
      seg.push_back(name.substr(at, dot - at));
    }
    if (seg.size() < 4 || seg.back() != "latency_us") continue;
    const std::string& plane = seg[seg.size() - 3];
    const std::string& op = seg[seg.size() - 2];
    const std::string key =
        seg[0] + "." + (plane == "op" ? "" : plane + ".") + op;
    if (rows.contains(key)) continue;
    const std::string cells = seg[0] + ".**." + plane + "." + op + ".";
    OpRow& row = rows[key];
    row.name = key;
    row.calls = snap.Sum(cells + "calls");
    row.errors = snap.Sum(cells + "errors");
    row.rejected = snap.Sum(cells + "rejected");
    row.denied = snap.Sum(cells + "denied");
    row.bulk_bytes = snap.Sum(cells + "bulk_bytes");
    row.latency_us = snap.Total(cells + "latency_us").dist;
  }
  std::vector<OpRow> out;
  for (auto& [key, row] : rows) out.push_back(std::move(row));
  return out;
}

/// Sweep Config::window on the live in-process stack: 64 ranks of 512 KiB
/// each on 4 storage servers whose data path is charged the modeled
/// ~400 MB/s medium bandwidth (in-process memcpy would otherwise hide the
/// service time the window is meant to overlap).  5 trials per window
/// after a discarded warm-up checkpoint.
SweepResult RunWindowSweep(util::Clock* clock = nullptr, int trials = 5) {
  constexpr std::uint32_t kRanks = 64;
  constexpr std::size_t kStateBytes = 512 << 10;
  constexpr std::uint32_t kWindows[] = {1, 2, 4, 8, 16};
  const int kTrials = trials;

  core::RuntimeOptions options;
  options.storage_servers = 4;
  options.storage.worker_threads = 2;
  options.storage.modeled_disk_mb_s = 400;
  options.clock = clock;
  auto runtime = core::ServiceRuntime::Start(options);
  if (!runtime.ok()) {
    std::fprintf(stderr, "runtime start failed: %s\n",
                 runtime.status().ToString().c_str());
    return {};
  }
  (*runtime)->AddUser("bench", "pw", 1);
  auto client = (*runtime)->MakeClient();
  auto cred = client->Login("bench", "pw");
  if (!cred.ok()) return {};
  auto cid = client->CreateContainer(*cred);
  auto cap = cid.ok() ? client->GetCap(*cred, *cid, security::kOpAll)
                      : Result<security::Capability>(cid.status());
  if (!cap.ok() || !client->Mkdir("/fig9", true).ok()) return {};

  std::vector<Buffer> states;
  states.reserve(kRanks);
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    states.push_back(PatternBuffer(kStateBytes, r));
  }

  int trial_id = 0;
  {
    checkpoint::LwfsCheckpoint::Config warm;
    warm.path = "/fig9/warmup";
    warm.cid = *cid;
    warm.cap = *cap;
    auto run = checkpoint::LwfsCheckpoint::Run(**runtime, warm, states);
    if (!run.ok()) return {};
  }
  // Interleave the trials (trial-major, window-minor) so drift in the host
  // spreads evenly over every window instead of biasing whichever window
  // happened to run last.
  constexpr std::size_t kNumWindows = std::size(kWindows);
  std::vector<RunningStats> stats(kNumWindows);
  std::vector<SweepPoint> points(kNumWindows);
  for (int t = 0; t < kTrials; ++t) {
    for (std::size_t w = 0; w < kNumWindows; ++w) {
      checkpoint::LwfsCheckpoint::Config config;
      config.path = "/fig9/ckpt" + std::to_string(trial_id++);
      config.cid = *cid;
      config.cap = *cap;
      config.window = kWindows[w];
      const metrics::Snapshot before = (*runtime)->metrics()->Snapshot();
      auto run = checkpoint::LwfsCheckpoint::Run(**runtime, config, states);
      if (!run.ok()) {
        std::fprintf(stderr, "checkpoint failed: %s\n",
                     run.status().ToString().c_str());
        return {};
      }
      stats[w].Add(run->throughput_mb_s());
      const metrics::Snapshot after = (*runtime)->metrics()->Snapshot();
      auto delta = [&](std::string_view cell) {
        return after.Sum(cell) - before.Sum(cell);
      };
      points[w].sched_requests += delta("storage.*.sched.requests");
      points[w].sched_runs += delta("storage.*.sched.runs");
      points[w].sched_merges += delta("storage.*.sched.merges");
      points[w].sched_coalesced_bytes +=
          delta("storage.*.sched.coalesced_bytes");
      points[w].rpc_served += delta("**.rpc.**.served");
      points[w].rpc_dedup_hits += delta("**.rpc.**.dedup_hits");
      points[w].rpc_crc_drops += delta("**.rpc.**.crc_drops");
    }
  }
  for (std::size_t w = 0; w < kNumWindows; ++w) {
    points[w].window = kWindows[w];
    points[w].mean_mb_s = stats[w].mean();
    points[w].sd = stats[w].stddev();
  }
  return SweepResult{std::move(points), (*runtime)->metrics()->Snapshot()};
}

void PrintAndDumpSweep(const SweepResult& sweep,
                       const char* json_path = "BENCH_fig9.json") {
  const std::vector<SweepPoint>& points = sweep.points;
  bench::PrintHeader(
      "Async-engine window sweep (live LWFS checkpoint, 64 ranks x 512 KiB, "
      "4 servers)");
  std::printf("%8s  %12s %8s %10s %8s %8s\n", "window", "MB/s", "(sd)",
              "extents", "runs", "merges");
  for (const SweepPoint& p : points) {
    std::printf("%8u  %12.1f %8.1f %10llu %8llu %8llu\n", p.window,
                p.mean_mb_s, p.sd,
                static_cast<unsigned long long>(p.sched_requests),
                static_cast<unsigned long long>(p.sched_runs),
                static_cast<unsigned long long>(p.sched_merges));
  }
  std::printf("\nwindow=1 serializes every round trip; window>=4 keeps all\n"
              "four storage servers pulling concurrently.\n");

  std::FILE* out = std::fopen(json_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return;
  }
  std::fprintf(out,
               "{\n"
               "  \"figure\": \"fig9\",\n"
               "  \"benchmark\": \"lwfs_checkpoint_window_sweep\",\n"
               "  \"ranks\": 64,\n"
               "  \"state_bytes\": %zu,\n"
               "  \"storage_servers\": 4,\n"
               "  \"points\": [\n",
               static_cast<std::size_t>(512 << 10));
  for (std::size_t i = 0; i < points.size(); ++i) {
    std::fprintf(
        out,
        "    {\"window\": %u, \"mb_per_s\": %.2f, \"sd\": %.2f, "
        "\"sched_requests\": %llu, \"sched_runs\": %llu, "
        "\"sched_merges\": %llu, \"sched_coalesced_bytes\": %llu, "
        "\"rpc_served\": %llu, \"rpc_dedup_hits\": %llu, "
        "\"rpc_crc_drops\": %llu}%s\n",
        points[i].window, points[i].mean_mb_s, points[i].sd,
        static_cast<unsigned long long>(points[i].sched_requests),
        static_cast<unsigned long long>(points[i].sched_runs),
        static_cast<unsigned long long>(points[i].sched_merges),
        static_cast<unsigned long long>(points[i].sched_coalesced_bytes),
        static_cast<unsigned long long>(points[i].rpc_served),
        static_cast<unsigned long long>(points[i].rpc_dedup_hits),
        static_cast<unsigned long long>(points[i].rpc_crc_drops),
        i + 1 < points.size() ? "," : "");
  }
  const std::vector<OpRow> ops = OpRows(sweep.metrics);
  std::fprintf(out, "  ],\n  \"op_stats\": [\n");
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const OpRow& s = ops[i];
    std::fprintf(
        out,
        "    {\"op\": \"%s\", \"calls\": %llu, \"errors\": %llu, "
        "\"rejected\": %llu, \"denied\": %llu, \"latency_us_total\": %llu, "
        "\"latency_us_max\": %llu, \"latency_us_p50\": %llu, "
        "\"latency_us_p99\": %llu, \"latency_us_p999\": %llu, "
        "\"bulk_bytes\": %llu}%s\n",
        s.name.c_str(), static_cast<unsigned long long>(s.calls),
        static_cast<unsigned long long>(s.errors),
        static_cast<unsigned long long>(s.rejected),
        static_cast<unsigned long long>(s.denied),
        static_cast<unsigned long long>(s.latency_us.sum),
        static_cast<unsigned long long>(s.latency_us.max),
        static_cast<unsigned long long>(s.latency_us.Quantile(0.50)),
        static_cast<unsigned long long>(s.latency_us.Quantile(0.99)),
        static_cast<unsigned long long>(s.latency_us.Quantile(0.999)),
        static_cast<unsigned long long>(s.bulk_bytes),
        i + 1 < ops.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", json_path);

  bench::PrintHeader("Per-op service metrics (whole sweep)");
  std::printf("%-28s %10s %8s %10s %8s %8s %8s %12s\n", "op", "calls",
              "errors", "avg_us", "p50_us", "p99_us", "p999_us", "bulk_bytes");
  for (const OpRow& s : ops) {
    const double avg_us =
        s.calls > 0 ? static_cast<double>(s.latency_us.sum) /
                          static_cast<double>(s.calls)
                    : 0.0;
    std::printf("%-28s %10llu %8llu %10.1f %8llu %8llu %8llu %12llu\n",
                s.name.c_str(), static_cast<unsigned long long>(s.calls),
                static_cast<unsigned long long>(s.errors), avg_us,
                static_cast<unsigned long long>(s.latency_us.Quantile(0.50)),
                static_cast<unsigned long long>(s.latency_us.Quantile(0.99)),
                static_cast<unsigned long long>(s.latency_us.Quantile(0.999)),
                static_cast<unsigned long long>(s.bulk_bytes));
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--virtual") == 0) {
    std::printf("Figure 9 window sweep on virtual time: modeled medium,\n"
                "zero wall-clock sleeps, repeated trials bit-identical.\n");
    util::VirtualClock vclock;
    {
      util::Clock::ThreadGuard guard(&vclock);
      PrintAndDumpSweep(RunWindowSweep(&vclock, /*trials=*/2),
                        "BENCH_fig9_virtual.json");
    }
    return 0;
  }
  std::printf("Figure 9: throughput (MB/s) of the I/O-dump phase of the\n"
              "checkpoint operation, 512 MB per client, dev-cluster model.\n");
  PrintSeries("Lustre checkpoint performance (one file per process)",
              CheckpointKind::kPfsFilePerProcess);
  PrintSeries("Lustre checkpoint performance (one shared file)",
              CheckpointKind::kPfsSharedFile);
  PrintSeries("LWFS checkpoint performance (one object per process)",
              CheckpointKind::kLwfsObjectPerProcess);
  std::printf(
      "\nPaper shapes to check: file-per-process and LWFS scale with the\n"
      "number of servers and saturate near m x 95 MB/s; the shared-file\n"
      "curve sits at roughly half of them (Figure 9, Section 4).\n");
  PrintAndDumpSweep(RunWindowSweep());
  return 0;
}

// Server-side I/O scheduler ablation: strided-small-write and
// interleaved-read workloads against the modeled medium
// (modeled_disk_mb_s + modeled_op_latency_us), scheduler off vs on.
//
// With the scheduler off every extent is serviced in arrival order and
// pays its own op (seek) cost; with it on, extents that queue behind a
// busy medium are merged into contiguous runs and serviced in offset
// order, so the op cost amortizes over the whole run — the
// noncontiguous-I/O win, executed where the paper says it belongs: at the
// server that directs the I/O.  Emits BENCH_sched.json.
//
// `--smoke` runs a seconds-scale configuration for sanitizer CI.
//
// `--virtual` runs the strided-write comparison once on the real clock and
// twice on a VirtualClock (same modeled medium, zero wall-clock sleeps),
// checks the two virtual runs are bit-identical, and emits
// BENCH_virtual.json with the modeled throughput and the wall-clock
// speedup of virtual over real.  Exits nonzero if the virtual runs differ.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/runtime.h"
#include "util/clock.h"
#include "util/stats.h"

namespace {

using namespace lwfs;

struct Params {
  std::uint32_t threads = 4;
  std::uint32_t window = 8;
  std::uint32_t extents_per_thread = 192;
  std::size_t extent_bytes = 4096;
  double disk_mb_s = 400;
  double op_latency_us = 200;
  int trials = 3;
  util::Clock* clock = nullptr;  // nullptr = real time
};

struct WorkloadResult {
  double mb_s = 0;
  metrics::Snapshot metrics;  // the deployment's, at the end of the run
};

/// The storage servers' scheduler cells of a deployment snapshot.
struct SchedCells {
  explicit SchedCells(const metrics::Snapshot& snap)
      : requests(snap.Sum("storage.*.sched.requests")),
        runs(snap.Sum("storage.*.sched.runs")),
        merges(snap.Sum("storage.*.sched.merges")),
        coalesced_bytes(snap.Sum("storage.*.sched.coalesced_bytes")),
        queue_depth_hwm(snap.Total("storage.*.sched.queue_depth").high_water) {}
  unsigned long long requests, runs, merges, coalesced_bytes, queue_depth_hwm;
};

core::RuntimeOptions MakeOptions(bool scheduler_on, const Params& p) {
  core::RuntimeOptions options;
  options.storage_servers = 1;
  options.storage.scheduler = scheduler_on;
  // Enough data-plane workers that every client-side in-flight request can
  // be in service at once — the scheduler's batches (and so its merges) can
  // only be as deep as the number of concurrently blocked workers.
  options.storage.worker_threads = 16;
  options.storage.modeled_disk_mb_s = p.disk_mb_s;
  options.storage.modeled_op_latency_us = p.op_latency_us;
  options.clock = p.clock;
  return options;
}

/// Strided small writes: `threads` clients interleave 4 KiB extents into
/// one object (consecutive offsets belong to different clients), each
/// keeping `window` requests in flight.  Only server-side coalescing can
/// turn this into large contiguous accesses.
WorkloadResult RunStridedWrite(bool scheduler_on, const Params& p) {
  auto runtime = core::ServiceRuntime::Start(MakeOptions(scheduler_on, p)).value();
  runtime->AddUser("bench", "pw", 1);
  auto client = runtime->MakeClient();
  auto cred = client->Login("bench", "pw").value();
  auto cid = client->CreateContainer(cred).value();
  auto cap = client->GetCap(cred, cid, security::kOpAll).value();
  auto oid = client->CreateObject(0, cap).value();

  util::Clock* clk = util::OrReal(p.clock);
  const util::Clock::TimePoint start = clk->Now();
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < p.threads; ++t) {
    threads.push_back(clk->SpawnThread([&, t] {
      auto worker = runtime->MakeClient();
      const Buffer payload(p.extent_bytes, static_cast<std::uint8_t>(t + 1));
      core::Batch batch(worker.get(), p.window);
      for (std::uint32_t i = 0; i < p.extents_per_thread; ++i) {
        const std::uint64_t offset =
            (static_cast<std::uint64_t>(i) * p.threads + t) * p.extent_bytes;
        if (!batch.Write(0, cap, oid,
                         {{offset, util::SharedSlice::External(payload)}})
                 .ok()) {
          return;
        }
      }
      (void)batch.Drain();
    }));
  }
  for (auto& t : threads) clk->Join(t);
  const std::chrono::duration<double> elapsed = clk->Now() - start;

  WorkloadResult result;
  const double total_mb = static_cast<double>(p.threads) *
                          p.extents_per_thread * p.extent_bytes / 1e6;
  result.mb_s = total_mb / elapsed.count();
  result.metrics = runtime->metrics()->Snapshot();
  return result;
}

/// Interleaved strided reads over a pre-populated object, same issue
/// pattern as the write workload.
WorkloadResult RunInterleavedRead(bool scheduler_on, const Params& p) {
  auto runtime = core::ServiceRuntime::Start(MakeOptions(scheduler_on, p)).value();
  runtime->AddUser("bench", "pw", 1);
  auto client = runtime->MakeClient();
  auto cred = client->Login("bench", "pw").value();
  auto cid = client->CreateContainer(cred).value();
  auto cap = client->GetCap(cred, cid, security::kOpAll).value();
  auto oid = client->CreateObject(0, cap).value();

  // Populate with large sequential writes (cheap in modeled op cost), then
  // zero the deployment's metrics so every cell — including the otherwise
  // monotonic queue-depth high-water mark — reflects only the measured read
  // phase.
  const std::uint64_t total_bytes = static_cast<std::uint64_t>(p.threads) *
                                    p.extents_per_thread * p.extent_bytes;
  {
    const Buffer fill = PatternBuffer(1 << 20, 99);
    for (std::uint64_t at = 0; at < total_bytes; at += fill.size()) {
      const std::uint64_t n =
          std::min<std::uint64_t>(fill.size(), total_bytes - at);
      if (!client->WriteObject(0, cap, oid, at,
                               ByteSpan(fill.data(), static_cast<std::size_t>(n)))
               .ok()) {
        std::fprintf(stderr, "populate failed\n");
        return {};
      }
    }
  }
  runtime->metrics()->Reset();

  util::Clock* clk = util::OrReal(p.clock);
  const util::Clock::TimePoint start = clk->Now();
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < p.threads; ++t) {
    threads.push_back(clk->SpawnThread([&, t] {
      auto worker = runtime->MakeClient();
      std::vector<Buffer> slots(p.window, Buffer(p.extent_bytes, 0));
      core::Batch batch(worker.get(), p.window);
      for (std::uint32_t i = 0; i < p.extents_per_thread; ++i) {
        const std::uint64_t offset =
            (static_cast<std::uint64_t>(i) * p.threads + t) * p.extent_bytes;
        Buffer& slot = slots[i % p.window];
        if (!batch.Read(0, cap, oid,
                        {{offset, slot.size(), MutableByteSpan(slot)}})
                 .ok()) {
          return;
        }
      }
      (void)batch.Drain();
    }));
  }
  for (auto& t : threads) clk->Join(t);
  const std::chrono::duration<double> elapsed = clk->Now() - start;

  WorkloadResult result;
  result.mb_s = static_cast<double>(total_bytes) / 1e6 / elapsed.count();
  result.metrics = runtime->metrics()->Snapshot();
  return result;
}

struct Comparison {
  const char* name;
  double off_mb_s = 0;
  double on_mb_s = 0;
  metrics::Snapshot metrics;  // scheduler-on deployment, last trial

  [[nodiscard]] double speedup() const {
    return off_mb_s > 0 ? on_mb_s / off_mb_s : 0;
  }
};

template <typename Fn>
Comparison Compare(const char* name, Fn workload, const Params& p) {
  Comparison c;
  c.name = name;
  RunningStats off_stats, on_stats;
  for (int trial = 0; trial < p.trials; ++trial) {
    off_stats.Add(workload(false, p).mb_s);
    WorkloadResult on = workload(true, p);
    on_stats.Add(on.mb_s);
    c.metrics = std::move(on.metrics);
  }
  c.off_mb_s = off_stats.mean();
  c.on_mb_s = on_stats.mean();
  return c;
}

void PrintComparison(const Comparison& c) {
  const SchedCells sched(c.metrics);
  bench::PrintHeader(c.name);
  std::printf("%16s %12.1f MB/s\n", "scheduler off", c.off_mb_s);
  std::printf("%16s %12.1f MB/s\n", "scheduler on", c.on_mb_s);
  std::printf("%16s %12.2fx\n", "speedup", c.speedup());
  std::printf("%16s %12llu extents -> %llu runs (%llu merges, %.1f MB "
              "coalesced, queue hwm %llu)\n",
              "on-run stats", sched.requests, sched.runs, sched.merges,
              static_cast<double>(sched.coalesced_bytes) / 1e6,
              sched.queue_depth_hwm);
}

void DumpJson(const Params& p, const std::vector<Comparison>& comparisons) {
  std::FILE* out = std::fopen("BENCH_sched.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_sched.json\n");
    return;
  }
  std::fprintf(out,
               "{\n"
               "  \"benchmark\": \"server_io_scheduler\",\n"
               "  \"threads\": %u,\n"
               "  \"window\": %u,\n"
               "  \"extents_per_thread\": %u,\n"
               "  \"extent_bytes\": %zu,\n"
               "  \"modeled_disk_mb_s\": %.1f,\n"
               "  \"modeled_op_latency_us\": %.1f,\n"
               "  \"workloads\": [\n",
               p.threads, p.window, p.extents_per_thread, p.extent_bytes,
               p.disk_mb_s, p.op_latency_us);
  for (std::size_t i = 0; i < comparisons.size(); ++i) {
    const Comparison& c = comparisons[i];
    const SchedCells sched(c.metrics);
    std::fprintf(
        out,
        "    {\"name\": \"%s\", \"off_mb_s\": %.2f, \"on_mb_s\": %.2f, "
        "\"speedup\": %.3f, \"requests\": %llu, \"runs\": %llu, "
        "\"merges\": %llu, \"coalesced_bytes\": %llu, "
        "\"queue_depth_hwm\": %llu,\n     \"metrics\": %s}%s\n",
        c.name, c.off_mb_s, c.on_mb_s, c.speedup(), sched.requests,
        sched.runs, sched.merges, sched.coalesced_bytes, sched.queue_depth_hwm,
        c.metrics.Json().c_str(), i + 1 < comparisons.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote BENCH_sched.json\n");
}

// ---------------------------------------------------------------------------
// --virtual: modeled benches on a VirtualClock
// ---------------------------------------------------------------------------

/// One off/on strided-write comparison with no trial averaging — the unit
/// of work timed identically on the real clock and on a VirtualClock.
Comparison RunPairOnce(const Params& p) {
  Comparison c;
  c.name = "strided-small-write (4 KiB interleaved, one object)";
  c.off_mb_s = RunStridedWrite(false, p).mb_s;
  WorkloadResult on = RunStridedWrite(true, p);
  c.on_mb_s = on.mb_s;
  c.metrics = std::move(on.metrics);
  return c;
}

double WallSecondsSince(util::Clock::TimePoint t0) {
  return std::chrono::duration<double>(util::RealClockInstance()->Now() - t0)
      .count();
}

int RunVirtualMode(Params p) {
  // A slower modeled medium makes the real baseline pay its sleeps for
  // real while the virtual runs skip them — that gap is the point.
  p.op_latency_us = 1000;
  std::printf("Virtual-time mode: strided-write off/on pair, once on the\n"
              "real clock and twice on a VirtualClock (modeled medium\n"
              "%.0f MB/s, %.0f us per access).\n",
              p.disk_mb_s, p.op_latency_us);

  const auto real_t0 = util::RealClockInstance()->Now();
  const Comparison real = RunPairOnce(p);
  const double real_wall_s = WallSecondsSince(real_t0);
  bench::PrintHeader("real clock");
  PrintComparison(real);
  std::printf("%16s %12.3f s\n", "wall clock", real_wall_s);

  Comparison virt[2];
  double virt_wall_s[2] = {0, 0};
  for (int rep = 0; rep < 2; ++rep) {
    util::VirtualClock vclock;
    const auto t0 = util::RealClockInstance()->Now();
    {
      util::Clock::ThreadGuard guard(&vclock);
      Params vp = p;
      vp.clock = &vclock;
      virt[rep] = RunPairOnce(vp);
    }
    virt_wall_s[rep] = WallSecondsSince(t0);
    bench::PrintHeader(rep == 0 ? "virtual clock, run 1"
                                : "virtual clock, run 2");
    PrintComparison(virt[rep]);
    std::printf("%16s %12.3f s\n", "wall clock", virt_wall_s[rep]);
  }

  // Modeled time is deterministic: both virtual runs must agree on every
  // derived number and every metrics cell, bit for bit.
  const bool deterministic = virt[0].off_mb_s == virt[1].off_mb_s &&
                             virt[0].on_mb_s == virt[1].on_mb_s &&
                             virt[0].metrics.Json() == virt[1].metrics.Json();
  const double slowest_virtual =
      virt_wall_s[0] > virt_wall_s[1] ? virt_wall_s[0] : virt_wall_s[1];
  const double wall_speedup =
      slowest_virtual > 0 ? real_wall_s / slowest_virtual : 0;

  std::printf("\nvirtual runs identical: %s\n",
              deterministic ? "yes" : "NO — nondeterminism!");
  std::printf("wall-clock speedup (real / slowest virtual): %.1fx\n",
              wall_speedup);

  std::FILE* out = std::fopen("BENCH_virtual.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_virtual.json\n");
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"benchmark\": \"virtual_time_server_sched\",\n"
               "  \"workload\": \"strided-small-write\",\n"
               "  \"threads\": %u,\n"
               "  \"extents_per_thread\": %u,\n"
               "  \"extent_bytes\": %zu,\n"
               "  \"modeled_disk_mb_s\": %.1f,\n"
               "  \"modeled_op_latency_us\": %.1f,\n"
               "  \"real\": {\"wall_s\": %.4f, \"off_mb_s\": %.2f, "
               "\"on_mb_s\": %.2f},\n"
               "  \"virtual\": [\n",
               p.threads, p.extents_per_thread, p.extent_bytes, p.disk_mb_s,
               p.op_latency_us, real_wall_s, real.off_mb_s, real.on_mb_s);
  for (int rep = 0; rep < 2; ++rep) {
    const SchedCells sched(virt[rep].metrics);
    std::fprintf(out,
                 "    {\"wall_s\": %.4f, \"off_mb_s\": %.2f, "
                 "\"on_mb_s\": %.2f, \"requests\": %llu, \"runs\": %llu, "
                 "\"merges\": %llu,\n     \"metrics\": %s}%s\n",
                 virt_wall_s[rep], virt[rep].off_mb_s, virt[rep].on_mb_s,
                 sched.requests, sched.runs, sched.merges,
                 virt[rep].metrics.Json().c_str(), rep == 0 ? "," : "");
  }
  std::fprintf(out,
               "  ],\n"
               "  \"deterministic\": %s,\n"
               "  \"wall_speedup\": %.2f\n"
               "}\n",
               deterministic ? "true" : "false", wall_speedup);
  std::fclose(out);
  std::printf("wrote BENCH_virtual.json\n");
  return deterministic ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Params p;
  if (argc > 1 && std::strcmp(argv[1], "--virtual") == 0) {
    return RunVirtualMode(p);
  }
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  if (smoke) {
    p.extents_per_thread = 24;
    p.op_latency_us = 50;
    p.trials = 1;
  }
  std::printf("Server-side I/O scheduler: extent coalescing + elevator vs "
              "per-request FIFO,\nmodeled medium %.0f MB/s with %.0f us per "
              "access.%s\n",
              p.disk_mb_s, p.op_latency_us, smoke ? "  (smoke)" : "");

  std::vector<Comparison> comparisons;
  comparisons.push_back(
      Compare("strided-small-write (4 KiB interleaved, one object)",
              RunStridedWrite, p));
  PrintComparison(comparisons.back());
  comparisons.push_back(Compare(
      "interleaved-read (4 KiB strided over a warm object)",
      RunInterleavedRead, p));
  PrintComparison(comparisons.back());
  DumpJson(p, comparisons);

  std::printf("\nThe off configuration charges the medium one op per extent\n"
              "in arrival order; on merges queued extents per object and\n"
              "pays one op per contiguous run — the >= 1.5x acceptance bar\n"
              "applies to the strided-small-write row.\n");
  return 0;
}

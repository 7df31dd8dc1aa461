// Petascale harness: Figures 9 and 10 at petaflop-machine client counts.
//
// The paper's scaling argument (§5) extrapolates LWFS to a machine with
// ~100k–1M clients and ~2k storage servers.  petaflop_extrapolation does
// that analytically; this bench *runs* it: every client is a
// checkpoint::WritePipeline state machine (authenticate → create → stream
// → done) driven by a small carrier pool (driver::Engine) over the live
// RPC stack — one process, 100k+ logical clients, no thread per client.
//
//  * Figure 9 shape: dump throughput vs. the per-client chunk window
//    {1, 2, 4}, every client streaming a small state payload.
//  * Figure 10 shape: create-only throughput; storage servers charge the
//    modeled ~0.25 ms create cost (≈4k creates/s/server, EXPERIMENTS.md).
//
// Under --virtual the whole stack runs on a VirtualClock: modeled service
// time costs no wall-clock and a run is bit-reproducible — --selfcheck
// runs the sweep twice from the same seed on fresh deployments and
// compares digests.  The null object store keeps per-object cost to an
// attribute record, which is what bounds peak RSS at the million scale.
//
// Results land in BENCH_petascale.json (modeled throughput, peak RSS,
// logical clients per carrier, digest).
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "checkpoint/write_pipeline.h"
#include "core/runtime.h"
#include "driver/driver.h"
#include "util/clock.h"

namespace {

using namespace lwfs;

struct Options {
  std::uint64_t clients = 100000;
  int servers = 2000;
  std::size_t carriers = 4;
  std::uint64_t seed = 1;
  std::uint64_t payload_bytes = 4096;
  std::uint64_t chunk_bytes = 1024;
  bool use_virtual = false;
  bool selfcheck = false;
};

constexpr std::uint32_t kWindows[] = {1, 2, 4};
constexpr std::size_t kCarrierInflight = 1024;

struct Point {
  std::uint32_t window = 0;  // 0 = the create-only (Figure 10) point
  double seconds = 0;        // virtual (or wall) engine time
  double mb_per_s = 0;
  std::uint64_t done = 0;
  std::uint64_t failed = 0;
  std::uint64_t polls = 0;
  std::uint64_t completion_wakes = 0;
};

struct RunResult {
  bool ok = false;
  std::vector<Point> fig9;
  Point fig10;
  double creates_per_s = 0;
  std::uint64_t clients_per_carrier = 0;
  std::uint64_t digest = 0xCBF29CE484222325ULL;  // FNV-1a basis
};

/// FNV-1a over the 8 bytes of `v` — the determinism digest accumulates
/// only integer quantities (virtual nanoseconds and counters), never
/// doubles or wall-clock readings.
void Mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
}

std::uint64_t PeakRssKb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtoull(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

/// One engine pass: `opt.clients` WritePipelines sharded over
/// `opt.carriers` client endpoints.  window == 0 means create-only.
bool RunPoint(const Options& opt, core::ServiceRuntime& runtime,
              const std::vector<std::unique_ptr<core::Client>>& shards,
              const security::Capability& cap, ByteSpan payload,
              std::uint32_t window, RunResult& out, Point& point) {
  driver::EngineOptions eng;
  eng.carriers = opt.carriers;
  eng.seed = opt.seed;
  eng.max_inflight_per_carrier = kCarrierInflight;
  eng.clock = runtime.clock();
  driver::Engine engine(eng);
  for (std::uint64_t c = 0; c < opt.clients; ++c) {
    checkpoint::WritePipeline::Spec spec;
    spec.client = shards[c % shards.size()].get();
    spec.server = static_cast<std::uint32_t>(c % opt.servers);
    spec.cap = cap;
    spec.payload = util::SharedSlice::External(payload);
    spec.chunk_bytes = opt.chunk_bytes;
    spec.window = window == 0 ? 1 : window;
    spec.create_only = window == 0;
    engine.Add(std::make_unique<checkpoint::WritePipeline>(std::move(spec)));
  }

  util::Clock* clock = runtime.clock();
  const util::Clock::TimePoint t0 = clock->Now();
  const Status status = engine.Run();
  const util::Clock::TimePoint t1 = clock->Now();
  if (!status.ok()) {
    std::fprintf(stderr, "engine run failed: %s\n", status.ToString().c_str());
    return false;
  }

  const driver::EngineStats stats = engine.stats();
  const auto elapsed_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  point.window = window;
  point.seconds = static_cast<double>(elapsed_ns) / 1e9;
  point.done = stats.done;
  point.failed = stats.failed;
  point.polls = stats.polls;
  point.completion_wakes = stats.completion_wakes;
  if (window != 0 && point.seconds > 0) {
    point.mb_per_s = static_cast<double>(opt.clients * opt.payload_bytes) /
                     1e6 / point.seconds;
  }
  out.clients_per_carrier = stats.clients_per_carrier;
  Mix(out.digest, window);
  Mix(out.digest, elapsed_ns);
  Mix(out.digest, stats.done);
  Mix(out.digest, stats.failed);
  Mix(out.digest, stats.polls);
  Mix(out.digest, stats.completion_wakes);
  return stats.failed == 0;
}

RunResult RunOnce(const Options& opt, util::Clock* clock) {
  RunResult out;

  core::RuntimeOptions options;
  options.storage_servers = opt.servers;
  options.backend = core::RuntimeOptions::Backend::kNull;
  options.storage.worker_threads = 1;
  options.storage.modeled_disk_mb_s = 400;
  options.storage.modeled_create_latency_us = 250;  // ≈4k creates/s/server
  options.clock = clock;
  auto runtime = core::ServiceRuntime::Start(options);
  if (!runtime.ok()) {
    std::fprintf(stderr, "runtime start failed: %s\n",
                 runtime.status().ToString().c_str());
    return out;
  }
  (*runtime)->AddUser("petascale", "pw", 1);

  // One login, one container, one capability — broadcast to every logical
  // client (the paper's Figure 4-a capability distribution).  Each carrier
  // gets its own RPC endpoint; the id % carriers shard contract keeps one
  // endpoint per carrier thread.
  auto admin = (*runtime)->MakeClient();
  auto cred = admin->Login("petascale", "pw");
  if (!cred.ok()) return out;
  auto cid = admin->CreateContainer(*cred);
  if (!cid.ok()) return out;
  auto cap = admin->GetCap(*cred, *cid, security::kOpAll);
  if (!cap.ok()) return out;
  std::vector<std::unique_ptr<core::Client>> shards;
  shards.reserve(opt.carriers);
  for (std::size_t i = 0; i < opt.carriers; ++i) {
    shards.push_back((*runtime)->MakeClient());
  }

  // Every client dumps the same pattern bytes: the null store discards
  // them, so one buffer serves a million clients.
  Buffer pattern(static_cast<std::size_t>(opt.payload_bytes), 0xA5);

  for (std::uint32_t window : kWindows) {
    Point point;
    if (!RunPoint(opt, **runtime, shards, *cap, ByteSpan(pattern), window,
                  out, point)) {
      return out;
    }
    out.fig9.push_back(point);
  }
  if (!RunPoint(opt, **runtime, shards, *cap, ByteSpan(pattern), 0, out,
                out.fig10)) {
    return out;
  }
  if (out.fig10.seconds > 0) {
    out.creates_per_s =
        static_cast<double>(opt.clients) / out.fig10.seconds;
  }
  out.ok = true;
  return out;
}

RunResult RunWithClock(const Options& opt) {
  if (opt.use_virtual) {
    util::VirtualClock vclock;
    util::Clock::ThreadGuard guard(&vclock);
    return RunOnce(opt, &vclock);
  }
  return RunOnce(opt, nullptr);
}

void PrintResult(const Options& opt, const RunResult& run) {
  bench::PrintHeader("Petascale checkpoint: dump throughput vs window");
  std::printf("%" PRIu64 " logical clients x %" PRIu64
              " B on %d servers, %zu carriers (%s time)\n",
              opt.clients, opt.payload_bytes, opt.servers, opt.carriers,
              opt.use_virtual ? "virtual" : "real");
  std::printf("%8s %12s %12s %12s %14s\n", "window", "seconds", "MB/s",
              "polls", "compl_wakes");
  for (const Point& p : run.fig9) {
    std::printf("%8u %12.4f %12.1f %12" PRIu64 " %14" PRIu64 "\n", p.window,
                p.seconds, p.mb_per_s, p.polls, p.completion_wakes);
  }
  bench::PrintHeader("Petascale create throughput (Figure 10 shape)");
  std::printf("%12.4f s  %12.1f creates/s  %10.1f creates/s/server\n",
              run.fig10.seconds, run.creates_per_s,
              run.creates_per_s / static_cast<double>(opt.servers));
  std::printf("\nlogical clients per carrier: %" PRIu64
              "   peak RSS: %" PRIu64 " KiB   digest: %016" PRIx64 "\n",
              run.clients_per_carrier, PeakRssKb(), run.digest);
}

void DumpJson(const Options& opt, const RunResult& run,
              const char* selfcheck) {
  const char* path = "BENCH_petascale.json";
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(out,
               "{\n"
               "  \"figure\": \"petascale\",\n"
               "  \"benchmark\": \"event_driven_client_engine\",\n"
               "  \"clients\": %" PRIu64 ",\n"
               "  \"storage_servers\": %d,\n"
               "  \"carriers\": %zu,\n"
               "  \"seed\": %" PRIu64 ",\n"
               "  \"virtual\": %s,\n"
               "  \"payload_bytes\": %" PRIu64 ",\n"
               "  \"chunk_bytes\": %" PRIu64 ",\n"
               "  \"window_sweep\": [\n",
               opt.clients, opt.servers, opt.carriers, opt.seed,
               opt.use_virtual ? "true" : "false", opt.payload_bytes,
               opt.chunk_bytes);
  for (std::size_t i = 0; i < run.fig9.size(); ++i) {
    const Point& p = run.fig9[i];
    std::fprintf(out,
                 "    {\"window\": %u, \"seconds\": %.6f, "
                 "\"mb_per_s\": %.2f, \"done\": %" PRIu64
                 ", \"failed\": %" PRIu64 ", \"polls\": %" PRIu64
                 ", \"completion_wakes\": %" PRIu64 "}%s\n",
                 p.window, p.seconds, p.mb_per_s, p.done, p.failed, p.polls,
                 p.completion_wakes, i + 1 < run.fig9.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n"
               "  \"create_only\": {\"seconds\": %.6f, "
               "\"creates_per_s\": %.1f, \"creates_per_s_per_server\": %.2f},\n"
               "  \"clients_per_carrier\": %" PRIu64 ",\n"
               "  \"peak_rss_kb\": %" PRIu64 ",\n"
               "  \"digest\": \"%016" PRIx64 "\",\n"
               "  \"selfcheck\": \"%s\"\n"
               "}\n",
               run.fig10.seconds, run.creates_per_s,
               run.creates_per_s / static_cast<double>(opt.servers),
               run.clients_per_carrier, PeakRssKb(), run.digest, selfcheck);
  std::fclose(out);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (std::strcmp(a, "--virtual") == 0) {
      opt.use_virtual = true;
    } else if (std::strcmp(a, "--selfcheck") == 0) {
      opt.selfcheck = true;
    } else if (std::strcmp(a, "--smoke") == 0) {
      opt.clients = 10000;
      opt.servers = 200;
    } else if (std::strcmp(a, "--clients") == 0) {
      opt.clients = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(a, "--servers") == 0) {
      opt.servers = std::atoi(next());
    } else if (std::strcmp(a, "--carriers") == 0) {
      opt.carriers = static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    } else if (std::strcmp(a, "--seed") == 0) {
      opt.seed = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(a, "--payload") == 0) {
      opt.payload_bytes = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(a, "--chunk") == 0) {
      opt.chunk_bytes = std::strtoull(next(), nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: petascale [--virtual] [--selfcheck] [--smoke] "
                   "[--clients N] [--servers N] [--carriers N] [--seed N] "
                   "[--payload BYTES] [--chunk BYTES]\n");
      return 2;
    }
  }
  if (opt.clients == 0 || opt.servers <= 0 || opt.carriers == 0) {
    std::fprintf(stderr, "need clients > 0, servers > 0, carriers > 0\n");
    return 2;
  }

  RunResult run = RunWithClock(opt);
  if (!run.ok) return 1;
  PrintResult(opt, run);

  const char* selfcheck = "skipped";
  if (opt.selfcheck) {
    if (!opt.use_virtual) {
      std::fprintf(stderr, "--selfcheck requires --virtual (real-time runs "
                           "are not reproducible)\n");
      return 2;
    }
    std::printf("\nselfcheck: repeating the sweep from seed %" PRIu64
                " on a fresh deployment...\n",
                opt.seed);
    RunResult again = RunWithClock(opt);
    if (!again.ok) return 1;
    if (again.digest != run.digest) {
      std::printf("selfcheck FAILED: %016" PRIx64 " vs %016" PRIx64 "\n",
                  run.digest, again.digest);
      DumpJson(opt, run, "fail");
      return 1;
    }
    std::printf("selfcheck OK: both runs digest %016" PRIx64 "\n", run.digest);
    selfcheck = "pass";
  }
  DumpJson(opt, run, selfcheck);
  return 0;
}

// Ablations for the application-level I/O techniques the paper's
// introduction motivates (§1): collective (two-phase) writes, data
// sieving, and active-storage filtering — all measured on the *real*
// in-process stack with wire-level counters from the portals fabric.
#include <chrono>
#include <cstdio>
#include <cstring>

#include "bench_util.h"
#include "core/runtime.h"
#include "libio/collective.h"
#include "libio/prefetch.h"
#include "libio/sieve.h"
#include "lwfsfs/lwfsfs.h"
#include "util/clock.h"
#include "util/rng.h"

namespace {

using namespace lwfs;

struct World {
  std::unique_ptr<core::ServiceRuntime> runtime;
  std::unique_ptr<core::Client> client;
  security::Capability cap;
  std::unique_ptr<fs::LwfsFs> fs;

  World() {
    core::RuntimeOptions options;
    options.storage_servers = 4;
    runtime = core::ServiceRuntime::Start(options).value();
    runtime->AddUser("u", "p", 1);
    client = runtime->MakeClient();
    auto cred = client->Login("u", "p").value();
    auto cid = client->CreateContainer(cred).value();
    cap = client->GetCap(cred, cid, security::kOpAll).value();
    fs::FsOptions fs_options;
    fs_options.consistency = fs::FsConsistency::kRelaxed;
    fs = fs::LwfsFs::Mount(client.get(), cap, "/io", fs_options).value();
  }
};

double Seconds(util::Clock::TimePoint a, util::Clock::TimePoint b) {
  return std::chrono::duration<double>(b - a).count();
}

void CollectiveAblation(World& world) {
  lwfs::bench::PrintHeader(
      "Two-phase collective write vs. independent writes (real stack)");
  std::printf("%8s %8s %14s %12s %12s %10s\n", "ranks", "frag", "mode",
              "writes", "wire msgs", "time");
  for (int ranks : {4, 16}) {
    for (std::uint64_t frag : {1024ull, 8192ull}) {
      // Interleaved blocks: rank r owns every ranks-th `frag`-byte block.
      std::vector<std::vector<io::WriteFragment>> per_rank(
          static_cast<std::size_t>(ranks));
      constexpr int kBlocksPerRank = 64;
      for (int r = 0; r < ranks; ++r) {
        for (int b = 0; b < kBlocksPerRank; ++b) {
          const std::uint64_t offset =
              (static_cast<std::uint64_t>(b) * static_cast<std::uint64_t>(ranks) +
               static_cast<std::uint64_t>(r)) *
              frag;
          per_rank[static_cast<std::size_t>(r)].push_back(
              io::WriteFragment{offset, PatternBuffer(frag, offset)});
        }
      }
      for (bool collective : {true, false}) {
        auto file = world.fs
                        ->Create("/cw-" + std::to_string(ranks) + "-" +
                                 std::to_string(frag) +
                                 (collective ? "c" : "i"))
                        .value();
        world.runtime->fabric().metrics()->Reset();
        const auto t0 = util::RealClockInstance()->Now();
        auto stats =
            collective
                ? io::CollectiveWrite(*world.fs, file, per_rank).value()
                : io::IndependentWrite(*world.fs, file, per_rank).value();
        const double dt = Seconds(t0, util::RealClockInstance()->Now());
        metrics::Snapshot wire = world.runtime->fabric().metrics()->Snapshot();
        std::printf("%8d %7lluB %14s %12llu %12llu %8.4fs\n", ranks,
                    static_cast<unsigned long long>(frag),
                    collective ? "two-phase" : "independent",
                    static_cast<unsigned long long>(stats.writes_issued),
                    static_cast<unsigned long long>(wire.Get("puts") +
                                                    wire.Get("gets")),
                    dt);
      }
    }
  }
}

void SieveAblation(World& world) {
  lwfs::bench::PrintHeader("Data sieving vs. direct strided reads (real stack)");
  std::printf("%14s %10s %12s %14s %12s\n", "pattern", "mode", "requests",
              "bytes moved", "overhead");
  auto file = world.fs->Create("/sieve").value();
  Buffer data = PatternBuffer(4 << 20, 1);
  (void)core::Await(
      world.fs->WriteAsync(file, {{0, util::SharedSlice::External(data)}}));
  (void)world.fs->Flush(file);

  struct Pattern {
    const char* name;
    std::uint64_t piece, stride;
  };
  for (const Pattern& p : {Pattern{"dense 1K/4K", 1024, 4096},
                           Pattern{"sparse 64B/64K", 64, 64 << 10}}) {
    std::vector<io::Fragment> fragments;
    std::uint64_t total = 0;
    for (std::uint64_t off = 0; off + p.piece <= data.size(); off += p.stride) {
      fragments.emplace_back(off, p.piece);
      total += p.piece;
    }
    Buffer out(static_cast<std::size_t>(total), 0);
    auto direct =
        io::DirectRead(*world.fs, file, fragments, MutableByteSpan(out)).value();
    auto sieved =
        io::SievedRead(*world.fs, file, fragments, MutableByteSpan(out)).value();
    std::printf("%14s %10s %12llu %13.2fMB %11.2fx\n", p.name, "direct",
                static_cast<unsigned long long>(direct.requests),
                static_cast<double>(direct.bytes_transferred) / 1e6,
                direct.overhead());
    std::printf("%14s %10s %12llu %13.2fMB %11.2fx\n", p.name, "sieved",
                static_cast<unsigned long long>(sieved.requests),
                static_cast<double>(sieved.bytes_transferred) / 1e6,
                sieved.overhead());
  }
}

void FilterAblation(World& world) {
  lwfs::bench::PrintHeader(
      "Active-storage filtering vs. read-then-filter (real stack)");
  const std::uint64_t elems = 4 << 20;  // 32 MB of float64
  auto oid = world.client->CreateObject(0, world.cap).value();
  Buffer data(static_cast<std::size_t>(elems) * 8);
  lwfs::Rng rng(5);
  for (std::uint64_t i = 0; i < elems; ++i) {
    const double v = rng.NextDouble();
    std::memcpy(data.data() + i * 8, &v, 8);
  }
  (void)world.client->WriteObject(0, world.cap, oid, 0, ByteSpan(data));

  std::printf("%16s %14s %14s %10s\n", "reduction", "mode", "wire bytes",
              "time");
  for (auto [kind, name] :
       {std::pair{core::FilterKind::kMinMaxSumCount, "min/max/sum"},
        std::pair{core::FilterKind::kHistogram, "histogram(16)"}}) {
    core::FilterSpec spec;
    spec.kind = kind;
    spec.lo = 0;
    spec.hi = 1;
    spec.bins = 16;

    world.runtime->fabric().metrics()->Reset();
    auto t0 = util::RealClockInstance()->Now();
    auto remote = world.client->FilterObjectAlloc(0, world.cap, oid, 0,
                                                  data.size(), spec);
    double dt = Seconds(t0, util::RealClockInstance()->Now());
    metrics::Snapshot wire = world.runtime->fabric().metrics()->Snapshot();
    std::printf("%16s %14s %13.1fKB %8.4fs\n", name, "at-server",
                static_cast<double>(wire.Get("put_bytes") +
                                    wire.Get("get_bytes")) /
                    1e3,
                dt);
    if (!remote.ok()) std::printf("  ERROR: %s\n", remote.status().ToString().c_str());

    world.runtime->fabric().metrics()->Reset();
    t0 = util::RealClockInstance()->Now();
    auto raw = core::Await(
        world.client->ReadObjectAsync(0, world.cap, oid, {{0, data.size()}}));
    if (raw.ok()) (void)core::ApplyFilter(spec, raw->slices.front().span());
    dt = Seconds(t0, util::RealClockInstance()->Now());
    wire = world.runtime->fabric().metrics()->Snapshot();
    std::printf("%16s %14s %13.1fKB %8.4fs\n", name, "read+local",
                static_cast<double>(wire.Get("put_bytes") +
                                    wire.Get("get_bytes")) /
                    1e3,
                dt);
  }
}

void PrefetchAblation(World& world) {
  lwfs::bench::PrintHeader(
      "Sequential read-ahead vs. unbuffered small reads (real stack)");
  auto file = world.fs->Create("/prefetch").value();
  Buffer data = PatternBuffer(16 << 20, 2);
  (void)core::Await(
      world.fs->WriteAsync(file, {{0, util::SharedSlice::External(data)}}));
  (void)world.fs->Flush(file);

  std::printf("%12s %12s %12s %10s\n", "mode", "reads", "I/O requests",
              "time");
  Buffer chunk(8192, 0);

  // Unbuffered: one FS read per 8 KiB chunk.
  world.runtime->fabric().metrics()->Reset();
  auto t0 = util::RealClockInstance()->Now();
  std::uint64_t reads = 0;
  for (std::uint64_t off = 0; off < data.size(); off += chunk.size()) {
    (void)core::Await(world.fs->ReadAsync(
        file, {{off, chunk.size(), MutableByteSpan(chunk)}}));
    ++reads;
  }
  double dt = Seconds(t0, util::RealClockInstance()->Now());
  metrics::Snapshot wire = world.runtime->fabric().metrics()->Snapshot();
  std::printf("%12s %12llu %12llu %8.4fs\n", "unbuffered",
              static_cast<unsigned long long>(reads),
              static_cast<unsigned long long>(wire.Get("puts") +
                                              wire.Get("gets")),
              dt);

  // Prefetched: same access stream through the read-ahead window.
  io::PrefetchOptions options;
  options.window_bytes = 2 << 20;
  io::PrefetchReader reader(world.fs.get(), world.fs->Open("/prefetch").value(),
                            options);
  world.runtime->fabric().metrics()->Reset();
  t0 = util::RealClockInstance()->Now();
  for (std::uint64_t off = 0; off < data.size(); off += chunk.size()) {
    (void)reader.Read(off, MutableByteSpan(chunk));
  }
  dt = Seconds(t0, util::RealClockInstance()->Now());
  wire = world.runtime->fabric().metrics()->Snapshot();
  std::printf("%12s %12llu %12llu %8.4fs   (%llu window fetches)\n",
              "prefetched",
              static_cast<unsigned long long>(reader.stats().reads),
              static_cast<unsigned long long>(wire.Get("puts") +
                                              wire.Get("gets")),
              dt,
              static_cast<unsigned long long>(reader.stats().fetches));
}

}  // namespace

int main() {
  World world;
  CollectiveAblation(world);
  SieveAblation(world);
  FilterAblation(world);
  PrefetchAblation(world);
  std::printf(
      "\nAll of these optimizations are *libraries above the LWFS-core* — the\n"
      "paper's Figure 2 claim that application-specific I/O policy belongs\n"
      "to the application, not to a general-purpose file system.\n");
  return 0;
}

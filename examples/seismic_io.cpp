// Application-specific I/O policy on the LWFS core — the "open
// architecture" claim (§3, Figure 2), on the seismic-imaging workload the
// paper's introduction motivates (Oldfield et al., reference [27]).
//
// A seismic survey produces shot gathers: for each source ("shot"), an
// array of traces (time series).  The natural write pattern is
// shot-parallel; the natural *read* pattern for migration is
// common-offset — a transpose.  General-purpose file systems force one
// layout; on LWFS the application picks its own distribution policy per
// dataset, because the core only provides containers + objects.
//
// This example stores the same survey under two application-chosen
// distribution policies and shows how the read pattern decides the winner:
//   policy A: one object per shot (write-optimal)
//   policy B: one object per offset class, distributed round-robin
//             (read-optimal for common-offset migration)
//
//   $ ./seismic_io
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "core/runtime.h"

using namespace lwfs;

namespace {

constexpr std::uint32_t kShots = 32;
constexpr std::uint32_t kOffsets = 16;   // traces per shot
constexpr std::uint32_t kSamples = 2048; // samples per trace
constexpr std::uint32_t kTraceBytes = kSamples * 4;

/// Deterministic synthetic trace so reads can be verified.
Buffer MakeTrace(std::uint32_t shot, std::uint32_t offset) {
  return PatternBuffer(kTraceBytes, (static_cast<std::uint64_t>(shot) << 32) | offset);
}

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

int main() {
  core::RuntimeOptions options;
  options.storage_servers = 4;
  auto runtime = core::ServiceRuntime::Start(options).value();
  runtime->AddUser("geo", "pw", 7);
  auto client = runtime->MakeClient();
  auto cred = client->Login("geo", "pw").value();
  auto cid = client->CreateContainer(cred).value();
  auto cap = client->GetCap(cred, cid, security::kOpAll).value();
  const auto nservers = static_cast<std::uint32_t>(client->storage_server_count());

  std::printf("survey: %u shots x %u offsets x %u samples (%.1f MB)\n\n",
              kShots, kOffsets, kSamples,
              static_cast<double>(kShots) * kOffsets * kTraceBytes / 1e6);

  // ---- Policy A: shot gathers — one object per shot, shot-parallel write --
  std::vector<storage::ObjectRef> shot_objects(kShots);
  auto t0 = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> writers;
    for (std::uint32_t shot = 0; shot < kShots; ++shot) {
      writers.emplace_back([&, shot] {
        auto c = runtime->MakeClient();
        const std::uint32_t server = shot % nservers;  // app-chosen placement
        auto oid = c->CreateObject(server, cap).value();
        Buffer gather;
        for (std::uint32_t off = 0; off < kOffsets; ++off) {
          Buffer trace = MakeTrace(shot, off);
          gather.insert(gather.end(), trace.begin(), trace.end());
        }
        (void)c->WriteObject(server, cap, oid, 0, ByteSpan(gather));
        shot_objects[shot] = storage::ObjectRef{cid, server, oid};
      });
    }
    for (auto& w : writers) w.join();
  }
  const double write_a = Seconds(t0, std::chrono::steady_clock::now());
  std::printf("policy A (object per shot):    write %.3f s\n", write_a);

  // Common-offset read under policy A: every shot object is touched for one
  // trace — kShots small reads.
  t0 = std::chrono::steady_clock::now();
  const std::uint32_t want_offset = 5;
  std::uint64_t a_reads = 0;
  for (std::uint32_t shot = 0; shot < kShots; ++shot) {
    const auto& ref = shot_objects[shot];
    Buffer trace(kTraceBytes, 0);
    (void)client
        ->ReadObject(ref.server_index, cap, ref.oid,
                     static_cast<std::uint64_t>(want_offset) * kTraceBytes,
                     MutableByteSpan(trace))
        .value();
    ++a_reads;
    if (trace != MakeTrace(shot, want_offset)) {
      std::fprintf(stderr, "policy A verify failed\n");
      return 1;
    }
  }
  const double read_a = Seconds(t0, std::chrono::steady_clock::now());
  std::printf("policy A common-offset read:   %.3f s (%llu object touches)\n\n",
              read_a, static_cast<unsigned long long>(a_reads));

  // ---- Policy B: offset classes — one object per offset, transpose layout --
  std::vector<storage::ObjectRef> offset_objects(kOffsets);
  t0 = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> writers;
    for (std::uint32_t off = 0; off < kOffsets; ++off) {
      writers.emplace_back([&, off] {
        auto c = runtime->MakeClient();
        const std::uint32_t server = off % nservers;
        auto oid = c->CreateObject(server, cap).value();
        Buffer klass;
        for (std::uint32_t shot = 0; shot < kShots; ++shot) {
          Buffer trace = MakeTrace(shot, off);
          klass.insert(klass.end(), trace.begin(), trace.end());
        }
        (void)c->WriteObject(server, cap, oid, 0, ByteSpan(klass));
        offset_objects[off] = storage::ObjectRef{cid, server, oid};
      });
    }
    for (auto& w : writers) w.join();
  }
  const double write_b = Seconds(t0, std::chrono::steady_clock::now());
  std::printf("policy B (object per offset):  write %.3f s (transpose cost)\n",
              write_b);

  // Common-offset read under policy B: one sequential read of one object.
  t0 = std::chrono::steady_clock::now();
  const auto& ref = offset_objects[want_offset];
  const util::SharedSlice klass =
      core::Await(client->ReadObjectAsync(
                      ref.server_index, cap, ref.oid,
                      {{0, static_cast<std::uint64_t>(kShots) * kTraceBytes}}))
          .value()
          .slices.front();
  const double read_b = Seconds(t0, std::chrono::steady_clock::now());
  for (std::uint32_t shot = 0; shot < kShots; ++shot) {
    Buffer expect = MakeTrace(shot, want_offset);
    if (!std::equal(expect.begin(), expect.end(),
                    klass.span().begin() +
                        static_cast<std::ptrdiff_t>(shot) * kTraceBytes)) {
      std::fprintf(stderr, "policy B verify failed\n");
      return 1;
    }
  }
  std::printf("policy B common-offset read:   %.3f s (1 object touch)\n\n", read_b);

  std::printf(
      "Both layouts live in the same container under the same capability;\n"
      "the application — not the file system — owns the distribution\n"
      "policy, and can even keep both (redundant layouts) when reads\n"
      "dominate.  This is the flexibility Figure 2's upper layers buy.\n");
  return 0;
}

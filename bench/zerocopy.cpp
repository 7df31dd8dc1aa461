// Zero-copy data path A/B: the slice API against the span API, over the
// storage server's one data path.  A slice write registers an owned slice
// the server pulls by reference and hands to the store; a span write
// registers raw caller memory, so the fabric stages the bytes once on the
// pull.  A slice read returns the store-owned reply slice; a span read is
// the same slice read plus one copy into the caller's span.  Same
// deployment, same server path — the only difference is which client API
// the workload uses.
//
// Reports, per payload size: bytes-copied-per-byte (the CopyStats budget:
// staging + store copies) in each direction, per-kind copy bytes, payload
// bytes streamed through a standalone CRC (one not fused into a copy) per
// byte on the client and on the server, and end-to-end write/read
// throughput.  Emits BENCH_zerocopy.json.
//
// `--smoke` shrinks the workload to sanitizer-CI scale and doubles as the
// bench-regression gate: the process exits nonzero if a slice path's
// copies-per-byte exceeds its budget (a copy snuck back into the data
// path), if the span path stops costing measurably more, or if the server
// runs a standalone CRC over a slice write made of whole extents (its
// check belongs inside the store copy).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/runtime.h"
#include "storage/object_store.h"
#include "util/clock.h"
#include "util/shared_buffer.h"

namespace {

using namespace lwfs;

// The slice write path performs exactly one budgeted copy per byte (the
// store-medium copy); allow headroom for control-plane writes.
constexpr double kWriteCopyBudget = 1.25;
// Same bound on the read side: the slice read's only budgeted copy is the
// medium-store one; the reply frame hands the same bytes to the client.
constexpr double kReadCopyBudget = 1.25;
// A slice write whose pieces are whole extents is checked inside the
// store's copy: no standalone CRC pass on the server.  (A partial-extent
// piece is checked first and then copied, one pass more.)
constexpr double kWholeExtentServerCrcBudget = 0.0;

struct SizeResult {
  std::size_t payload_bytes = 0;
  int iters = 0;
  // Per mode: copies-per-byte on each path, throughputs, copy bytes.
  double write_cpb[2] = {0, 0};    // [0]=span, [1]=slice
  double read_cpb[2] = {0, 0};
  double write_mb_s[2] = {0, 0};
  double read_mb_s[2] = {0, 0};
  std::uint64_t stage_bytes[2] = {0, 0};
  std::uint64_t store_bytes[2] = {0, 0};
  std::uint64_t read_stage_bytes[2] = {0, 0};
  std::uint64_t read_store_bytes[2] = {0, 0};
  // Standalone-CRC bytes per payload byte: [mode][side], side 0 = client.
  double write_crc[2][2] = {{0, 0}, {0, 0}};
  double read_crc[2][2] = {{0, 0}, {0, 0}};
};

double CrcPerByte(const util::CopySnapshot& d, util::CrcSide side,
                  double total) {
  return static_cast<double>(d.crc_bytes_of(side)) / total;
}

struct ModeSetup {
  const char* name;
  bool slice_api;
};
constexpr ModeSetup kModes[2] = {{"span", false}, {"slice", true}};

Result<SizeResult> RunSize(std::size_t payload_bytes, int iters) {
  SizeResult r;
  r.payload_bytes = payload_bytes;
  r.iters = iters;

  for (int mode = 0; mode < 2; ++mode) {
    core::RuntimeOptions options;
    options.storage_servers = 1;
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
    auto oid = client->CreateObject(0, *cap);
    if (!oid.ok()) return oid.status();

    Buffer pattern = PatternBuffer(payload_bytes, 7);
    util::SharedSlice slice = util::SharedSlice::FromBuffer(Buffer(pattern));
    util::RealClock wall;

    // Write phase: payload written `iters` times (offset 0 each time — the
    // medium copy cost is identical, and the store stays one object big).
    const util::CopySnapshot before = util::CopyStats::Snapshot();
    const auto w0 = wall.Now();
    for (int i = 0; i < iters; ++i) {
      Status written =
          kModes[mode].slice_api
              ? core::Await(client->WriteObjectAsync(0, *cap, *oid,
                                                     {{0, slice}}))
                    .status()
              : client->WriteObject(0, *cap, *oid, 0, ByteSpan(pattern));
      if (!written.ok()) return written;
    }
    const double write_s =
        std::chrono::duration<double>(wall.Now() - w0).count();
    const util::CopySnapshot wd = util::CopyStats::Snapshot().Since(before);
    const auto total =
        static_cast<double>(payload_bytes) * static_cast<double>(iters);
    r.write_cpb[mode] = static_cast<double>(wd.budget_bytes()) / total;
    r.write_mb_s[mode] = total / 1e6 / write_s;
    r.stage_bytes[mode] = wd.bytes_of(util::CopyKind::kStage);
    r.store_bytes[mode] = wd.bytes_of(util::CopyKind::kStore);
    r.write_crc[mode][0] = CrcPerByte(wd, util::CrcSide::kClient, total);
    r.write_crc[mode][1] = CrcPerByte(wd, util::CrcSide::kServer, total);

    // Read phase A/B: both modes issue the same slice read; the span mode
    // then copies the reply slice into its buffer, while the slice mode
    // keeps the store's own slice end to end.
    Buffer out(payload_bytes);
    // Untimed warmup (identical for both modes): lets the reply cache and
    // the store's recycled read buffers reach steady state, so the timed
    // loop measures the data path, not allocator cold-start.
    const int warmup = std::min(iters / 4, 48);
    for (int i = 0; i < warmup; ++i) {
      if (kModes[mode].slice_api) {
        auto got = core::Await(
            client->ReadObjectAsync(0, *cap, *oid, {{0, payload_bytes}}));
        if (!got.ok()) return got.status();
      } else {
        auto n = client->ReadObject(0, *cap, *oid, 0, MutableByteSpan(out));
        if (!n.ok()) return n.status();
      }
    }
    const util::CopySnapshot rbefore = util::CopyStats::Snapshot();
    const auto r0 = wall.Now();
    for (int i = 0; i < iters; ++i) {
      if (kModes[mode].slice_api) {
        auto got = core::Await(
            client->ReadObjectAsync(0, *cap, *oid, {{0, payload_bytes}}));
        if (!got.ok()) return got.status();
        const ByteSpan bytes = got->slices.front().span();
        if (bytes.size() != payload_bytes) {
          return Internal("short read in bench");
        }
        if (i == 0 && !std::equal(bytes.begin(), bytes.end(),
                                  pattern.begin())) {
          return DataLoss("bench slice read back wrong bytes");
        }
      } else {
        auto n = client->ReadObject(0, *cap, *oid, 0, MutableByteSpan(out));
        if (!n.ok()) return n.status();
        if (*n != payload_bytes) return Internal("short read in bench");
      }
    }
    const double read_s =
        std::chrono::duration<double>(wall.Now() - r0).count();
    const util::CopySnapshot rd = util::CopyStats::Snapshot().Since(rbefore);
    r.read_cpb[mode] = static_cast<double>(rd.budget_bytes()) / total;
    r.read_mb_s[mode] = total / 1e6 / read_s;
    r.read_stage_bytes[mode] = rd.bytes_of(util::CopyKind::kStage);
    r.read_store_bytes[mode] = rd.bytes_of(util::CopyKind::kStore);
    r.read_crc[mode][0] = CrcPerByte(rd, util::CrcSide::kClient, total);
    r.read_crc[mode][1] = CrcPerByte(rd, util::CrcSide::kServer, total);
    if (!kModes[mode].slice_api && out != pattern) {
      return DataLoss("bench read back wrong bytes");
    }
  }
  return r;
}

void DumpJson(const std::vector<SizeResult>& results, bool smoke) {
  std::FILE* out = std::fopen("BENCH_zerocopy.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_zerocopy.json\n");
    return;
  }
  std::fprintf(out,
               "{\n"
               "  \"benchmark\": \"zerocopy_data_path\",\n"
               "  \"smoke\": %s,\n"
               "  \"copy_budget_write\": %.2f,\n"
               "  \"copy_budget_read\": %.2f,\n"
               "  \"counts_copies\": %s,\n"
               "  \"sizes\": [\n",
               smoke ? "true" : "false", kWriteCopyBudget, kReadCopyBudget,
               util::CopyStats::Enabled() ? "true" : "false");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SizeResult& r = results[i];
    std::fprintf(out,
                 "    {\n"
                 "      \"payload_bytes\": %zu,\n"
                 "      \"iters\": %d,\n",
                 r.payload_bytes, r.iters);
    for (int m = 0; m < 2; ++m) {
      std::fprintf(out,
                   "      \"%s\": {\n"
                   "        \"write_copies_per_byte\": %.3f,\n"
                   "        \"write_client_crc_per_byte\": %.3f,\n"
                   "        \"write_server_crc_per_byte\": %.3f,\n"
                   "        \"write_mb_s\": %.1f,\n"
                   "        \"read_mb_s\": %.1f,\n"
                   "        \"stage_bytes\": %llu,\n"
                   "        \"store_bytes\": %llu\n"
                   "      },\n",
                   kModes[m].name, r.write_cpb[m], r.write_crc[m][0],
                   r.write_crc[m][1], r.write_mb_s[m],
                   r.read_mb_s[m],
                   static_cast<unsigned long long>(r.stage_bytes[m]),
                   static_cast<unsigned long long>(r.store_bytes[m]));
    }
    std::fprintf(out,
                 "      \"read\": {\n");
    for (int m = 0; m < 2; ++m) {
      std::fprintf(out,
                   "        \"%s\": {\n"
                   "          \"copies_per_byte\": %.3f,\n"
                   "          \"client_crc_per_byte\": %.3f,\n"
                   "          \"server_crc_per_byte\": %.3f,\n"
                   "          \"mb_s\": %.1f,\n"
                   "          \"stage_bytes\": %llu,\n"
                   "          \"store_bytes\": %llu\n"
                   "        }%s\n",
                   kModes[m].name, r.read_cpb[m], r.read_crc[m][0],
                   r.read_crc[m][1], r.read_mb_s[m],
                   static_cast<unsigned long long>(r.read_stage_bytes[m]),
                   static_cast<unsigned long long>(r.read_store_bytes[m]),
                   m == 0 ? "," : "");
    }
    std::fprintf(out, "      }\n");
    std::fprintf(out, "    }%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote BENCH_zerocopy.json\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  struct SizeSpec {
    std::size_t bytes;
    int iters;
  };
  std::vector<SizeSpec> sizes;
  if (smoke) {
    sizes = {{64 << 10, 8}, {1 << 20, 4}, {8 << 20, 2}};
  } else {
    sizes = {{64 << 10, 256}, {1 << 20, 64}, {8 << 20, 16}};
  }

  bench::PrintHeader(
      "Zero-copy data path: span API vs slice API, one server path");
  std::printf("%10s %10s | %-8s %11s %13s %11s %11s %13s %11s\n", "payload",
              "iters", "mode", "w copies/B", "w crc/B c|s", "write MB/s",
              "r copies/B", "r crc/B c|s", "read MB/s");

  std::vector<SizeResult> results;
  for (const SizeSpec& s : sizes) {
    auto r = RunSize(s.bytes, s.iters);
    if (!r.ok()) {
      std::fprintf(stderr, "bench failed: %s\n", r.status().ToString().c_str());
      return 1;
    }
    for (int m = 0; m < 2; ++m) {
      std::printf(
          "%10zu %10d | %-8s %11.3f   %5.3f|%5.3f %11.1f %11.3f   %5.3f|%5.3f "
          "%11.1f\n",
          s.bytes, s.iters, kModes[m].name, r->write_cpb[m],
          r->write_crc[m][0], r->write_crc[m][1], r->write_mb_s[m],
          r->read_cpb[m], r->read_crc[m][0], r->read_crc[m][1],
          r->read_mb_s[m]);
    }
    results.push_back(*r);
  }
  DumpJson(results, smoke);

  // Regression gate (CI runs `zerocopy --smoke`): the slice paths must stay
  // within the copy budget, and the span paths must still cost more copies
  // than the slice paths (i.e. the slice API still saves its copy).  Only
  // meaningful when the build counts copies.
  if (util::CopyStats::Enabled()) {
    for (const SizeResult& r : results) {
      if (r.write_cpb[1] > kWriteCopyBudget) {
        std::fprintf(stderr,
                     "FAIL: slice write path copies %.3f bytes per byte "
                     "written at %zu B payloads (budget %.2f) — an extra "
                     "copy crept into the data path\n",
                     r.write_cpb[1], r.payload_bytes, kWriteCopyBudget);
        return 1;
      }
      if (r.write_cpb[0] <= r.write_cpb[1]) {
        std::fprintf(stderr,
                     "FAIL: span write path (%.3f copies/B) no longer costs "
                     "more than the slice write (%.3f copies/B) at %zu B — "
                     "the A/B is broken\n",
                     r.write_cpb[0], r.write_cpb[1], r.payload_bytes);
        return 1;
      }
      if (r.payload_bytes % storage::kExtentBytes == 0 &&
          r.write_crc[1][1] > kWholeExtentServerCrcBudget) {
        std::fprintf(stderr,
                     "FAIL: the server streamed %.3f bytes per byte of a "
                     "whole-extent slice write at %zu B through a standalone "
                     "CRC (budget %.3f) — the check left the store copy\n",
                     r.write_crc[1][1], r.payload_bytes,
                     kWholeExtentServerCrcBudget);
        return 1;
      }
      if (r.read_cpb[1] > kReadCopyBudget) {
        std::fprintf(stderr,
                     "FAIL: slice read path copies %.3f bytes per byte read "
                     "at %zu B payloads (budget %.2f) — an extra copy crept "
                     "into the read path\n",
                     r.read_cpb[1], r.payload_bytes, kReadCopyBudget);
        return 1;
      }
      if (r.read_cpb[0] <= r.read_cpb[1]) {
        std::fprintf(stderr,
                     "FAIL: span read path (%.3f copies/B) no longer costs "
                     "more than the slice read (%.3f copies/B) at %zu B — "
                     "the A/B is broken\n",
                     r.read_cpb[0], r.read_cpb[1], r.payload_bytes);
        return 1;
      }
    }
    std::printf(
        "copy budget check: slice write within %.2f and slice read "
        "within %.2f copies/byte; whole-extent slice write server CRC "
        "within %.3f bytes/byte\n",
        kWriteCopyBudget, kReadCopyBudget, kWholeExtentServerCrcBudget);
  }
  return 0;
}

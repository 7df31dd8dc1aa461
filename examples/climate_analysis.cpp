// A post-processing pipeline on the high-level I/O library: a "climate
// model" writes a 3-D temperature dataset collectively, then an analysis
// job reads time series with data sieving and computes statistics with
// active-storage filters — all of it libraries above the LWFS-core
// (Figure 2), none of it file-system policy.
//
//   $ ./climate_analysis
#include <cstdio>
#include <cstring>

#include "core/runtime.h"
#include "libio/collective.h"
#include "libio/dataset.h"
#include "libio/sieve.h"
#include "lwfsfs/lwfsfs.h"

using namespace lwfs;

namespace {

constexpr std::uint64_t kTimesteps = 16;
constexpr std::uint64_t kLat = 32;
constexpr std::uint64_t kLon = 64;

double Temperature(std::uint64_t t, std::uint64_t lat, std::uint64_t lon) {
  // A synthetic but structured field: warm equator, seasonal drift.
  const double latitude = (static_cast<double>(lat) / kLat - 0.5) * 180.0;
  return 288.0 - 0.4 * latitude * latitude / 90.0 +
         3.0 * static_cast<double>(t) / kTimesteps +
         0.01 * static_cast<double>(lon);
}

}  // namespace

int main() {
  core::RuntimeOptions options;
  options.storage_servers = 4;
  auto runtime = core::ServiceRuntime::Start(options).value();
  runtime->AddUser("climate", "pw", 42);
  auto client = runtime->MakeClient();
  auto cred = client->Login("climate", "pw").value();
  auto cid = client->CreateContainer(cred).value();
  auto cap = client->GetCap(cred, cid, security::kOpAll).value();
  fs::FsOptions fs_options;
  fs_options.consistency = fs::FsConsistency::kRelaxed;
  auto fs = fs::LwfsFs::Mount(client.get(), cap, "/climate", fs_options).value();

  // --- Producer: create the dataset and write it collectively -----------------
  io::DatasetSpec spec{{kTimesteps, kLat, kLon}, sizeof(double)};
  auto ds = io::Dataset::Create(fs.get(), "/temperature", spec,
                                {{"units", "K"}, {"model", "toy-gcm-0.1"}})
                .value();
  std::printf("dataset /temperature: %llu x %llu x %llu float64 (%.1f MB)\n",
              (unsigned long long)kTimesteps, (unsigned long long)kLat,
              (unsigned long long)kLon, spec.ByteSize() / 1e6);

  // Each of 4 "ranks" owns a latitude band of every timestep — interleaved
  // in file space, the classic case for two-phase collective I/O.
  constexpr int kRanks = 4;
  std::vector<std::vector<io::WriteFragment>> per_rank(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    const std::uint64_t lat0 = static_cast<std::uint64_t>(r) * (kLat / kRanks);
    const std::uint64_t lat1 = lat0 + kLat / kRanks;
    for (std::uint64_t t = 0; t < kTimesteps; ++t) {
      Buffer band((lat1 - lat0) * kLon * sizeof(double));
      for (std::uint64_t lat = lat0; lat < lat1; ++lat) {
        for (std::uint64_t lon = 0; lon < kLon; ++lon) {
          const double v = Temperature(t, lat, lon);
          std::memcpy(band.data() +
                          ((lat - lat0) * kLon + lon) * sizeof(double),
                      &v, sizeof(double));
        }
      }
      const std::uint64_t offset =
          (t * kLat * kLon + lat0 * kLon) * sizeof(double);
      per_rank[static_cast<std::size_t>(r)].push_back(
          io::WriteFragment{offset, std::move(band)});
    }
  }
  auto wstats = io::CollectiveWrite(*fs, ds.file(), per_rank).value();
  std::printf("collective write: %llu fragments -> %llu writes\n",
              (unsigned long long)wstats.fragments_in,
              (unsigned long long)wstats.writes_issued);

  // --- Analysis 1: one grid point's time series (hyperslab read) -----------------
  std::uint64_t start[] = {0, kLat / 2, kLon / 2};
  std::uint64_t count[] = {kTimesteps, 1, 1};
  auto series = ds.ReadSlab(start, count).value();
  std::printf("\nequator time series (K):");
  for (std::uint64_t t = 0; t < kTimesteps; t += 4) {
    double v;
    std::memcpy(&v, series.data() + t * sizeof(double), sizeof(double));
    std::printf(" %.1f", v);
  }
  std::printf("\n");

  // --- Analysis 2: a whole latitude's series via data sieving -------------------
  std::vector<io::Fragment> fragments;
  for (std::uint64_t t = 0; t < kTimesteps; ++t) {
    const std::uint64_t offset =
        (t * kLat * kLon + (kLat / 2) * kLon) * sizeof(double);
    fragments.emplace_back(offset, kLon * sizeof(double));
  }
  Buffer lat_series(kTimesteps * kLon * sizeof(double), 0);
  auto sstats =
      io::SievedRead(*fs, ds.file(), fragments, MutableByteSpan(lat_series))
          .value();
  std::printf("sieved latitude read: %llu fragments in %llu requests "
              "(%.2fx bytes overhead)\n",
              (unsigned long long)fragments.size(),
              (unsigned long long)sstats.requests, sstats.overhead());

  // --- Analysis 3: global statistics via active-storage filters ------------------
  // The dataset's bytes live in stripe objects; reduce each stripe at its
  // server and combine, moving only a few dozen bytes per server.
  double mn = 1e300, mx = -1e300, sum = 0, n = 0;
  runtime->fabric().metrics()->Reset();
  for (const pfs::StripeTarget& stripe : ds.file().stripes) {
    core::FilterSpec fspec;
    fspec.kind = core::FilterKind::kMinMaxSumCount;
    auto attr = client->GetAttr(stripe.server, cap, stripe.oid).value();
    if (attr.size == 0) continue;
    auto result = client
                      ->FilterObjectAlloc(stripe.server, cap, stripe.oid, 0,
                                          attr.size, fspec)
                      .value();
    double part[4];
    std::memcpy(part, result.data(), sizeof(part));
    mn = std::min(mn, part[0]);
    mx = std::max(mx, part[1]);
    sum += part[2];
    n += part[3];
  }
  const metrics::Snapshot wire = runtime->fabric().metrics()->Snapshot();
  std::printf("\nglobal stats via active storage: min=%.1fK max=%.1fK "
              "mean=%.1fK  (%llu bytes on the wire for a %.1f MB dataset)\n",
              mn, mx, sum / n,
              (unsigned long long)(wire.Get("put_bytes") +
                                   wire.Get("get_bytes")),
              spec.ByteSize() / 1e6);

  const bool sane = mn > 200 && mx < 350 && n == spec.ElementCount();
  std::printf("consistency check: %s\n", sane ? "ok" : "FAILED");
  return sane ? 0 : 1;
}

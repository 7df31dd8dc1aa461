// The paper's case study end to end (§4, Figure 8): a parallel application
// computes, periodically checkpoints its distributed state with the
// lightweight checkpoint operation, then the whole deployment is torn
// down ("machine crash") and a *fresh* deployment over the same
// file-backed storage recovers the state from the most recent named
// checkpoint.
//
// The same run also executes the two traditional-PFS alternatives on the
// same substrate and prints the three timings side by side.
//
//   $ ./checkpoint_restart [ranks] [megabytes-per-rank]
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "checkpoint/checkpoint.h"
#include "util/rng.h"

using namespace lwfs;

namespace {

/// A toy "simulation": each rank evolves a block of state deterministically
/// so a restarted run can verify recovery bit for bit.
std::vector<Buffer> ComputeStep(std::vector<Buffer> states, int step) {
  for (std::size_t r = 0; r < states.size(); ++r) {
    Rng rng(static_cast<std::uint64_t>(step) * 1000 + r);
    for (auto& byte : states[r]) {
      byte = static_cast<std::uint8_t>(byte ^ rng.NextU64());
    }
  }
  return states;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint32_t nranks = argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 8;
  const std::size_t mb = argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 4;
  const std::size_t bytes_per_rank = mb << 20;

  // --- LWFS deployment over durable storage (Figure 8 MAIN(), lines 1-3) --
  const auto durable_root = std::filesystem::temp_directory_path() /
                            ("lwfs_ckpt_demo_" + std::to_string(::getpid()));
  std::filesystem::remove_all(durable_root);
  core::RuntimeOptions options;
  options.storage_servers = 4;
  options.backend = core::RuntimeOptions::Backend::kFile;
  options.file_store_root = (durable_root / "stores").string();
  options.naming_snapshot_file = (durable_root / "namespace.snap").string();

  auto runtime = core::ServiceRuntime::Start(options).value();
  runtime->AddUser("app", "secret", 1);
  auto client = runtime->MakeClient();
  auto cred = client->Login("app", "secret").value();
  auto cid = client->CreateContainer(cred).value();
  auto caps = client->GetCap(cred, cid, security::kOpAll).value();
  (void)client->Mkdir("/ckpt", true);

  std::printf("application: %u ranks x %zu MB of state, 4 file-backed "
              "storage servers\n\n",
              nranks, mb);

  // --- Compute / checkpoint loop (Figure 8 MAIN(), lines 4-7) -------------
  std::vector<Buffer> states;
  for (std::uint32_t r = 0; r < nranks; ++r) {
    states.push_back(PatternBuffer(bytes_per_rank, r));
  }
  std::string last_checkpoint;
  for (int step = 1; step <= 3; ++step) {
    states = ComputeStep(std::move(states), step);  // state <- COMPUTE()
    checkpoint::LwfsCheckpoint::Config config;
    config.path = "/ckpt/step" + std::to_string(step);
    config.cid = cid;
    config.cap = caps;
    auto stats = checkpoint::LwfsCheckpoint::Run(*runtime, config, states);
    if (!stats.ok()) {
      std::fprintf(stderr, "checkpoint failed: %s\n",
                   stats.status().ToString().c_str());
      return 1;
    }
    last_checkpoint = config.path;
    std::printf("step %d: checkpointed %llu MB in %.3f s (%.0f MB/s, %llu creates)\n",
                step, static_cast<unsigned long long>(stats->bytes >> 20),
                stats->seconds, stats->throughput_mb_s(),
                static_cast<unsigned long long>(stats->creates));
  }

  // --- Whole-deployment crash & cold restart --------------------------------
  std::printf("\n*** simulated machine crash: services torn down ***\n");
  auto expected = states;  // what a correct recovery must reproduce
  states.clear();
  (void)runtime->SaveNamingSnapshot();
  client.reset();
  runtime.reset();  // everything in memory is gone

  std::printf("fresh deployment booting over the surviving storage ...\n");
  runtime = core::ServiceRuntime::Start(options).value();  // reloads snapshot
  runtime->AddUser("app", "secret", 1);
  client = runtime->MakeClient();
  cred = client->Login("app", "secret").value();
  // Re-establish authorization over the surviving container (fresh authz
  // instance; container ids restart at 1, matching the persisted objects).
  auto recovered_cid = client->CreateContainer(cred).value();
  caps = client->GetCap(cred, recovered_cid, security::kOpAll).value();

  std::printf("restarted instance recovering from %s ...\n",
              last_checkpoint.c_str());
  auto restored =
      checkpoint::LwfsCheckpoint::Restore(*runtime, caps, last_checkpoint);
  if (!restored.ok()) {
    std::fprintf(stderr, "restore failed: %s\n",
                 restored.status().ToString().c_str());
    return 1;
  }
  bool match = restored->size() == expected.size();
  for (std::size_t r = 0; match && r < expected.size(); ++r) {
    match = (*restored)[r] == expected[r];
  }
  std::printf("recovered %zu ranks, state match: %s\n\n", restored->size(),
              match ? "yes" : "NO");

  // --- The same checkpoint through a traditional PFS ------------------------
  // Its MDS runs over the same storage servers: only the metadata and
  // consistency layer differs.
  auto pfs_runtime = pfs::PfsRuntime::Start(runtime.get(), {}).value();

  checkpoint::PfsFilePerProcess::Config fpp{"/ckpt-fpp", 1};
  auto fpp_stats =
      checkpoint::PfsFilePerProcess::Run(*pfs_runtime, fpp, expected).value();
  const std::uint64_t mds_creates = pfs_runtime->mds().creates_served();
  checkpoint::PfsSharedFile::Config shared;
  shared.path = "/ckpt-shared";
  auto shared_stats =
      checkpoint::PfsSharedFile::Run(*pfs_runtime, shared, expected).value();

  std::printf("comparison on this machine (functional, not cluster-timed):\n");
  std::printf("  %-28s %8.3f s  %4llu creates (all via MDS: %llu)\n",
              "PFS file-per-process", fpp_stats.seconds,
              static_cast<unsigned long long>(fpp_stats.creates),
              static_cast<unsigned long long>(mds_creates));
  std::printf("  %-28s %8.3f s  %4llu create\n", "PFS shared file",
              shared_stats.seconds,
              static_cast<unsigned long long>(shared_stats.creates));
  std::printf(
      "\n(cluster-scale timing comparisons are the job of the simulator:\n"
      " see bench/fig9_dump_throughput and bench/fig10_create_throughput)\n");
  std::filesystem::remove_all(durable_root);
  return match ? 0 : 1;
}

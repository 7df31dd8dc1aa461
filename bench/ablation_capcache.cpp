// E6 ablation (real stack): the storage-server capability cache (§3.1.2).
//
// The paper's scheme adds one explicit verify round trip to the
// authorization server on the *first* use of a capability at a storage
// server, then caches the verdict.  This bench measures, on the real
// in-process stack, the per-operation cost with the cache enabled vs.
// disabled (every request verifies remotely) — the amortization the paper
// asserts is "minimal".
#include <benchmark/benchmark.h>

#include "core/runtime.h"

namespace {

using namespace lwfs;
using namespace lwfs::core;

struct Stack {
  std::unique_ptr<ServiceRuntime> runtime;
  std::unique_ptr<Client> client;
  security::Capability cap;
  storage::ObjectId oid;

  explicit Stack(VerifyMode mode) {
    RuntimeOptions options;
    options.storage_servers = 2;
    options.storage.verify_mode = mode;
    runtime = ServiceRuntime::Start(options).value();
    runtime->AddUser("u", "p", 1);
    client = runtime->MakeClient();
    auto cred = client->Login("u", "p");
    auto cid = client->CreateContainer(*cred);
    cap = *client->GetCap(*cred, *cid, security::kOpAll);
    oid = *client->CreateObject(0, cap);
  }
};

VerifyMode ModeOf(std::int64_t arg) {
  switch (arg) {
    case 0: return VerifyMode::kAuthzEveryRequest;
    case 2: return VerifyMode::kSharedKey;
    default: return VerifyMode::kAuthzWithCache;
  }
}

const char* ModeLabel(std::int64_t arg) {
  switch (arg) {
    case 0: return "verify-every-request";
    case 2: return "shared-key (NASD/T10)";
    default: return "cap-cache (LWFS)";
  }
}

void BM_CreateObject(benchmark::State& state) {
  Stack stack(ModeOf(state.range(0)));
  for (auto _ : state) {
    auto oid = stack.client->CreateObject(0, stack.cap);
    if (!oid.ok()) state.SkipWithError("create failed");
  }
  state.counters["remote_verifies"] = static_cast<double>(
      stack.runtime->storage_server(0).metrics()->Snapshot().Get(
          "remote_verifies"));
  state.SetLabel(ModeLabel(state.range(0)));
}
BENCHMARK(BM_CreateObject)->Arg(1)->Arg(0)->Arg(2);

void BM_Write64K(benchmark::State& state) {
  Stack stack(ModeOf(state.range(0)));
  Buffer data = PatternBuffer(64 << 10, 1);
  for (auto _ : state) {
    Status s = stack.client->WriteObject(0, stack.cap, stack.oid, 0,
                                         ByteSpan(data));
    if (!s.ok()) state.SkipWithError("write failed");
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          (64 << 10));
  state.SetLabel(ModeLabel(state.range(0)));
}
BENCHMARK(BM_Write64K)->Arg(1)->Arg(0)->Arg(2);

void BM_Read64K(benchmark::State& state) {
  Stack stack(ModeOf(state.range(0)));
  Buffer data = PatternBuffer(64 << 10, 1);
  (void)stack.client->WriteObject(0, stack.cap, stack.oid, 0, ByteSpan(data));
  Buffer out(64 << 10, 0);
  for (auto _ : state) {
    auto n = stack.client->ReadObject(0, stack.cap, stack.oid, 0,
                                      MutableByteSpan(out));
    if (!n.ok()) state.SkipWithError("read failed");
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          (64 << 10));
  state.SetLabel(ModeLabel(state.range(0)));
}
BENCHMARK(BM_Read64K)->Arg(1)->Arg(0)->Arg(2);

// Amortization curve: K operations per freshly-acquired capability.  The
// cache pays one verify per K ops; without it, K verifies.
void BM_OpsPerFreshCap(benchmark::State& state) {
  Stack stack(VerifyMode::kAuthzWithCache);
  auto client = stack.runtime->MakeClient();
  auto cred = client->Login("u", "p");
  const auto k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto cap = client->GetCap(*cred, stack.cap.cid, security::kOpCreate);
    if (!cap.ok()) {
      state.SkipWithError("getcap failed");
      break;
    }
    for (int i = 0; i < k; ++i) {
      auto oid = client->CreateObject(0, *cap);
      if (!oid.ok()) state.SkipWithError("create failed");
    }
  }
  state.counters["ops_per_cap"] = k;
}
BENCHMARK(BM_OpsPerFreshCap)->Arg(1)->Arg(8)->Arg(64);

}  // namespace

BENCHMARK_MAIN();

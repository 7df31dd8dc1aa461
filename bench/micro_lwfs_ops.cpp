// E8: micro-benchmarks of the real LWFS stack — per-operation latencies of
// the core API over the in-process portals fabric.  These are supporting
// numbers (the paper's Figures are cluster-scale and run on the simulator);
// they demonstrate the library itself is usable and show where software
// time goes.
#include <benchmark/benchmark.h>

#include <atomic>

#include "core/runtime.h"
#include "pfs/pfs_runtime.h"

namespace {

using namespace lwfs;
using namespace lwfs::core;

struct Stack {
  std::unique_ptr<ServiceRuntime> runtime;
  std::unique_ptr<Client> client;
  security::Credential cred;
  storage::ContainerId cid;
  security::Capability cap;

  Stack() {
    RuntimeOptions options;
    options.storage_servers = 4;
    runtime = ServiceRuntime::Start(options).value();
    runtime->AddUser("u", "p", 1);
    client = runtime->MakeClient();
    cred = *client->Login("u", "p");
    cid = *client->CreateContainer(cred);
    cap = *client->GetCap(cred, cid, security::kOpAll);
  }
};

Stack& SharedStack() {
  static Stack stack;
  return stack;
}

void BM_Login(benchmark::State& state) {
  Stack& s = SharedStack();
  for (auto _ : state) {
    auto cred = s.client->Login("u", "p");
    if (!cred.ok()) state.SkipWithError("login failed");
  }
}
BENCHMARK(BM_Login);

void BM_GetCap(benchmark::State& state) {
  Stack& s = SharedStack();
  for (auto _ : state) {
    auto cap = s.client->GetCap(s.cred, s.cid, security::kOpRead);
    if (!cap.ok()) state.SkipWithError("getcap failed");
  }
}
BENCHMARK(BM_GetCap);

void BM_ObjectCreate(benchmark::State& state) {
  Stack& s = SharedStack();
  for (auto _ : state) {
    auto oid = s.client->CreateObject(0, s.cap);
    if (!oid.ok()) state.SkipWithError("create failed");
  }
}
BENCHMARK(BM_ObjectCreate);

void BM_Write(benchmark::State& state) {
  Stack& s = SharedStack();
  auto oid = *s.client->CreateObject(1, s.cap);
  Buffer data = PatternBuffer(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    Status st = s.client->WriteObject(1, s.cap, oid, 0, ByteSpan(data));
    if (!st.ok()) state.SkipWithError("write failed");
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Write)->Arg(4 << 10)->Arg(64 << 10)->Arg(1 << 20)->Arg(8 << 20);

void BM_Read(benchmark::State& state) {
  Stack& s = SharedStack();
  auto oid = *s.client->CreateObject(2, s.cap);
  const auto n = static_cast<std::size_t>(state.range(0));
  Buffer data = PatternBuffer(n, 2);
  (void)s.client->WriteObject(2, s.cap, oid, 0, ByteSpan(data));
  Buffer out(n, 0);
  for (auto _ : state) {
    auto got = s.client->ReadObject(2, s.cap, oid, 0, MutableByteSpan(out));
    if (!got.ok()) state.SkipWithError("read failed");
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Read)->Arg(4 << 10)->Arg(64 << 10)->Arg(1 << 20)->Arg(8 << 20);

void BM_GetAttr(benchmark::State& state) {
  Stack& s = SharedStack();
  auto oid = *s.client->CreateObject(3, s.cap);
  for (auto _ : state) {
    auto attr = s.client->GetAttr(3, s.cap, oid);
    if (!attr.ok()) state.SkipWithError("getattr failed");
  }
}
BENCHMARK(BM_GetAttr);

void BM_NameLinkLookupUnlink(benchmark::State& state) {
  Stack& s = SharedStack();
  (void)s.client->Mkdir("/bench", true);
  storage::ObjectRef ref{s.cid, 0, storage::ObjectId{1}};
  for (auto _ : state) {
    if (!s.client->LinkName("/bench/x", ref).ok() ||
        !s.client->LookupName("/bench/x").ok() ||
        !s.client->UnlinkName("/bench/x").ok()) {
      state.SkipWithError("naming op failed");
    }
  }
}
BENCHMARK(BM_NameLinkLookupUnlink);

void BM_LockUnlock(benchmark::State& state) {
  Stack& s = SharedStack();
  txn::LockKey key{s.cid.value, 99};
  for (auto _ : state) {
    auto id = s.client->TryLock(key, {0, 100}, txn::LockMode::kExclusive);
    if (!id.ok() || !s.client->Unlock(*id).ok()) {
      state.SkipWithError("lock failed");
    }
  }
}
BENCHMARK(BM_LockUnlock);

void BM_EmptyTransaction(benchmark::State& state) {
  Stack& s = SharedStack();
  TxnParticipants participants;
  participants.storage_servers = {0};
  for (auto _ : state) {
    auto txn = s.client->BeginTxn(0, s.cap, participants);
    if (!txn.ok() || !(*txn)->Commit().ok()) {
      state.SkipWithError("txn failed");
    }
  }
}
BENCHMARK(BM_EmptyTransaction);

void BM_TransactionalCreateAndName(benchmark::State& state) {
  // The Figure 8 inner loop: create + write + name inside one transaction.
  Stack& s = SharedStack();
  (void)s.client->Mkdir("/txbench", true);
  Buffer data = PatternBuffer(64 << 10, 3);
  static std::atomic<int> counter{0};
  for (auto _ : state) {
    TxnParticipants participants;
    participants.storage_servers = {0};
    participants.naming = true;
    auto txn = s.client->BeginTxn(0, s.cap, participants);
    auto oid = s.client->CreateObject(0, s.cap, (*txn)->id());
    if (!oid.ok()) {
      state.SkipWithError("create failed");
      break;
    }
    (void)s.client->WriteObject(0, s.cap, *oid, 0, ByteSpan(data));
    (void)s.client->StageLinkName(
        (*txn)->id(), "/txbench/o" + std::to_string(counter.fetch_add(1)),
        storage::ObjectRef{s.cid, 0, *oid});
    if (!(*txn)->Commit().ok()) state.SkipWithError("commit failed");
  }
}
BENCHMARK(BM_TransactionalCreateAndName);

// PFS baseline comparison points on the identical substrate.
void BM_PfsCreate(benchmark::State& state) {
  static auto core = core::ServiceRuntime::Start({}).value();
  static auto runtime = pfs::PfsRuntime::Start(core.get(), {}).value();
  auto client = runtime->MakeClient();
  static std::atomic<int> counter{0};
  for (auto _ : state) {
    auto file =
        client->Create("/bench" + std::to_string(counter.fetch_add(1)), 1);
    if (!file.ok()) state.SkipWithError("pfs create failed");
  }
}
BENCHMARK(BM_PfsCreate);

}  // namespace

BENCHMARK_MAIN();

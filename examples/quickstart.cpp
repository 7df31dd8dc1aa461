// Quickstart: stand up an in-process LWFS deployment, authenticate, create
// a container, acquire capabilities, and do capability-checked object I/O
// directly against a storage server — the Figure 8 MAIN() prologue plus a
// first write/read.
//
//   $ ./quickstart
#include <cstdio>

#include "core/runtime.h"

using namespace lwfs;

int main() {
  // 1. Start the LWFS-core services: authentication, authorization, four
  //    storage servers, plus the optional naming and lock services.
  core::RuntimeOptions options;
  options.storage_servers = 4;
  auto runtime = core::ServiceRuntime::Start(options);
  if (!runtime.ok()) {
    std::fprintf(stderr, "runtime: %s\n", runtime.status().ToString().c_str());
    return 1;
  }
  (*runtime)->AddUser("alice", "secret", /*uid=*/1001);
  std::printf("LWFS deployment up: authn, authz, naming, locks, %d storage servers\n",
              (*runtime)->storage_count());

  // 2. Authenticate: a transferable credential, verifiable only by the
  //    authentication service.
  auto client = (*runtime)->MakeClient();
  auto cred = client->Login("alice", "secret").value();
  std::printf("logged in: uid=%llu cred_id=%llu\n",
              static_cast<unsigned long long>(cred.uid),
              static_cast<unsigned long long>(cred.cred_id));

  // 3. Create a container (the unit of access control) and get a
  //    capability covering the operations we need.
  auto cid = client->CreateContainer(cred).value();
  auto cap = client->GetCap(cred, cid, security::kOpAll).value();
  std::printf("container %llu, capability ops=%s\n",
              static_cast<unsigned long long>(cid.value),
              security::OpMaskToString(cap.ops).c_str());

  // 4. Talk to a storage server directly — no metadata server in the data
  //    path.  The server pulls the write payload (server-directed I/O).
  const std::uint32_t server = 2;  // our choice: distribution is app policy
  auto oid = client->CreateObject(server, cap).value();
  Buffer data = PatternBuffer(1 << 20, /*seed=*/42);
  Status written = client->WriteObject(server, cap, oid, 0, ByteSpan(data));
  std::printf("wrote %zu bytes to object %llu on server %u: %s\n", data.size(),
              static_cast<unsigned long long>(oid.value), server,
              written.ToString().c_str());

  Buffer back(data.size(), 0);
  const std::uint64_t n =
      client->ReadObject(server, cap, oid, 0, MutableByteSpan(back)).value();
  std::printf("read back %llu bytes, match=%s\n",
              static_cast<unsigned long long>(n), back == data ? "yes" : "NO");

  // 5. Optionally give the object a name through the naming service.
  (void)client->Mkdir("/demo", true);
  (void)client->LinkName("/demo/first-object",
                         storage::ObjectRef{cid, server, oid});
  auto ref = client->LookupName("/demo/first-object").value();
  std::printf("named it /demo/first-object -> server %u object %llu\n",
              ref.server_index, static_cast<unsigned long long>(ref.oid.value));

  // 6. The capability cache at work: repeated operations cost no extra
  //    authorization traffic.
  for (int i = 0; i < 10; ++i) (void)client->CreateObject(server, cap);
  auto& ss = (*runtime)->storage_server(static_cast<int>(server));
  std::printf("server %u: %llu remote verifies, %llu cap-cache hits\n", server,
              static_cast<unsigned long long>(
                  ss.metrics()->Snapshot().Get("remote_verifies")),
              static_cast<unsigned long long>(ss.cap_cache().hits()));
  return back == data ? 0 : 1;
}

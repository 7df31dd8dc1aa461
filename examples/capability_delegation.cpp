// Security walk-through (§3.1): transferable credentials and capabilities,
// delegation to another process, storage-side caching, and immediate,
// *partial* revocation on a policy change.
//
//   $ ./capability_delegation
#include <cstdio>

#include "core/runtime.h"

using namespace lwfs;

namespace {

void Show(const char* what, const Status& s) {
  std::printf("  %-46s -> %s\n", what, s.ToString().c_str());
}

}  // namespace

int main() {
  core::RuntimeOptions options;
  options.storage_servers = 2;
  auto runtime = core::ServiceRuntime::Start(options).value();
  runtime->AddUser("alice", "pw-a", 100);
  runtime->AddUser("bob", "pw-b", 200);

  // Alice owns a container holding a dataset.
  auto alice = runtime->MakeClient();
  auto alice_cred = alice->Login("alice", "pw-a").value();
  auto cid = alice->CreateContainer(alice_cred).value();
  auto alice_cap = alice->GetCap(alice_cred, cid, security::kOpAll).value();
  auto oid = alice->CreateObject(0, alice_cap).value();
  Buffer data = PatternBuffer(4096, 1);
  (void)alice->WriteObject(0, alice_cap, oid, 0, ByteSpan(data));
  std::printf("alice: container %llu, dataset object %llu\n\n",
              static_cast<unsigned long long>(cid.value),
              static_cast<unsigned long long>(oid.value));

  // --- Grant + delegation ---------------------------------------------------
  // Alice grants bob read+write on the container; bob acquires his own
  // capabilities with his own credential.
  (void)alice->SetGrant(alice_cred, cid, 200,
                        security::kOpRead | security::kOpWrite);
  auto bob = runtime->MakeClient();
  auto bob_cred = bob->Login("bob", "pw-b").value();
  auto bob_read = bob->GetCap(bob_cred, cid, security::kOpRead).value();
  auto bob_write = bob->GetCap(bob_cred, cid, security::kOpWrite).value();
  std::printf("bob acquired caps: read=%s write=%s\n",
              security::OpMaskToString(bob_read.ops).c_str(),
              security::OpMaskToString(bob_write.ops).c_str());

  Show("bob reads the dataset",
       core::Await(bob->ReadObjectAsync(0, bob_read, oid, {{0, 16}})).status());
  Show("bob writes the dataset",
       bob->WriteObject(0, bob_write, oid, 0, ByteSpan(data)));
  Show("bob tries to create (not granted)",
       bob->CreateObject(0, bob_write).status());

  // Capabilities are fully transferable: a third process holding the raw
  // bytes of bob's read capability can use it (delegation without any
  // server involvement, §3.1.2).
  Encoder wire;
  bob_read.Encode(wire);
  Decoder dec(wire.buffer());
  auto transferred = security::Capability::Decode(dec).value();
  auto third = runtime->MakeClient();
  Show("a third process uses bob's transferred cap",
       core::Await(third->ReadObjectAsync(0, transferred, oid, {{0, 16}}))
           .status());

  // --- Caching ---------------------------------------------------------------
  auto& server = runtime->storage_server(0);
  std::printf("\nstorage server 0: remote verifies so far = %llu "
              "(each cap verified once, then cached)\n",
              static_cast<unsigned long long>(
                  server.metrics()->Snapshot().Get("remote_verifies")));

  // --- Immediate partial revocation ("chmod", §3.1.4) -------------------------
  std::printf("\nalice revokes bob's WRITE access (keeps read):\n");
  (void)alice->SetGrant(alice_cred, cid, 200, security::kOpRead);
  Show("bob writes after chmod (cached cap invalidated)",
       bob->WriteObject(0, bob_write, oid, 0, ByteSpan(data)));
  Show("bob still reads after chmod",
       core::Await(bob->ReadObjectAsync(0, bob_read, oid, {{0, 16}})).status());

  // --- Forgery resistance -------------------------------------------------------
  std::printf("\nforgery attempts:\n");
  security::Capability forged = bob_read;
  forged.ops = security::kOpAll;  // escalate ops; tag no longer matches
  Show("bob escalates his read cap to all-ops",
       bob->CreateObject(0, forged).status());
  forged = bob_read;
  forged.expires_us += 3600LL * 1000 * 1000;  // extend lifetime
  Show("bob extends his cap's lifetime",
       core::Await(bob->ReadObjectAsync(0, forged, oid, {{0, 16}})).status());

  // --- Credential revocation (application exit) ----------------------------------
  std::printf("\nalice's application exits; its credential is revoked:\n");
  (void)alice->RevokeCred(alice_cred.cred_id);
  Show("alice's credential used after revocation",
       alice->GetCap(alice_cred, cid, security::kOpRead).status());
  return 0;
}

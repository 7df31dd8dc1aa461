// Decoder fuzzing: every wire-format decoder in the system is fed random
// and mutated byte streams.  Decoders must return clean errors or valid
// objects — never crash, loop, or read out of bounds.  (Run under ASan in
// CI for full effect; the assertions here catch logic-level failures.)
#include <gtest/gtest.h>

#include "core/filters.h"
#include "core/protocol.h"
#include "core/runtime.h"
#include "naming/naming.h"
#include "pfs/pfs_runtime.h"
#include "pfs/protocol.h"
#include "rpc/rpc.h"
#include "security/types.h"
#include "txn/journal.h"
#include "util/rng.h"

namespace lwfs {
namespace {

/// Random buffers, sizes biased toward "almost right".
std::vector<Buffer> FuzzCases(std::uint64_t seed, std::size_t typical_size) {
  Rng rng(seed);
  std::vector<Buffer> cases;
  cases.push_back({});  // empty
  for (int i = 0; i < 400; ++i) {
    std::size_t n;
    const double roll = rng.NextDouble();
    if (roll < 0.3) {
      n = rng.NextBelow(typical_size + 1);  // short
    } else if (roll < 0.8) {
      n = typical_size + rng.NextBelow(8) - 4;  // near-exact
    } else {
      n = typical_size + rng.NextBelow(200);  // long
    }
    cases.push_back(PatternBuffer(n, rng.NextU64()));
  }
  return cases;
}

TEST(WireFuzzTest, CredentialDecoder) {
  for (const Buffer& raw : FuzzCases(1, 48)) {
    Decoder dec(raw);
    auto result = security::Credential::Decode(dec);
    if (result.ok()) {
      // Valid shape: re-encoding must reproduce the consumed bytes.
      Encoder enc;
      result->Encode(enc);
      EXPECT_EQ(enc.size(), 48u);
    }
  }
}

TEST(WireFuzzTest, CapabilityDecoder) {
  for (const Buffer& raw : FuzzCases(2, 60)) {
    Decoder dec(raw);
    auto result = security::Capability::Decode(dec);
    if (result.ok()) {
      Encoder enc;
      result->Encode(enc);
      EXPECT_EQ(enc.size(), 60u);
    }
  }
}

TEST(WireFuzzTest, FilterSpecDecoder) {
  for (const Buffer& raw : FuzzCases(3, 40)) {
    Decoder dec(raw);
    (void)core::FilterSpec::Decode(dec);
  }
}

TEST(WireFuzzTest, ObjectRefAndAttrDecoders) {
  for (const Buffer& raw : FuzzCases(4, 20)) {
    Decoder d1(raw);
    (void)storage::ObjectRef::Decode(d1);
    Decoder d2(raw);
    (void)storage::ObjAttr::Decode(d2);
  }
}

TEST(WireFuzzTest, PfsLayoutDecoder) {
  for (const Buffer& raw : FuzzCases(5, 32)) {
    Decoder dec(raw);
    auto layout = pfs::Layout::Decode(dec);
    if (layout.ok()) {
      // A "valid" random layout must still have a sane stripe count (the
      // count field is bounds-checked against the remaining bytes).
      EXPECT_LE(layout->stripes.size(), raw.size());
    }
  }
}

TEST(WireFuzzTest, JournalToleratesArbitraryObjectContents) {
  storage::MemObjectStore store;
  Rng rng(6);
  for (int i = 0; i < 200; ++i) {
    auto oid = store.Create(storage::ContainerId{1}).value();
    Buffer garbage = PatternBuffer(rng.NextBelow(400), rng.NextU64());
    ASSERT_TRUE(store.Write(oid, 0, ByteSpan(garbage)).ok());
    txn::Journal journal(&store, oid);
    // Reads either parse a prefix or report corruption; both are fine.
    (void)journal.ReadAll();
    (void)journal.Outcome(1);
    (void)journal.Unfinished();
  }
}

TEST(WireFuzzTest, NamespaceSnapshotDecoder) {
  Rng rng(7);
  naming::NamingService victim;
  ASSERT_TRUE(victim.Mkdir("/live").ok());
  for (int i = 0; i < 300; ++i) {
    Buffer garbage = PatternBuffer(rng.NextBelow(300), rng.NextU64());
    (void)victim.Restore(ByteSpan(garbage));
    // A failed restore must never damage the live namespace.
    ASSERT_TRUE(victim.Exists("/live")) << "iteration " << i;
  }
  // Mutated valid snapshots: flip bytes of a real one.
  naming::NamingService source;
  ASSERT_TRUE(source.Mkdir("/a").ok());
  ASSERT_TRUE(source.Link("/a/x", storage::ObjectRef{storage::ContainerId{1},
                                                     0, storage::ObjectId{2}})
                  .ok());
  Buffer snapshot = source.Serialize();
  for (std::size_t b = 0; b < snapshot.size(); ++b) {
    Buffer mutated = snapshot;
    mutated[b] ^= 0xFF;
    naming::NamingService target;
    ASSERT_TRUE(target.Mkdir("/keep").ok());
    Status s = target.Restore(ByteSpan(mutated));
    if (!s.ok()) {
      ASSERT_TRUE(target.Exists("/keep"));
    }
  }
}

/// One live RPC endpoint to fuzz: where it is, what it serves, which portal.
struct FuzzEndpoint {
  const char* name;
  portals::Nid nid;
  std::vector<rpc::Opcode> opcodes;
  portals::PortalIndex portal = rpc::kRequestPortal;
};

/// Fire random and truncated bodies at every opcode a live deployment
/// actually registered — the op registry itself enumerates the fuzz
/// surface, so a newly added op is fuzzed the day it appears.  Every call
/// must resolve to a clean status (almost always kInvalidArgument from the
/// dispatch middleware, or a denial), and the deployment must stay
/// functional afterwards.
TEST(WireFuzzTest, LiveDispatchSurvivesRandomRequestBodies) {
  core::RuntimeOptions options;
  options.storage_servers = 1;
  auto runtime = core::ServiceRuntime::Start(options);
  ASSERT_TRUE(runtime.ok());
  auto pfs_runtime = pfs::PfsRuntime::Start(runtime->get(), {});
  ASSERT_TRUE(pfs_runtime.ok());

  const core::Deployment& dep = (*runtime)->deployment();
  std::vector<FuzzEndpoint> endpoints;
  endpoints.push_back(
      {"authn", dep.authn, (*runtime)->authn_server().registered_opcodes()});
  endpoints.push_back(
      {"authz", dep.authz, (*runtime)->authz_server().registered_opcodes()});
  endpoints.push_back(
      {"naming", dep.naming,
       (*runtime)->naming_server().registered_opcodes()});
  endpoints.push_back(
      {"locks", dep.locks, (*runtime)->lock_server().registered_opcodes()});
  endpoints.push_back(
      {"storage", dep.storage[0],
       (*runtime)->storage_server(0).registered_data_opcodes()});
  endpoints.push_back(
      {"storage_ctl", dep.storage[0],
       (*runtime)->storage_server(0).registered_control_opcodes(),
       rpc::kControlPortal});
  const pfs::PfsDeployment& pfs_dep = (*pfs_runtime)->deployment();
  endpoints.push_back({"mds", pfs_dep.mds,
                       (*pfs_runtime)->mds_server().registered_opcodes()});

  rpc::RpcClient raw((*runtime)->fabric().CreateNic());
  Rng rng(8);
  std::size_t total_ops = 0;
  for (const FuzzEndpoint& ep : endpoints) {
    EXPECT_FALSE(ep.opcodes.empty()) << ep.name;
    for (rpc::Opcode op : ep.opcodes) {
      ++total_ops;
      for (const Buffer& body : FuzzCases(rng.NextU64(), 64)) {
        rpc::CallOptions call;
        call.request_portal = ep.portal;
        auto reply = raw.Call(ep.nid, op, ByteSpan(body), call);
        if (!reply.ok()) {
          // Transport-level failure modes (timeouts, circuit breaker) would
          // mean the fuzz crashed or wedged the server; a clean dispatch
          // rejection never looks like one.
          EXPECT_NE(reply.status().code(), ErrorCode::kTimeout)
              << ep.name << " op " << op;
          EXPECT_NE(reply.status().code(), ErrorCode::kUnavailable)
              << ep.name << " op " << op;
        }
      }
    }
  }
  // The registry spans both stacks (sanity check on the enumeration).
  EXPECT_GE(total_ops, 40u);

  // Everything still works end to end after the storm.
  (*runtime)->AddUser("fuzz", "pw", 1);
  auto client = (*runtime)->MakeClient();
  auto cred = client->Login("fuzz", "pw");
  ASSERT_TRUE(cred.ok());
  auto cid = client->CreateContainer(*cred);
  ASSERT_TRUE(cid.ok());
  auto pfs_client = (*pfs_runtime)->MakeClient();
  auto file = pfs_client->Create("/fuzz-after", 1);
  ASSERT_TRUE(file.ok());
}

TEST(WireFuzzTest, DecoderNeverReadsPastEnd) {
  // Adversarial length prefixes: claim huge payloads.
  Encoder enc;
  enc.PutU32(0xFFFFFFFF);
  enc.PutU8(1);
  Decoder dec(enc.buffer());
  EXPECT_FALSE(dec.GetBytes().ok());
  EXPECT_FALSE(dec.GetRaw(1u << 30).ok());
}

}  // namespace
}  // namespace lwfs

// Tests for the typed op-spec service framework (rpc/service.h): codec
// round-trips, truncation rejection and pinned bytes for every registered
// wire message and stored record, duplicate-registration fail-fast, opcode-family hygiene, middleware
// metrics, and authorization-before-handler ordering.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "checkpoint/checkpoint.h"

#include "core/protocol.h"
#include "core/runtime.h"
#include "core/wire.h"
#include "libio/dataset.h"
#include "lwfsfs/lwfsfs.h"
#include "naming/naming.h"
#include "pfs/pfs_runtime.h"
#include "pfs/wire.h"
#include "rpc/rpc.h"
#include "rpc/service.h"
#include "storage/object_store.h"
#include "txn/journal.h"
#include "util/clock.h"
#include "util/shared_buffer.h"
#include "test_io.h"

namespace lwfs {
namespace {

/// The records the system stores rather than sends: each is read back from
/// bytes an earlier process (or another holder of the container's write
/// capability) wrote.
std::vector<rpc::CodecCase> StoredRecordCases() {
  const storage::ObjectRef ref{storage::ContainerId{11}, 2,
                               storage::ObjectId{907}};
  std::vector<rpc::CodecCase> cases;
  cases.push_back(rpc::MakeCodecCase(
      "pfs_layout",
      pfs::Layout{1u << 20,
                  {pfs::StripeTarget{0, storage::ObjectId{11}},
                   pfs::StripeTarget{3, storage::ObjectId{12}}}}));
  cases.push_back(rpc::MakeCodecCase(
      "lwfsfs_inode",
      fs::Inode{fs::kInodeMagic,
                pfs::Layout{65536,
                            {pfs::StripeTarget{1, storage::ObjectId{907}},
                             pfs::StripeTarget{2, storage::ObjectId{908}}}},
                123456}));
  cases.push_back(rpc::MakeCodecCase(
      "snapshot_node",
      naming::SnapshotNode{naming::DirEntry{"file", false, ref}, 0}));
  cases.push_back(rpc::MakeCodecCase(
      "checkpoint_metadata",
      checkpoint::CheckpointMetadata{
          {checkpoint::CheckpointEntry{ref, 65536},
           checkpoint::CheckpointEntry{
               storage::ObjectRef{storage::ContainerId{11}, 3,
                                  storage::ObjectId{908}},
               4096}}}));
  cases.push_back(rpc::MakeCodecCase(
      "object_meta",
      storage::ObjectMeta{storage::ObjectId{907},
                          storage::ObjAttr{storage::ContainerId{31337},
                                           65536, 3}}));
  cases.push_back(rpc::MakeCodecCase(
      "journal_record",
      txn::JournalRecord{txn::RecordType::kCommit, 555, Buffer{1, 2, 3}}));
  cases.push_back(rpc::MakeCodecCase(
      "journal_participants",
      txn::BeginPayload{{"naming", "storage.0"}}));
  cases.push_back(rpc::MakeCodecCase(
      "dataset_header",
      io::DatasetHeader{io::kDatasetMagic, 8, {4, 16},
                        {{"units", "K"}, {"var", "temp"}}}));
  return cases;
}

std::vector<rpc::CodecCase> AllCases() {
  std::vector<rpc::CodecCase> cases = core::wire::CoreWireCases();
  for (const auto& more : {pfs::wire::PfsWireCases(), StoredRecordCases()}) {
    cases.insert(cases.end(), more.begin(), more.end());
  }
  return cases;
}

/// Every case's encoding, in hex, as the hand-written codecs produced it
/// before the declarative codec (util/codec.h) replaced them.  A change
/// here is a wire or storage format change: old peers and old stored
/// records would no longer parse.
const std::map<std::string, std::string>& PinnedHex() {
  static const auto* pins = new std::map<std::string, std::string>{
      {"login_req",
       "05000000616c69636506000000733363726574"},
      {"credential_rep",
       "88776655443322119210000000000000070000000000000000401e18240a06000df0fecaefbeaddeefcdab8967452301"},
      {"revoke_cred_req",
       "8877665544332211"},
      {"create_container_req",
       "88776655443322119210000000000000070000000000000000401e18240a06000df0fecaefbeaddeefcdab8967452301"},
      {"create_container_rep",
       "4d00000000000000"},
      {"get_cap_req",
       "88776655443322119210000000000000070000000000000000401e18240a06000df0fecaefbeaddeefcdab89674523014d000000000000001f000000"},
      {"capability_rep",
       "00ffeeddccbbaa99697a000000000000030000009210000000000000030000000000000001401e18240a0600cefaedfecefaedfe5a5a5a5a5a5a5a5a"},
      {"verify_cap_req",
       "0900000000ffeeddccbbaa99697a000000000000030000009210000000000000030000000000000001401e18240a0600cefaedfecefaedfe5a5a5a5a5a5a5a5a"},
      {"set_grant_req",
       "88776655443322119210000000000000070000000000000000401e18240a06000df0fecaefbeaddeefcdab89674523014d000000000000001f1400000000000001000000"},
      {"revoke_cap_req",
       "88776655443322119210000000000000070000000000000000401e18240a06000df0fecaefbeaddeefcdab896745230100ffeeddccbbaa99"},
      {"refresh_cap_req",
       "88776655443322119210000000000000070000000000000000401e18240a06000df0fecaefbeaddeefcdab896745230100ffeeddccbbaa99697a000000000000030000009210000000000000030000000000000001401e18240a0600cefaedfecefaedfe5a5a5a5a5a5a5a5a"},
      {"obj_create_req",
       "00ffeeddccbbaa99697a000000000000030000009210000000000000030000000000000001401e18240a0600cefaedfecefaedfe5a5a5a5a5a5a5a5a0c00000000000000"},
      {"obj_create_rep",
       "8b03000000000000"},
      {"obj_write_req",
       "00ffeeddccbbaa99697a000000000000030000009210000000000000030000000000000001401e18240a0600cefaedfecefaedfe5a5a5a5a5a5a5a5a8b03000000000000001000000000000002000000efbeadde04030201"},
      {"io_moved_rep",
       "0000010000000000"},
      {"obj_read_req",
       "00ffeeddccbbaa99697a000000000000030000009210000000000000030000000000000001401e18240a0600cefaedfecefaedfe5a5a5a5a5a5a5a5a8b0300000000000000000000000000000000010000000000"},
      {"obj_remove_req",
       "00ffeeddccbbaa99697a000000000000030000009210000000000000030000000000000001401e18240a0600cefaedfecefaedfe5a5a5a5a5a5a5a5a8b030000000000000000000000000000"},
      {"obj_getattr_req",
       "00ffeeddccbbaa99697a000000000000030000009210000000000000030000000000000001401e18240a0600cefaedfecefaedfe5a5a5a5a5a5a5a5a8b03000000000000"},
      {"obj_attr_rep",
       "697a00000000000000000100000000000300000000000000"},
      {"obj_list_req",
       "00ffeeddccbbaa99697a000000000000030000009210000000000000030000000000000001401e18240a0600cefaedfecefaedfe5a5a5a5a5a5a5a5a"},
      {"obj_list_rep",
       "040000000100000000000000020000000000000003000000000000008b03000000000000"},
      {"obj_filter_req",
       "00ffeeddccbbaa99697a000000000000030000009210000000000000030000000000000001401e18240a0600cefaedfecefaedfe5a5a5a5a5a5a5a5a8b0300000000000000000000000000000000010000000000040000000400000000000000000000000000e03f000000000000f0bf000000000000f03f20000000"},
      {"obj_filter_rep",
       "00010000000000000000010000000000"},
      {"obj_truncate_req",
       "00ffeeddccbbaa99697a000000000000030000009210000000000000030000000000000001401e18240a0600cefaedfecefaedfe5a5a5a5a5a5a5a5a8b030000000000000004000000000000"},
      {"obj_create_at_req",
       "00ffeeddccbbaa99697a000000000000030000009210000000000000030000000000000001401e18240a0600cefaedfecefaedfe5a5a5a5a5a5a5a5a11000000000000402b02000000000000"},
      {"replica_write_req",
       "00ffeeddccbbaa99697a000000000000030000009210000000000000030000000000000001401e18240a0600cefaedfecefaedfe5a5a5a5a5a5a5a5a1100000000000040001000000000000002000000010000000110000000000000020000000210000000000000"},
      {"replica_write_rep",
       "030000000000000001000000020000000900000000000000"},
      {"txn_req",
       "2b02000000000000"},
      {"txn_vote_rep",
       "01"},
      {"invalidate_caps_req",
       "0300000000ffeeddccbbaa9901000000000000000200000000000000"},
      {"repair_probe_req",
       "0200000011000000000000401200000000000040"},
      {"repair_probe_rep",
       "020000001100000000000040010400000000000000000001000000000012000000000000400000000000000000000000000000000000"},
      {"repair_read_req",
       "110000000000004000000000000000000000010000000000"},
      {"repair_read_rep",
       "000001000000000004000000000000000000020000000000"},
      {"repair_write_req",
       "1100000000000040697a00000000000000000100000000000400000000000000"},
      {"repair_write_rep",
       "0500000000000000"},
      {"mkdir_req",
       "060000002f612f622f6301"},
      {"link_req",
       "090000002f612f622f66696c650b00000000000000020000008b03000000000000"},
      {"stage_link_req",
       "2b02000000000000090000002f612f622f66696c650b00000000000000020000008b03000000000000"},
      {"path_req",
       "090000002f612f622f66696c65"},
      {"object_ref_rep",
       "0b00000000000000020000008b03000000000000"},
      {"rename_req",
       "090000002f612f622f66696c65040000002f612f63"},
      {"list_names_rep",
       "020000000300000064697201000400000066696c6500010b00000000000000020000008b03000000000000"},
      {"stage_unlink_req",
       "2b02000000000000090000002f612f622f66696c65"},
      {"shard_map_rep",
       "0900000000000000040000000300000007000000040000000800000005000000000000000600000000000000"},
      {"replica_place_req",
       "697a0000000000000100000003000000"},
      {"replica_chain_rep",
       "1100000000000040697a00000000000003000000010000000200000000000000"},
      {"replica_lookup_req",
       "1100000000000040"},
      {"replica_report_req",
       "110000000000004004000000000000000100000002000000"},
      {"replica_audit_rep",
       "0800000000000000060000000000000002000000000000000300000000000000"},
      {"lock_try_req",
       "0b000000000000008b030000000000000000000000000000001000000000000001"},
      {"lock_id_rep",
       "4200000000000000"},
      {"lock_release_req",
       "4200000000000000"},
      {"pfs_create_req",
       "0a0000002f646174612f72756e3102000000"},
      {"pfs_path_req",
       "0a0000002f646174612f72756e31"},
      {"file_attr_rep",
       "292300000000000000001000000000000000010002000000000000000b00000000000000010000000c00000000000000070000000000000003000000000000001f0000002a000000000000000000000000000000000000400000000000000000000000000000000000000000"},
      {"pfs_set_size_req",
       "0a0000002f646174612f72756e310000100000000000"},
      {"pfs_list_rep",
       "030000000400000072756e310400000072756e3204000000636b7074"},
      {"pfs_lock_try_req",
       "29230000000000000000000000000000000001000000000001"},
      {"pfs_lock_id_rep",
       "2900000000000000"},
      {"pfs_lock_release_req",
       "2900000000000000"},
      {"pfs_layout",
       "0000100002000000000000000b00000000000000030000000c00000000000000"},
      {"lwfsfs_inode",
       "4e49464c0000010002000000010000008b03000000000000020000008c0300000000000040e2010000000000"},
      {"snapshot_node",
       "0400000066696c6500010b00000000000000020000008b0300000000000000000000"},
      {"checkpoint_metadata",
       "020000000b00000000000000020000008b0300000000000000000100000000000b00000000000000030000008c030000000000000010000000000000"},
      {"object_meta",
       "8b03000000000000697a00000000000000000100000000000300000000000000"},
      {"journal_record",
       "030000002b0200000000000003000000010203"},
      {"journal_participants",
       "02000000060000006e616d696e670900000073746f726167652e30"},
      {"dataset_header",
       "5441444c0800000002000000040000000000000010000000000000000200000005000000756e697473010000004b030000007661720400000074656d70"}
  };
  return *pins;
}

std::string Hex(const Buffer& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (std::uint8_t b : bytes) {
    hex += kDigits[b >> 4];
    hex += kDigits[b & 15];
  }
  return hex;
}

// ---------------------------------------------------------------------------
// Table-driven codecs
// ---------------------------------------------------------------------------

TEST(ServiceCodecTest, EveryMessageRoundTripsByteIdentical) {
  for (const rpc::CodecCase& c : AllCases()) {
    ASSERT_FALSE(c.encoded.empty()) << c.name;
    auto reencoded = c.decode_reencode(ByteSpan(c.encoded));
    ASSERT_TRUE(reencoded.ok())
        << c.name << ": " << reencoded.status().ToString();
    EXPECT_EQ(*reencoded, c.encoded) << c.name;
  }
}

TEST(ServiceCodecTest, EveryTruncationIsRejectedAsInvalidArgument) {
  for (const rpc::CodecCase& c : AllCases()) {
    for (std::size_t len = 0; len < c.encoded.size(); ++len) {
      auto decoded = c.decode_reencode(ByteSpan(c.encoded.data(), len));
      ASSERT_FALSE(decoded.ok())
          << c.name << " decoded from a " << len << "-byte truncation";
      EXPECT_EQ(decoded.status().code(), ErrorCode::kInvalidArgument)
          << c.name << " at " << len << ": " << decoded.status().ToString();
    }
  }
}

TEST(ServiceCodecTest, EveryEncodingMatchesItsPinnedBytes) {
  const std::vector<rpc::CodecCase> cases = AllCases();
  EXPECT_EQ(cases.size(), PinnedHex().size()) << "a pin without a case";
  for (const rpc::CodecCase& c : cases) {
    auto pin = PinnedHex().find(c.name);
    ASSERT_NE(pin, PinnedHex().end()) << c.name << " has no pinned bytes";
    EXPECT_EQ(Hex(c.encoded), pin->second) << c.name;
  }
}

TEST(ServiceCodecTest, CaseNamesAreUnique) {
  std::vector<std::string> names;
  for (const rpc::CodecCase& c : AllCases()) names.push_back(c.name);
  std::sort(names.begin(), names.end());
  EXPECT_TRUE(std::adjacent_find(names.begin(), names.end()) == names.end());
}

// ---------------------------------------------------------------------------
// Registration hygiene
// ---------------------------------------------------------------------------

TEST(ServiceRegistrationTest, DuplicateOpcodeFailsFast) {
  portals::Fabric fabric;
  rpc::RpcServer server(fabric.CreateNic(), {});
  rpc::Service ops(&server, "dup");
  ops.On<rpc::Void, rpc::Void>(
      core::wire::kLoginOp,
      [](rpc::ServerContext&, rpc::Void&) -> Result<rpc::Void> {
        return rpc::Void{};
      });
  EXPECT_TRUE(ops.init_status().ok());
  ops.On<rpc::Void, rpc::Void>(
      core::wire::kLoginOp,
      [](rpc::ServerContext&, rpc::Void&) -> Result<rpc::Void> {
        return rpc::Void{};
      });
  EXPECT_EQ(ops.init_status().code(), ErrorCode::kAlreadyExists);
  // The underlying server refuses to start with a poisoned handler table.
  EXPECT_FALSE(server.Start().ok());
}

TEST(ServiceRegistrationTest, OpcodeFamiliesAreDisjoint) {
  static_assert(rpc::OpcodeRangesDisjoint());
  core::RuntimeOptions options;
  options.storage_servers = 1;
  auto runtime = core::ServiceRuntime::Start(options);
  ASSERT_TRUE(runtime.ok());
  auto pfs_runtime = pfs::PfsRuntime::Start(runtime->get(), {});
  ASSERT_TRUE(pfs_runtime.ok());

  auto in_range = [](const std::vector<rpc::Opcode>& ops,
                     rpc::OpcodeRange range) {
    return std::all_of(ops.begin(), ops.end(),
                       [range](rpc::Opcode op) { return range.Contains(op); });
  };
  EXPECT_TRUE(in_range((*runtime)->authn_server().registered_opcodes(),
                       rpc::kCoreOpcodeRange));
  EXPECT_TRUE(in_range((*runtime)->authz_server().registered_opcodes(),
                       rpc::kCoreOpcodeRange));
  EXPECT_TRUE(in_range((*runtime)->naming_server().registered_opcodes(),
                       rpc::kCoreOpcodeRange));
  EXPECT_TRUE(in_range((*runtime)->lock_server().registered_opcodes(),
                       rpc::kCoreOpcodeRange));
  EXPECT_TRUE(
      in_range((*runtime)->storage_server(0).registered_data_opcodes(),
               rpc::kCoreOpcodeRange));
  EXPECT_TRUE(
      in_range((*runtime)->storage_server(0).registered_control_opcodes(),
               rpc::kCoreOpcodeRange));
  EXPECT_TRUE(in_range((*pfs_runtime)->mds_server().registered_opcodes(),
                       rpc::kPfsOpcodeRange));
}

// ---------------------------------------------------------------------------
// Middleware behaviour on a live deployment
// ---------------------------------------------------------------------------

class ServiceMiddlewareTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::RuntimeOptions options;
    options.storage_servers = 1;
    auto runtime = core::ServiceRuntime::Start(options);
    ASSERT_TRUE(runtime.ok());
    runtime_ = std::move(*runtime);
    runtime_->AddUser("alice", "pw", 1);
    client_ = runtime_->MakeClient();
    auto cred = client_->Login("alice", "pw");
    ASSERT_TRUE(cred.ok());
    cred_ = *cred;
    auto cid = client_->CreateContainer(cred_);
    ASSERT_TRUE(cid.ok());
    cid_ = *cid;
  }

  /// Deployment-wide total of one op cell, e.g. Op("storage",
  /// "obj_write", "calls") sums storage.<i>.op.obj_write.calls.
  std::uint64_t Op(const std::string& service, const std::string& op,
                   const std::string& cell) {
    const metrics::Snapshot snap = runtime_->metrics()->Snapshot();
    const std::string name = service + ".**.op." + op + "." + cell;
    EXPECT_TRUE(snap.Total(name).kind == metrics::Kind::kCounter) << name;
    return snap.Sum(name);
  }

  std::unique_ptr<core::ServiceRuntime> runtime_;
  std::unique_ptr<core::Client> client_;
  security::Credential cred_;
  storage::ContainerId cid_;
};

TEST_F(ServiceMiddlewareTest, PerOpMetricsCountCallsLatencyAndBulk) {
  auto cap = client_->GetCap(cred_, cid_, security::kOpAll);
  ASSERT_TRUE(cap.ok());
  auto oid = client_->CreateObject(0, *cap);
  ASSERT_TRUE(oid.ok());
  Buffer data = PatternBuffer(64 << 10, 7);
  ASSERT_TRUE(client_->WriteObject(0, *cap, *oid, 0, ByteSpan(data)).ok());
  Buffer out(data.size());
  auto n = client_->ReadObject(0, *cap, *oid, 0, MutableByteSpan(out));
  ASSERT_TRUE(n.ok());

  EXPECT_EQ(Op("storage", "obj_create", "calls"), 1u);
  EXPECT_EQ(Op("storage", "obj_create", "errors"), 0u);
  EXPECT_EQ(Op("storage", "obj_write", "calls"), 1u);
  EXPECT_EQ(Op("storage", "obj_write", "bulk_bytes"), data.size());
  EXPECT_EQ(Op("storage", "obj_read", "calls"), 1u);
  EXPECT_EQ(Op("storage", "obj_read", "bulk_bytes"), data.size());
  EXPECT_EQ(Op("authn", "login", "calls"), 1u);
  // Every call landed in its op's latency histogram.
  const metrics::Value latency = runtime_->metrics()->Snapshot().Total(
      "storage.*.op.obj_write.latency_us");
  EXPECT_EQ(latency.dist.count, 1u);
  EXPECT_LE(latency.dist.Quantile(0.5), latency.dist.max);
  // Client-side mirror: the instrumented stubs tally the same traffic.
  const metrics::Snapshot tallies = client_->metrics()->Snapshot();
  const std::string write_op = "rpc.op." + std::to_string(core::kOpObjWrite);
  ASSERT_TRUE(tallies.cells().contains(write_op + ".calls"));
  EXPECT_EQ(tallies.Get(write_op + ".calls"), 1u);
  EXPECT_EQ(tallies.Get(write_op + ".errors"), 0u);
}

TEST_F(ServiceMiddlewareTest, MalformedRequestIsRejectedUniformly) {
  // Truncated garbage straight at the naming server: the framework must
  // refuse it before any handler runs, with the uniform message shape.
  rpc::RpcClient raw(runtime_->fabric().CreateNic());
  Buffer junk{0xde, 0xad};
  auto reply = raw.Call(runtime_->deployment().naming, core::kOpNameMkdir,
                        ByteSpan(junk));
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(reply.status().message(), "malformed name_mkdir request");

  EXPECT_EQ(Op("naming", "name_mkdir", "calls"), 1u);
  EXPECT_EQ(Op("naming", "name_mkdir", "rejected"), 1u);
  EXPECT_EQ(Op("naming", "name_mkdir", "errors"), 1u);
}

TEST_F(ServiceMiddlewareTest, AuthorizationRunsBeforeHandlerBody) {
  auto read_only = client_->GetCap(cred_, cid_, security::kOpRead);
  ASSERT_TRUE(read_only.ok());
  const std::uint64_t before = runtime_->store(0).ObjectCount();
  auto oid = client_->CreateObject(0, *read_only);
  ASSERT_FALSE(oid.ok());
  EXPECT_EQ(oid.status().code(), ErrorCode::kPermissionDenied);
  // The handler body never ran: no object appeared.
  EXPECT_EQ(runtime_->store(0).ObjectCount(), before);

  EXPECT_EQ(Op("storage", "obj_create", "calls"), 1u);
  EXPECT_EQ(Op("storage", "obj_create", "denied"), 1u);
  EXPECT_EQ(Op("storage", "obj_create", "errors"), 1u);
}

// Two endpoints' cells for one op read as one deployment total: counters
// sum, latency distributions merge (their max is the larger max).
TEST(ServiceStatsTest, SnapshotTotalSumsCountersAndMergesLatency) {
  auto a = std::make_shared<metrics::Registry>();
  auto b = std::make_shared<metrics::Registry>();
  metrics::Registry deployment;
  deployment.Attach("svc.0.op", a);
  deployment.Attach("svc.1.op", b);
  a->counter("op.calls").Add(2);
  a->counter("op.errors").Add(1);
  a->counter("op.bulk_bytes").Add(10);
  a->histogram("op.latency_us").Record(20);
  a->histogram("op.latency_us").Record(80);
  b->counter("op.calls").Add(3);
  b->counter("op.errors").Add(1);
  b->counter("op.bulk_bytes").Add(10);
  b->histogram("op.latency_us").Record(40);
  const metrics::Snapshot snap = deployment.Snapshot();
  EXPECT_EQ(snap.Sum("svc.*.op.op.calls"), 5u);
  EXPECT_EQ(snap.Sum("svc.*.op.op.errors"), 2u);
  EXPECT_EQ(snap.Sum("svc.*.op.op.bulk_bytes"), 20u);
  const metrics::Distribution latency =
      snap.Total("svc.*.op.op.latency_us").dist;
  EXPECT_EQ(latency.count, 3u);
  EXPECT_EQ(latency.sum, 140u);
  EXPECT_EQ(latency.max, 80u);
}

// ---------------------------------------------------------------------------
// Copy budget: the zero-copy data path's "at most one copy" invariant
// ---------------------------------------------------------------------------

// Drives one write+read through a live deployment and asserts the budget
// (staging + store copies) byte-for-byte.  Runs on both time sources: the
// copy count is a data-path property and must not depend on the clock.
void ExerciseCopyBudget(util::Clock* clock) {
  if (!util::CopyStats::Enabled()) {
    GTEST_SKIP() << "built without LWFS_COUNT_COPIES";
  }
  core::RuntimeOptions options;
  options.storage_servers = 1;
  options.clock = clock;
  auto runtime = core::ServiceRuntime::Start(options);
  ASSERT_TRUE(runtime.ok());
  (*runtime)->AddUser("alice", "pw", 1);
  auto client = (*runtime)->MakeClient();
  auto cred = client->Login("alice", "pw");
  ASSERT_TRUE(cred.ok());
  auto cid = client->CreateContainer(*cred);
  ASSERT_TRUE(cid.ok());
  auto cap = client->GetCap(*cred, *cid, security::kOpAll);
  ASSERT_TRUE(cap.ok());
  auto oid = client->CreateObject(0, *cap);
  ASSERT_TRUE(oid.ok());

  const std::size_t n = 256 << 10;
  util::SharedSlice payload =
      util::SharedSlice::FromBuffer(PatternBuffer(n, 42));

  // Zero-copy write: the store-medium copy is the only budgeted copy.
  util::CopySnapshot base = util::CopyStats::Snapshot();
  ASSERT_TRUE(testio::WriteObjectSlice(*client, 0, *cap, *oid, 0,
                                       payload).ok());
  util::CopySnapshot d = util::CopyStats::Snapshot().Since(base);
  EXPECT_EQ(d.bytes_of(util::CopyKind::kStage), 0u) << "write path staged";
  EXPECT_EQ(d.bytes_of(util::CopyKind::kStore), n);
  EXPECT_EQ(d.budget_bytes(), n);  // exactly one copy per byte written

  // Slice read: medium -> store slice is the only budgeted copy; the
  // reply frame hands those same bytes to the client by reference.
  base = util::CopyStats::Snapshot();
  auto slice_read = testio::ReadObjectSlice(*client, 0, *cap, *oid, 0, n);
  ASSERT_TRUE(slice_read.ok());
  ASSERT_EQ(slice_read->size(), n);
  d = util::CopyStats::Snapshot().Since(base);
  EXPECT_EQ(d.bytes_of(util::CopyKind::kStage), 0u) << "slice read staged";
  EXPECT_EQ(d.bytes_of(util::CopyKind::kStore), n);
  EXPECT_EQ(d.budget_bytes(), n);  // exactly one copy per byte read
  EXPECT_EQ(slice_read->ToBuffer(util::CopyKind::kDeliver),
            payload.ToBuffer(util::CopyKind::kDeliver));

  // Span read for contrast: the same slice read, plus the client adapter's
  // one copy of the reply slice into the caller's span, doubling the
  // budget.
  Buffer out(n);
  base = util::CopyStats::Snapshot();
  auto read = client->ReadObject(0, *cap, *oid, 0, MutableByteSpan(out));
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(*read, n);
  d = util::CopyStats::Snapshot().Since(base);
  EXPECT_EQ(d.bytes_of(util::CopyKind::kStage), n) << "span read must stage";
  EXPECT_EQ(d.bytes_of(util::CopyKind::kStore), n);
  EXPECT_EQ(d.budget_bytes(), 2 * n);
  EXPECT_EQ(out, payload.ToBuffer(util::CopyKind::kDeliver));

  // Span write for contrast: the fabric stages the raw span on the pull,
  // doubling the budget.
  base = util::CopyStats::Snapshot();
  Buffer legacy = PatternBuffer(n, 43);
  ASSERT_TRUE(client->WriteObject(0, *cap, *oid, 0, ByteSpan(legacy)).ok());
  d = util::CopyStats::Snapshot().Since(base);
  EXPECT_EQ(d.bytes_of(util::CopyKind::kStage), n);
  EXPECT_EQ(d.bytes_of(util::CopyKind::kStore), n);
  EXPECT_EQ(d.budget_bytes(), 2 * n);
}

TEST(CopyBudgetTest, WriteAndReadPayOneCopyPerByteOnRealTime) {
  ExerciseCopyBudget(nullptr);
}

TEST(CopyBudgetTest, WriteAndReadPayOneCopyPerByteOnVirtualTime) {
  util::VirtualClock clock;
  util::Clock::ThreadGuard guard(&clock);
  ExerciseCopyBudget(&clock);
}

}  // namespace
}  // namespace lwfs

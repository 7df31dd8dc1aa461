// Tests for the typed op-spec service framework (rpc/service.h): codec
// round-trips and truncation rejection for every registered wire message,
// duplicate-registration fail-fast, opcode-family hygiene, middleware
// metrics, and authorization-before-handler ordering.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/protocol.h"
#include "core/runtime.h"
#include "core/wire.h"
#include "pfs/pfs_runtime.h"
#include "pfs/wire.h"
#include "rpc/rpc.h"
#include "rpc/service.h"
#include "util/clock.h"
#include "util/shared_buffer.h"

namespace lwfs {
namespace {

std::vector<rpc::CodecCase> AllCases() {
  std::vector<rpc::CodecCase> cases = core::wire::CoreWireCases();
  std::vector<rpc::CodecCase> pfs_cases = pfs::wire::PfsWireCases();
  cases.insert(cases.end(), std::make_move_iterator(pfs_cases.begin()),
               std::make_move_iterator(pfs_cases.end()));
  return cases;
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

  rpc::OpStats FindOp(const std::string& name) {
    for (const rpc::OpStats& s : runtime_->TotalOpStats()) {
      if (s.name == name) return s;
    }
    ADD_FAILURE() << "op " << name << " not in TotalOpStats()";
    return {};
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

  const rpc::OpStats create = FindOp("storage.obj_create");
  EXPECT_EQ(create.calls, 1u);
  EXPECT_EQ(create.errors, 0u);
  const rpc::OpStats write = FindOp("storage.obj_write");
  EXPECT_EQ(write.calls, 1u);
  EXPECT_EQ(write.bulk_bytes, data.size());
  const rpc::OpStats read = FindOp("storage.obj_read");
  EXPECT_EQ(read.calls, 1u);
  EXPECT_EQ(read.bulk_bytes, data.size());
  const rpc::OpStats login = FindOp("authn.login");
  EXPECT_EQ(login.calls, 1u);
  // Client-side mirror: the instrumented stubs tally the same traffic.
  const auto tallies = client_->rpc_op_tallies();
  ASSERT_TRUE(tallies.count(core::kOpObjWrite));
  EXPECT_EQ(tallies.at(core::kOpObjWrite).calls, 1u);
  EXPECT_EQ(tallies.at(core::kOpObjWrite).errors, 0u);
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

  const rpc::OpStats mkdir = FindOp("naming.name_mkdir");
  EXPECT_EQ(mkdir.calls, 1u);
  EXPECT_EQ(mkdir.rejected, 1u);
  EXPECT_EQ(mkdir.errors, 1u);
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

  const rpc::OpStats create = FindOp("storage.obj_create");
  EXPECT_EQ(create.calls, 1u);
  EXPECT_EQ(create.denied, 1u);
  EXPECT_EQ(create.errors, 1u);
}

TEST(ServiceStatsTest, MergeOpStatsSumsCountersAndTakesLatencyMax) {
  std::vector<rpc::OpStats> total;
  rpc::OpStats a;
  a.opcode = 7;
  a.name = "svc.op";
  a.calls = 2;
  a.errors = 1;
  a.latency_us_total = 100;
  a.latency_us_max = 80;
  a.bulk_bytes = 10;
  rpc::OpStats b = a;
  b.calls = 3;
  b.latency_us_max = 40;
  rpc::MergeOpStats(total, {a});
  rpc::MergeOpStats(total, {b});
  ASSERT_EQ(total.size(), 1u);
  EXPECT_EQ(total[0].calls, 5u);
  EXPECT_EQ(total[0].errors, 2u);
  EXPECT_EQ(total[0].latency_us_total, 200u);
  EXPECT_EQ(total[0].latency_us_max, 80u);
  EXPECT_EQ(total[0].bulk_bytes, 20u);
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
  ASSERT_TRUE(client->WriteObjectSlice(0, *cap, *oid, 0, payload).ok());
  util::CopySnapshot d = util::CopyStats::Snapshot().Since(base);
  EXPECT_EQ(d.bytes_of(util::CopyKind::kStage), 0u) << "write path staged";
  EXPECT_EQ(d.bytes_of(util::CopyKind::kStore), n);
  EXPECT_EQ(d.budget_bytes(), n);  // exactly one copy per byte written

  // Slice read: medium -> store slice is the only budgeted copy; the
  // reply frame hands those same bytes to the client by reference.
  base = util::CopyStats::Snapshot();
  auto slice_read = client->ReadObjectSlice(0, *cap, *oid, 0, n);
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

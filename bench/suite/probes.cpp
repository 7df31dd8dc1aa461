// Layer probes: each lower layer's public call timed alone on a private
// instance, at the sizes the workloads use.  Subtracted from a workload's
// per-op latency they leave the cost no single layer explains.
#include <cstring>
#include <functional>
#include <string>

#include "naming/naming.h"
#include "portals/portals.h"
#include "rpc/rpc.h"
#include "samples.h"
#include "security/authn.h"
#include "security/authz.h"
#include "security/cap_cache.h"
#include "storage/object_store.h"
#include "suite.h"
#include "trace.h"
#include "util/crc32.h"
#include "util/shared_buffer.h"

namespace lwfs::suite {

namespace {

/// Per-call microseconds of `call`, repeated until both `min_calls` calls
/// and `min_seconds` have passed.  Stops at the first failed call.
Result<std::vector<double>> Repeat(int min_calls, double min_seconds,
                                   const std::function<Status()>& call) {
  std::vector<double> us;
  const std::int64_t start = NowNs();
  const auto min_ns = static_cast<std::int64_t>(min_seconds * 1e9);
  for (int i = 0;; ++i) {
    const std::int64_t t0 = NowNs();
    LWFS_RETURN_IF_ERROR(call());
    const std::int64_t t1 = NowNs();
    us.push_back(static_cast<double>(t1 - t0) / 1e3);
    if (i + 1 >= min_calls && t1 - start >= min_ns) break;
  }
  return us;
}

Status Expect(bool ok, const char* what) {
  return ok ? OkStatus() : Internal(std::string("probe: ") + what);
}

double Gbps(std::size_t bytes, double median_us) {
  return static_cast<double>(bytes) / (median_us * 1e3);
}

util::SharedSlice Pattern(std::size_t bytes, std::uint64_t seed) {
  return util::SharedSlice::FromBuffer(PatternBuffer(bytes, seed));
}

Status ProbeUtil(const Sizes& sizes, double secs, ProbeResults& out) {
  const Buffer src = PatternBuffer(sizes.ckpt_rank_bytes, 1);
  Buffer dst(src.size());
  LWFS_ASSIGN_OR_RETURN(auto copy, Repeat(3, secs, [&] {
    std::memcpy(dst.data(), src.data(), src.size());
    return OkStatus();
  }));
  LWFS_RETURN_IF_ERROR(Expect(dst == src, "memcpy"));
  out["util.memcpy_rank_gbps"] = Gbps(src.size(), Median(copy));

  const util::SharedSlice mib = Pattern(1u << 20, 2);
  const std::uint32_t expected = Crc32(mib.span());
  LWFS_ASSIGN_OR_RETURN(auto crc, Repeat(100, secs, [&] {
    return Expect(Crc32(mib.span()) == expected, "crc");
  }));
  out["util.crc32c_1m_gbps"] = Gbps(mib.size(), Median(crc));
  return OkStatus();
}

Status ProbeStorage(const Sizes& sizes, double secs, ProbeResults& out) {
  storage::MemObjectStore store;
  const storage::ContainerId cid{1};

  // A checkpoint rank lands in a fresh object one bulk chunk at a time, as
  // the storage server pulls it, and is read back whole.
  const std::size_t chunk = core::StorageServerOptions{}.bulk_chunk_bytes;
  const util::SharedSlice rank = Pattern(sizes.ckpt_rank_bytes, 3);
  std::vector<double> rank_write_us;
  std::vector<double> rank_read_us;
  LWFS_RETURN_IF_ERROR(Repeat(3, secs, [&]() -> Status {
    LWFS_ASSIGN_OR_RETURN(auto oid, store.Create(cid));
    const std::int64_t t0 = NowNs();
    for (std::size_t off = 0; off < rank.size(); off += chunk) {
      LWFS_RETURN_IF_ERROR(store.WriteSlice(oid, off, rank.Slice(off, chunk)));
    }
    const std::int64_t t1 = NowNs();
    LWFS_ASSIGN_OR_RETURN(auto back, store.ReadSlice(oid, 0, rank.size()));
    const std::int64_t t2 = NowNs();
    rank_write_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    rank_read_us.push_back(static_cast<double>(t2 - t1) / 1e3);
    LWFS_RETURN_IF_ERROR(Expect(
        back.size() == rank.size() &&
            std::memcmp(back.data(), rank.data(), rank.size()) == 0,
        "rank read-back"));
    return store.Remove(oid);
  }).status());
  out["storage.write_slice_rank_gbps"] = Gbps(rank.size(), Median(rank_write_us));
  out["storage.read_slice_rank_gbps"] = Gbps(rank.size(), Median(rank_read_us));

  // small_io and replicated_io overwrite blocks of existing objects.
  struct Case {
    const char* write_name;
    const char* read_name;
    std::size_t bytes;
    int min_calls;
  };
  const Case cases[] = {
      {"storage.write_slice_1m_us", "storage.read_slice_1m_us", 1u << 20, 100},
      {"storage.write_slice_64k_us", "storage.read_slice_64k_us", 64u << 10,
       1000},
  };
  for (const Case& c : cases) {
    LWFS_ASSIGN_OR_RETURN(auto oid, store.Create(cid));
    const util::SharedSlice payload = Pattern(c.bytes, 3);
    LWFS_ASSIGN_OR_RETURN(auto writes, Repeat(c.min_calls, secs, [&] {
      return store.WriteSlice(oid, 0, payload);
    }));
    util::SharedSlice last;
    LWFS_ASSIGN_OR_RETURN(auto reads, Repeat(c.min_calls, secs, [&]() -> Status {
      LWFS_ASSIGN_OR_RETURN(last, store.ReadSlice(oid, 0, c.bytes));
      return OkStatus();
    }));
    LWFS_RETURN_IF_ERROR(Expect(
        last.size() == c.bytes &&
            std::memcmp(last.data(), payload.data(), c.bytes) == 0,
        "storage read-back"));
    last = {};
    LWFS_RETURN_IF_ERROR(store.Remove(oid));
    out[c.write_name] = Median(writes);
    out[c.read_name] = Median(reads);
  }

  std::vector<double> create_us;
  std::vector<double> remove_us;
  LWFS_RETURN_IF_ERROR(Repeat(1000, secs, [&]() -> Status {
    const std::int64_t t0 = NowNs();
    LWFS_ASSIGN_OR_RETURN(auto oid, store.Create(cid));
    const std::int64_t t1 = NowNs();
    LWFS_RETURN_IF_ERROR(store.Remove(oid));
    create_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    remove_us.push_back(static_cast<double>(NowNs() - t1) / 1e3);
    return OkStatus();
  }).status());
  out["storage.create_us"] = Median(create_us);
  out["storage.remove_us"] = Median(remove_us);
  return OkStatus();
}

Status ProbePortals(double secs, ProbeResults& out) {
  constexpr portals::PortalIndex kMessages = 0;
  constexpr portals::PortalIndex kSlices = 1;
  constexpr portals::MatchBits kMatch = 7;
  portals::Fabric fabric;
  auto initiator = fabric.CreateNic();
  auto target = fabric.CreateNic();
  portals::EventQueue eq(16);
  portals::MeOptions message;
  message.allow_put = true;
  message.message_mode = true;
  LWFS_RETURN_IF_ERROR(
      target->Attach(kMessages, kMatch, 0, {}, message, &eq).status());
  const Buffer small = PatternBuffer(256, 4);
  LWFS_ASSIGN_OR_RETURN(auto puts, Repeat(1000, secs, [&] {
    LWFS_RETURN_IF_ERROR(
        initiator->Put(target->nid(), kMessages, kMatch, ByteSpan(small)));
    return Expect(eq.Poll().has_value(), "put delivered no event");
  }));
  out["portals.put_256b_us"] = Median(puts);

  const util::SharedSlice mib = Pattern(1u << 20, 5);
  LWFS_RETURN_IF_ERROR(
      target->AttachSlice(kSlices, kMatch, 0, mib).status());
  LWFS_ASSIGN_OR_RETURN(auto gets, Repeat(1000, secs, [&]() -> Status {
    LWFS_ASSIGN_OR_RETURN(auto got,
                          initiator->GetSlice(target->nid(), kSlices, kMatch,
                                              mib.size()));
    return Expect(got.size() == mib.size(), "short get");
  }));
  out["portals.get_slice_1m_us"] = Median(gets);
  return OkStatus();
}

Status ProbeRpc(double secs, ProbeResults& out) {
  constexpr rpc::Opcode kNull = 1;
  constexpr rpc::Opcode kPull = 2;
  constexpr rpc::Opcode kPush = 3;
  portals::Fabric fabric;
  auto server_nic = fabric.CreateNic();
  rpc::RpcServer server(server_nic, {});
  const util::SharedSlice source = Pattern(1u << 20, 6);
  LWFS_RETURN_IF_ERROR(server.RegisterHandler(
      kNull, [](rpc::ServerContext&, Decoder&) -> Result<Buffer> {
        return Buffer{};
      }));
  LWFS_RETURN_IF_ERROR(server.RegisterHandler(
      kPull, [](rpc::ServerContext& ctx, Decoder&) -> Result<Buffer> {
        LWFS_ASSIGN_OR_RETURN(auto got, ctx.PullBulkSlice(ctx.bulk_out_size()));
        if (got.size() != ctx.bulk_out_size()) return Internal("short pull");
        return Buffer{};
      }));
  LWFS_RETURN_IF_ERROR(server.RegisterHandler(
      kPush, [&](rpc::ServerContext& ctx, Decoder& req) -> Result<Buffer> {
        LWFS_ASSIGN_OR_RETURN(auto len, req.GetU64());
        LWFS_RETURN_IF_ERROR(ctx.PushBulkSlice(source.Slice(0, len)));
        return Buffer{};
      }));
  LWFS_RETURN_IF_ERROR(server.Start());

  Status result = [&]() -> Status {
    rpc::RpcClient client(fabric.CreateNic());
    const portals::Nid nid = server_nic->nid();
    LWFS_ASSIGN_OR_RETURN(auto nulls, Repeat(1000, secs, [&] {
      return client.Call(nid, kNull, {}).status();
    }));
    out["rpc.null_call_us_p50"] = Percentile(nulls, 0.5);
    out["rpc.null_call_us_p99"] = Percentile(nulls, TailFraction(nulls.size()));

    for (std::size_t bytes : {std::size_t{64} << 10, std::size_t{1} << 20}) {
      const std::string size = bytes == (64u << 10) ? "64k" : "1m";
      rpc::CallOptions options;
      options.bulk_out_slice = Pattern(bytes, 7);
      LWFS_ASSIGN_OR_RETURN(auto pulls, Repeat(1000, secs, [&] {
        return client.Call(nid, kPull, {}, options).status();
      }));
      out["rpc.pull_" + size + "_us"] = Median(pulls);

      Encoder request;
      request.PutU64(bytes);
      LWFS_ASSIGN_OR_RETURN(auto pushes, Repeat(1000, secs, [&]() -> Status {
        LWFS_ASSIGN_OR_RETURN(auto handle,
                              client.CallAsync(nid, kPush, ByteSpan(request.buffer())));
        LWFS_RETURN_IF_ERROR(handle.Await().status());
        return Expect(handle.ReplyBulk().size() == bytes, "short push");
      }));
      out["rpc.push_" + size + "_us"] = Median(pushes);
    }
    return OkStatus();
  }();
  server.Stop();
  return result;
}

Status ProbeSecurity(double secs, ProbeResults& out) {
  security::TableAuthenticator users;
  users.AddPrincipal("probe", "pw", 1);
  security::AuthnService authn(&users, security::SipKey{1, 2});
  security::AuthzService authz(&authn, security::SipKey{3, 4});
  LWFS_ASSIGN_OR_RETURN(auto cred, authn.Login("probe", "pw"));
  LWFS_ASSIGN_OR_RETURN(auto cid, authz.CreateContainer(cred));
  LWFS_ASSIGN_OR_RETURN(auto cap, authz.GetCap(cred, cid, security::kOpAll));

  security::CapCache cache;
  cache.Insert(cap);
  const std::int64_t now_us = security::SystemNowUs();
  // One lookup is tens of nanoseconds: time batches of them.
  constexpr int kBatch = 1000;
  LWFS_ASSIGN_OR_RETURN(auto batches, Repeat(100, secs, [&]() -> Status {
    bool hit = true;
    for (int i = 0; i < kBatch; ++i) hit = cache.Lookup(cap, now_us) && hit;
    return Expect(hit, "cap cache miss");
  }));
  out["security.cap_lookup_ns"] = Median(batches) * 1e3 / kBatch;

  LWFS_ASSIGN_OR_RETURN(auto verifies, Repeat(1000, secs, [&] {
    return authz.VerifyForServer(0, cap);
  }));
  out["security.verify_us"] = Median(verifies);
  return OkStatus();
}

Status ProbeNaming(const Sizes& sizes, double secs, ProbeResults& out) {
  naming::NamingService names;
  LWFS_RETURN_IF_ERROR(names.Mkdir("/p"));
  // The namespace meta_churn holds steady at.
  const std::uint64_t live = sizes.meta_live_names;
  for (std::uint64_t i = 0; i < live; ++i) {
    LWFS_RETURN_IF_ERROR(names.Link(
        "/p/n" + std::to_string(i),
        storage::ObjectRef{storage::ContainerId{1}, 0, storage::ObjectId{i + 1}}));
  }
  std::vector<double> link_us;
  std::vector<double> lookup_us;
  std::vector<double> unlink_us;
  std::uint64_t seq = 0;
  LWFS_RETURN_IF_ERROR(Repeat(1000, secs, [&]() -> Status {
    const std::string path = "/p/x" + std::to_string(seq);
    const storage::ObjectRef ref{storage::ContainerId{1}, 0,
                                 storage::ObjectId{live + ++seq}};
    const std::int64_t t0 = NowNs();
    LWFS_RETURN_IF_ERROR(names.Link(path, ref));
    const std::int64_t t1 = NowNs();
    LWFS_ASSIGN_OR_RETURN(auto got, names.Lookup(path));
    const std::int64_t t2 = NowNs();
    LWFS_RETURN_IF_ERROR(names.Unlink(path));
    const std::int64_t t3 = NowNs();
    link_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    lookup_us.push_back(static_cast<double>(t2 - t1) / 1e3);
    unlink_us.push_back(static_cast<double>(t3 - t2) / 1e3);
    return Expect(got == ref, "naming lookup");
  }).status());
  out["naming.link_us"] = Median(link_us);
  out["naming.lookup_us"] = Median(lookup_us);
  out["naming.unlink_us"] = Median(unlink_us);
  return OkStatus();
}

Status ProbeTxn(double secs, ProbeResults& out) {
  LWFS_ASSIGN_OR_RETURN(Env env, StartEnv(core::RuntimeOptions{}, 1));
  core::Client& c = *env.clients[0];
  core::TxnParticipants participants;
  for (int s = 0; s < env.runtime->storage_count(); ++s) {
    participants.storage_servers.push_back(static_cast<std::uint32_t>(s));
  }
  participants.naming = true;
  LWFS_ASSIGN_OR_RETURN(auto commits, Repeat(200, secs, [&]() -> Status {
    LWFS_ASSIGN_OR_RETURN(auto txn, c.BeginTxn(0, env.cap, participants));
    return txn->Commit();
  }));
  out["txn.empty_commit_us"] = Median(commits);
  return OkStatus();
}

}  // namespace

Result<ProbeResults> RunProbes(const Sizes& sizes, double min_seconds) {
  ProbeResults out;
  LWFS_RETURN_IF_ERROR(ProbeUtil(sizes, min_seconds, out));
  LWFS_RETURN_IF_ERROR(ProbeStorage(sizes, min_seconds, out));
  LWFS_RETURN_IF_ERROR(ProbePortals(min_seconds, out));
  LWFS_RETURN_IF_ERROR(ProbeRpc(min_seconds, out));
  LWFS_RETURN_IF_ERROR(ProbeSecurity(min_seconds, out));
  LWFS_RETURN_IF_ERROR(ProbeNaming(sizes, min_seconds, out));
  LWFS_RETURN_IF_ERROR(ProbeTxn(min_seconds, out));
  return out;
}

}  // namespace lwfs::suite

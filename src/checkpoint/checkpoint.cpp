#include "checkpoint/checkpoint.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <optional>
#include <utility>

#include "checkpoint/write_pipeline.h"
#include "comm/collectives.h"
#include "core/protocol.h"
#include "driver/driver.h"
#include "storage/ids.h"

namespace lwfs::checkpoint {

namespace {

double Seconds(util::Clock::TimePoint a, util::Clock::TimePoint b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Collects the first error seen across a checkpoint's operations.
class ErrorCollector {
 public:
  void Record(const Status& status) {
    if (!status.ok() && first_.ok()) first_ = status;
  }
  [[nodiscard]] const Status& first() const { return first_; }

 private:
  Status first_;
};

/// Read a whole replicated object: resolve its chain, size it via the first
/// member that answers GetAttr, then read-from-any (hedged when the client
/// has hedging enabled).
Result<util::SharedSlice> ReadReplicatedWhole(core::Client& client,
                                              const security::Capability& cap,
                                              storage::ObjectId oid) {
  auto chain = client.LookupReplicas(oid);
  if (!chain.ok()) return chain.status();
  std::optional<storage::ObjAttr> attr;
  Status last = Unavailable("replica chain is empty");
  for (std::uint32_t member : chain->servers) {
    auto got = client.GetAttr(member, cap, oid);
    if (got.ok()) {
      attr = *got;
      break;
    }
    last = got.status();
  }
  if (!attr.has_value()) return last;
  return client.ReadReplicatedSlice(cap, *chain, 0, attr->size);
}

}  // namespace

// ---------------------------------------------------------------------------
// LwfsCheckpoint
// ---------------------------------------------------------------------------

Result<CheckpointStats> LwfsCheckpoint::Run(core::ServiceRuntime& runtime,
                                            const Config& config,
                                            const std::vector<Buffer>& states) {
  // Legacy span-based entry: wrap without copying.  External slices are
  // not owned, so the servers stage each pulled chunk exactly as before.
  std::vector<util::SharedSlice> slices;
  slices.reserve(states.size());
  for (const Buffer& s : states) {
    slices.push_back(util::SharedSlice::External(ByteSpan(s)));
  }
  return Run(runtime, config, slices);
}

Result<CheckpointStats> LwfsCheckpoint::Run(
    core::ServiceRuntime& runtime, const Config& config,
    const std::vector<util::SharedSlice>& states) {
  const auto nranks = static_cast<std::uint32_t>(states.size());
  if (nranks == 0) return InvalidArgument("no ranks");
  const auto nservers =
      static_cast<std::uint32_t>(runtime.deployment().storage.size());
  const std::size_t window = config.window == 0 ? 1 : config.window;

  // Rank 0's client coordinates the transaction (Figure 8 line 1).  A
  // replicated checkpoint skips the distributed transaction: redundancy
  // replaces 2PC — a torn checkpoint is invisible until the final LinkName
  // publishes the metadata object, and that one naming update is the
  // commit point (DESIGN.md §15).
  const bool replicated = config.replication_factor >= 2;
  auto coordinator_client = runtime.MakeClient();
  std::unique_ptr<core::Transaction> txn;
  if (!replicated) {
    core::TxnParticipants participants;
    for (std::uint32_t s = 0; s < nservers; ++s) {
      participants.storage_servers.push_back(s);
    }
    participants.naming = true;
    auto begun = coordinator_client->BeginTxn(config.journal_server,
                                              config.cap, participants);
    if (!begun.ok()) return begun.status();
    txn = std::move(*begun);
  }
  const txn::TxnId txid = txn ? txn->id() : 0;

  util::Clock* clock = runtime.clock();
  ErrorCollector errors;
  std::uint64_t created = 0;

  // Rank clients and the communicator group they share (the checkpoint's
  // collectives run over the same fabric as its I/O).
  std::vector<std::unique_ptr<core::Client>> clients;
  std::vector<std::unique_ptr<comm::Communicator>> comms;
  {
    std::vector<std::shared_ptr<portals::Nic>> nics;
    std::vector<portals::Nid> members;
    for (std::uint32_t r = 0; r < nranks; ++r) {
      clients.push_back(runtime.MakeClient());
      nics.push_back(runtime.fabric().CreateNic());
      members.push_back(nics.back()->nid());
    }
    for (std::uint32_t r = 0; r < nranks; ++r) {
      auto comm = comm::Communicator::Create(nics[r], members,
                                             static_cast<int>(r), clock);
      if (!comm.ok()) return comm.status();
      comms.push_back(std::move(*comm));
    }
  }
  constexpr std::uint32_t kCapTag = 1;
  constexpr std::uint32_t kMetaTag = 10;

  const util::Clock::TimePoint t_start = clock->Now();

  // Capability distribution: the logarithmic broadcast of §3.1.2 /
  // Figure 4-a, as transferable bytes over the wire.  The binomial tree is
  // driven sequentially in increasing rank order — a parent rank is always
  // lower than its children, so its forwards are already buffered in the
  // children's event queues by the time they Recv.
  std::vector<security::Capability> caps;
  caps.reserve(nranks);
  for (std::uint32_t r = 0; r < nranks; ++r) {
    Buffer cap_wire;
    if (r == 0) cap_wire = codec::Encode(config.cap);
    Status distributed = comms[r]->Bcast(0, kCapTag, cap_wire);
    if (!distributed.ok()) return distributed;
    Decoder cap_dec(cap_wire);
    auto cap = security::Capability::Decode(cap_dec);
    if (!cap.ok()) return cap.status();
    caps.push_back(std::move(*cap));
  }

  // CHECKPOINT() body (Figure 8 lines 2-3): every rank creates and dumps
  // its own object on server r % m.  Each rank is a WritePipeline state
  // machine (create → stream → done) driven over the asynchronous RPC
  // engine — the blocking API is a thin wrapper over the same event-driven
  // path the petascale harness scales to a million ranks.  The ranks run
  // on min(ranks, window) carriers, rank r on carrier r % carriers, so a
  // rank's per-byte work (its write's checksum pass) runs on its own
  // thread, as on its own compute node.  The window is split across the
  // carriers, so it still bounds the outstanding requests in total, and
  // window 1 is one carrier with one request in flight: a serial dump.
  std::vector<storage::ObjectId> oids(nranks);
  std::vector<std::uint32_t> heads(nranks, 0);  // metadata server_index
  std::vector<bool> dumped(nranks, false);
  auto t_creates_done = t_start;

  driver::EngineOptions eng_options;
  eng_options.carriers = std::min<std::size_t>(nranks, window);
  eng_options.max_inflight_per_carrier = window / eng_options.carriers;
  eng_options.clock = clock;
  driver::Engine engine(eng_options);
  std::vector<WritePipeline*> machines;
  machines.reserve(nranks);
  for (std::uint32_t r = 0; r < nranks; ++r) {
    WritePipeline::Spec spec;
    spec.client = clients[r].get();
    spec.server = r % nservers;
    spec.cap = caps[r];
    spec.txid = txid;
    spec.replication_factor = config.replication_factor;
    spec.payload = states[r];
    auto machine = std::make_unique<WritePipeline>(std::move(spec));
    machines.push_back(machine.get());
    engine.Add(std::move(machine));
  }
  const Status engine_status = engine.Run();
  for (std::uint32_t r = 0; r < nranks; ++r) {
    const WritePipeline& m = *machines[r];
    heads[r] = r % nservers;
    if (m.created()) {
      ++created;
      oids[r] = m.oid();
      // A replicated ref names the chain head; Restore re-resolves the
      // chain from the oid's replicated bit anyway, so the head is a hint.
      if (replicated) heads[r] = m.replica_chain().servers.front();
    }
    if (m.create_done_time() > t_creates_done) {
      t_creates_done = m.create_done_time();
    }
    dumped[r] = m.dumped();
    errors.Record(m.result());
  }
  errors.Record(engine_status);  // carrier-level failures (stalled machine)
  const driver::EngineStats engine_stats = engine.stats();
  const double create_phase_s = Seconds(t_start, t_creates_done);

  // Metadata gather (Figure 8 line 7): each rank contributes its
  // CheckpointEntry, or an empty piece if its dump failed.  The gather tree
  // is driven in decreasing rank order — children are always higher-ranked
  // than their parent, so their bundles are in flight before the parent
  // Recvs.
  std::vector<Buffer> gathered;
  for (std::uint32_t i = nranks; i-- > 0;) {
    Buffer piece;
    if (dumped[i]) {
      piece = codec::Encode(CheckpointEntry{
          storage::ObjectRef{config.cid, heads[i], oids[i]},
          states[i].size()});
    }
    auto result = comms[i]->Gather(0, kMetaTag, ByteSpan(piece));
    if (!result.ok()) return result.status();
    if (i == 0) gathered = std::move(*result);
  }

  // Figure 8 lines 4-10 on rank 0 proper: build the metadata object, dump
  // it, and stage the checkpoint name — skipped if anything already failed
  // so the first error (e.g. a denied create) is what the caller sees.
  if (errors.first().ok()) {
    CheckpointMetadata md;
    bool complete = true;
    for (const Buffer& piece : gathered) {
      auto entry = rpc::DecodeMessage<CheckpointEntry>(ByteSpan(piece));
      if (!entry.ok()) {  // an empty piece: that rank's dump failed
        errors.Record(Aborted("a rank failed to dump"));
        complete = false;
        break;
      }
      md.entries.push_back(*entry);
    }
    const Buffer metadata = codec::Encode(md);
    if (complete && replicated) {
      // The metadata object is replicated too — losing it would orphan the
      // whole checkpoint.  LinkName is the commit: nothing written above is
      // visible until this name resolves.
      auto mdchain = clients[0]->CreateReplicatedObject(
          caps[0], 0, config.replication_factor);
      if (!mdchain.ok()) {
        errors.Record(mdchain.status());
      } else {
        ++created;
        Status md_written = clients[0]->WriteReplicatedSlice(
            caps[0], *mdchain, 0, util::SharedSlice::External(metadata));
        if (!md_written.ok()) {
          errors.Record(md_written);
        } else {
          errors.Record(clients[0]->LinkName(
              config.path, storage::ObjectRef{config.cid,
                                              mdchain->servers.front(),
                                              mdchain->oid}));
        }
      }
    } else if (complete) {
      const std::uint32_t md_server = 0;
      auto mdobj = clients[0]->CreateObject(md_server, caps[0], txid);
      if (!mdobj.ok()) {
        errors.Record(mdobj.status());
      } else {
        ++created;
        Status md_written = clients[0]->WriteObject(
            md_server, caps[0], *mdobj, 0, ByteSpan(metadata));
        if (!md_written.ok()) {
          errors.Record(md_written);
        } else {
          errors.Record(clients[0]->StageLinkName(
              txid, config.path,
              storage::ObjectRef{config.cid, md_server, *mdobj}));
        }
      }
    }
  }
  LWFS_RETURN_IF_ERROR(errors.first());

  if (txn) LWFS_RETURN_IF_ERROR(txn->Commit());
  const util::Clock::TimePoint t_end = clock->Now();

  CheckpointStats stats;
  stats.seconds = Seconds(t_start, t_end);
  stats.create_seconds = create_phase_s;
  stats.dump_seconds = stats.seconds - stats.create_seconds;
  for (const util::SharedSlice& s : states) stats.bytes += s.size();
  stats.creates = created;
  stats.carriers = static_cast<std::uint32_t>(engine_stats.carriers);
  stats.peak_requests = engine_stats.peak_inflight;
  return stats;
}

Result<std::vector<Buffer>> LwfsCheckpoint::Restore(
    core::ServiceRuntime& runtime, const security::Capability& cap,
    const std::string& path) {
  auto slices = RestoreSlices(runtime, cap, path);
  if (!slices.ok()) return slices.status();
  // Final delivery into caller-owned buffers (kDeliver — outside the
  // staging budget); callers wanting the slices themselves use
  // RestoreSlices directly.
  std::vector<Buffer> states;
  states.reserve(slices->size());
  for (const util::SharedSlice& s : *slices) {
    Buffer state(s.span().begin(), s.span().end());
    LWFS_COUNT_COPY(util::CopyKind::kDeliver, state.size());
    states.push_back(std::move(state));
  }
  return states;
}

Result<std::vector<util::SharedSlice>> LwfsCheckpoint::RestoreSlices(
    core::ServiceRuntime& runtime, const security::Capability& cap,
    const std::string& path) {
  auto client = runtime.MakeClient();
  auto md_ref = client->LookupName(path);
  if (!md_ref.ok()) return md_ref.status();

  // The replicated bit in the oid says how the object was written; a
  // replicated metadata object survives the loss of its ref's head server.
  Result<util::SharedSlice> metadata = util::SharedSlice{};
  if (storage::IsReplicatedOid(md_ref->oid)) {
    metadata = ReadReplicatedWhole(*client, cap, md_ref->oid);
  } else {
    auto md_attr = client->GetAttr(md_ref->server_index, cap, md_ref->oid);
    if (!md_attr.ok()) return md_attr.status();
    auto done = core::Await(client->ReadObjectAsync(
        md_ref->server_index, cap, md_ref->oid, {{0, md_attr->size}}));
    if (!done.ok()) return done.status();
    metadata = std::move(done->slices.front());
  }
  if (!metadata.ok()) return metadata.status();

  auto md = rpc::DecodeMessage<CheckpointMetadata>(metadata->span());
  if (!md.ok()) return DataLoss("corrupt checkpoint metadata");
  const std::vector<CheckpointEntry>& entries = md->entries;
  const auto nranks = static_cast<std::uint32_t>(entries.size());

  // Rank-state reads flow through one windowed batch over one client; the
  // RPC engine overlaps the per-server transfers, and every rank's payload
  // lands as the reply frame's store-owned slice — no per-rank landing
  // buffer is allocated here.
  std::vector<util::SharedSlice> states(nranks);
  std::vector<core::IoResult> reads(nranks);
  core::Batch batch(client.get());
  std::vector<std::uint32_t> replicated_ranks;
  for (std::uint32_t r = 0; r < nranks; ++r) {
    if (storage::IsReplicatedOid(entries[r].ref.oid)) {
      replicated_ranks.push_back(r);
      continue;
    }
    Status issued = batch.Read(entries[r].ref.server_index, cap,
                               entries[r].ref.oid, {{0, entries[r].size}},
                               &reads[r]);
    if (!issued.ok()) break;
  }
  LWFS_RETURN_IF_ERROR(batch.Drain());
  for (std::uint32_t r = 0; r < nranks; ++r) {
    if (!reads[r].slices.empty()) states[r] = std::move(reads[r].slices[0]);
  }
  // Replicated rank objects read from any chain member — hedged when the
  // client has hedging enabled, with failover if a member is down.
  for (std::uint32_t r : replicated_ranks) {
    auto chain = client->LookupReplicas(entries[r].ref.oid);
    if (!chain.ok()) return chain.status();
    auto got = client->ReadReplicatedSlice(cap, *chain, 0, entries[r].size);
    if (!got.ok()) return got.status();
    states[r] = std::move(*got);
  }
  return states;
}

// ---------------------------------------------------------------------------
// PfsFilePerProcess
// ---------------------------------------------------------------------------

Result<CheckpointStats> PfsFilePerProcess::Run(
    pfs::PfsRuntime& runtime, const Config& config,
    const std::vector<Buffer>& states) {
  const auto nranks = static_cast<std::uint32_t>(states.size());
  if (nranks == 0) return InvalidArgument("no ranks");

  auto client = runtime.MakeClient(pfs::ConsistencyMode::kRelaxed);
  util::Clock* clock = runtime.clock();
  const util::Clock::TimePoint t_start = clock->Now();

  // Every rank's create funnels through the centralized MDS; the serial
  // loop is exactly the serialization the paper charges this model with.
  std::vector<pfs::OpenFile> files;
  files.reserve(nranks);
  for (std::uint32_t r = 0; r < nranks; ++r) {
    const std::string path = config.base_path + "." + std::to_string(r);
    auto file = client->Create(path, config.stripes_per_file);
    if (!file.ok()) return file.status();
    files.push_back(std::move(*file));
  }
  const double create_phase_s = Seconds(t_start, clock->Now());

  // Dumps overlap through a window of per-file striped writes.
  ErrorCollector errors;
  std::deque<pfs::PfsIo> writes;
  auto retire = [&] {
    auto n = writes.front().Await();
    writes.pop_front();
    if (!n.ok()) errors.Record(n.status());
  };
  for (std::uint32_t r = 0; r < nranks; ++r) {
    while (writes.size() >= pfs::kIoWindow) retire();
    auto io = client->WriteAsync(
        files[r], {{0, util::SharedSlice::External(states[r])}});
    if (!io.ok()) {
      errors.Record(io.status());
      continue;
    }
    writes.push_back(std::move(*io));
  }
  while (!writes.empty()) retire();
  LWFS_RETURN_IF_ERROR(errors.first());

  for (std::uint32_t r = 0; r < nranks; ++r) {
    LWFS_RETURN_IF_ERROR(client->Sync(files[r], states[r].size()));
  }
  const util::Clock::TimePoint t_end = clock->Now();

  CheckpointStats stats;
  stats.seconds = Seconds(t_start, t_end);
  stats.create_seconds = create_phase_s;
  stats.dump_seconds = stats.seconds - stats.create_seconds;
  for (const Buffer& s : states) stats.bytes += s.size();
  stats.creates = nranks;
  return stats;
}

Result<std::vector<Buffer>> PfsFilePerProcess::Restore(
    pfs::PfsRuntime& runtime, const Config& config, std::uint32_t nranks) {
  auto client = runtime.MakeClient(pfs::ConsistencyMode::kRelaxed);

  std::vector<pfs::OpenFile> files;
  files.reserve(nranks);
  std::vector<Buffer> states(nranks);
  for (std::uint32_t r = 0; r < nranks; ++r) {
    const std::string path = config.base_path + "." + std::to_string(r);
    auto file = client->Open(path);
    if (!file.ok()) return file.status();
    states[r] = Buffer(file->attr.size, 0);
    files.push_back(std::move(*file));
  }

  ErrorCollector errors;
  std::deque<std::pair<std::uint32_t, pfs::PfsIo>> reads;
  auto retire = [&] {
    auto [r, io] = std::move(reads.front());
    reads.pop_front();
    auto n = io.Await();
    if (!n.ok()) {
      errors.Record(n.status());
      return;
    }
    states[r].resize(static_cast<std::size_t>(n->bytes));
  };
  for (std::uint32_t r = 0; r < nranks; ++r) {
    while (reads.size() >= pfs::kIoWindow) retire();
    auto io = client->ReadAsync(
        files[r], {{0, states[r].size(), MutableByteSpan(states[r])}});
    if (!io.ok()) {
      errors.Record(io.status());
      continue;
    }
    reads.emplace_back(r, std::move(*io));
  }
  while (!reads.empty()) retire();
  LWFS_RETURN_IF_ERROR(errors.first());
  return states;
}

// ---------------------------------------------------------------------------
// PfsSharedFile
// ---------------------------------------------------------------------------

Result<CheckpointStats> PfsSharedFile::Run(pfs::PfsRuntime& runtime,
                                           const Config& config,
                                           const std::vector<Buffer>& states) {
  const auto nranks = static_cast<std::uint32_t>(states.size());
  if (nranks == 0) return InvalidArgument("no ranks");

  // Rank offsets: disjoint slices of one file.
  std::vector<std::uint64_t> offsets(nranks, 0);
  std::uint64_t total = 0;
  for (std::uint32_t r = 0; r < nranks; ++r) {
    offsets[r] = total;
    total += states[r].size();
  }

  util::Clock* clock = runtime.clock();
  const util::Clock::TimePoint t_start = clock->Now();
  // Rank 0 creates the single shared file (one MDS create).
  auto rank0 = runtime.MakeClient(config.mode);
  auto file = rank0->Create(config.path, config.stripe_count);
  if (!file.ok()) return file.status();
  const double create_s = Seconds(t_start, clock->Now());

  // Each rank keeps its own client (its own lock-holder identity in
  // kPosixLocking mode) but the slice writes overlap through a bounded
  // window.  The extents are disjoint, so the per-write extent locks do
  // not deadlock — they just add the Figure 9 lock round trips.
  std::vector<std::unique_ptr<pfs::PfsClient>> clients;
  clients.reserve(nranks);
  for (std::uint32_t r = 0; r < nranks; ++r) {
    clients.push_back(runtime.MakeClient(config.mode));
  }

  ErrorCollector errors;
  std::deque<pfs::PfsIo> writes;
  auto retire = [&] {
    auto n = writes.front().Await();
    writes.pop_front();
    if (!n.ok()) errors.Record(n.status());
  };
  for (std::uint32_t r = 0; r < nranks; ++r) {
    while (writes.size() >= pfs::kIoWindow) retire();
    auto io = clients[r]->WriteAsync(
        *file, {{offsets[r], util::SharedSlice::External(states[r])}});
    if (!io.ok()) {
      errors.Record(io.status());
      continue;
    }
    writes.push_back(std::move(*io));
  }
  while (!writes.empty()) retire();
  LWFS_RETURN_IF_ERROR(errors.first());
  LWFS_RETURN_IF_ERROR(rank0->Sync(*file, total));
  const util::Clock::TimePoint t_end = clock->Now();

  CheckpointStats stats;
  stats.seconds = Seconds(t_start, t_end);
  stats.create_seconds = create_s;
  stats.dump_seconds = stats.seconds - stats.create_seconds;
  stats.bytes = total;
  stats.creates = 1;
  return stats;
}

Result<std::vector<Buffer>> PfsSharedFile::Restore(
    pfs::PfsRuntime& runtime, const Config& config,
    const std::vector<std::uint64_t>& sizes) {
  auto client = runtime.MakeClient(config.mode);
  auto file = client->Open(config.path);
  if (!file.ok()) return file.status();
  std::vector<Buffer> states(sizes.size());
  std::uint64_t offset = 0;
  for (std::size_t r = 0; r < sizes.size(); ++r) {
    Buffer data(sizes[r], 0);
    auto n = core::Await(
        client->ReadAsync(*file, {{offset, data.size(),
                                   MutableByteSpan(data)}}));
    if (!n.ok()) return n.status();
    if (n->bytes != sizes[r]) {
      return DataLoss("short read restoring shared file");
    }
    states[r] = std::move(data);
    offset += sizes[r];
  }
  return states;
}

}  // namespace lwfs::checkpoint

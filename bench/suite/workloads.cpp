// The four closed-loop workloads.  Each one verifies every read against the
// bytes it expects and names the workload, op and seed on a mismatch.
#include <atomic>
#include <cstring>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>

#include "checkpoint/checkpoint.h"
#include "suite.h"
#include "trace.h"
#include "util/rng.h"
#include "util/shared_buffer.h"

namespace lwfs::suite {

namespace {

std::mutex g_verdict_mutex;
std::string g_verdict;  // guarded by g_verdict_mutex
std::atomic<bool> g_mismatch{false};

double SecondsSince(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

/// Run fn(t) on `n` threads; the first error wins.
Status RunOnThreads(int n, const std::function<Status(int)>& fn) {
  std::vector<Status> results(static_cast<std::size_t>(n));
  std::vector<std::thread> threads;
  for (int t = 0; t < n; ++t) {
    threads.emplace_back([&, t] { results[static_cast<std::size_t>(t)] = fn(t); });
  }
  for (std::thread& th : threads) th.join();
  for (const Status& s : results) LWFS_RETURN_IF_ERROR(s);
  return OkStatus();
}

std::string Describe(const char* workload, const char* op, std::uint64_t object,
                     std::uint64_t block, std::uint64_t seed) {
  return std::string(workload) + ": " + op + " of object " +
         std::to_string(object) + " block " + std::to_string(block) +
         " returned wrong bytes (seed " + std::to_string(seed) + ")";
}

/// Content of block `block` of object `object` after its `gen`-th write: a
/// 32-byte header naming (seed, object, block, gen), then the body of one of
/// a few seed-derived variants.  The header catches a misdirected or stale
/// read; the body makes every read compare real bytes.
class BlockPattern {
 public:
  BlockPattern(std::uint64_t seed, std::size_t block_bytes)
      : seed_(seed), block_bytes_(block_bytes) {
    for (std::uint64_t v = 0; v < kVariants; ++v) {
      variants_.push_back(PatternBuffer(block_bytes, seed * 1000003 + v));
    }
  }

  void Fill(std::uint8_t* out, std::uint64_t object, std::uint64_t block,
            std::uint64_t gen) const {
    const Buffer& body = Body(object, block, gen);
    std::memcpy(out + kHeader, body.data() + kHeader, block_bytes_ - kHeader);
    Header(out, object, block, gen);
  }

  [[nodiscard]] bool Matches(ByteSpan got, std::uint64_t object,
                             std::uint64_t block, std::uint64_t gen) const {
    if (got.size() != block_bytes_) return false;
    std::uint8_t header[kHeader];
    Header(header, object, block, gen);
    const Buffer& body = Body(object, block, gen);
    return std::memcmp(got.data(), header, kHeader) == 0 &&
           std::memcmp(got.data() + kHeader, body.data() + kHeader,
                       block_bytes_ - kHeader) == 0;
  }

 private:
  static constexpr std::size_t kHeader = 32;
  static constexpr std::uint64_t kVariants = 8;

  const Buffer& Body(std::uint64_t object, std::uint64_t block,
                     std::uint64_t gen) const {
    return variants_[(object * 31 + block * 7 + gen) % kVariants];
  }
  void Header(std::uint8_t* out, std::uint64_t object, std::uint64_t block,
              std::uint64_t gen) const {
    const std::uint64_t words[4] = {seed_, object, block, gen};
    std::memcpy(out, words, kHeader);
  }

  std::uint64_t seed_;
  std::size_t block_bytes_;
  std::vector<Buffer> variants_;
};

/// Generation of every block a workload writes; `known` is false after a
/// failed write, whose effect is uncertain, until the next write succeeds.
struct BlockState {
  std::uint64_t gen = 0;
  bool known = true;
};

double ProbeAt(const ProbeResults& p, const char* name) {
  auto it = p.find(name);
  return it == p.end() ? 0 : it->second;
}

// ---------------------------------------------------------------------------
// ckpt_dump: the Figure 8 checkpoint, dumped, restored and byte-compared.
// ---------------------------------------------------------------------------

class CkptDump final : public Workload {
 public:
  CkptDump(std::uint64_t seed, const Sizes& sizes)
      : seed_(seed), rank_bytes_(sizes.ckpt_rank_bytes) {
    for (std::uint32_t r = 0; r < sizes.ckpt_ranks; ++r) {
      states_.push_back(util::SharedSlice::FromBuffer(
          PatternBuffer(rank_bytes_, seed * 1000 + r)));
    }
  }

  [[nodiscard]] int threads() const override { return 1; }

  Status Prepare(Env& env) override {
    seq_ = 0;
    LWFS_RETURN_IF_ERROR(env.clients[0]->Mkdir("/ckpt", true));
    // One untimed warm-up checkpoint.
    ThreadTally warmup;
    Iterate(env, 0, warmup);
    if (warmup.failed != 0) return Internal("ckpt_dump warm-up failed");
    return OkStatus();
  }

  void Iterate(Env& env, int, ThreadTally& tally) override {
    const std::string path = "/ckpt/c" + std::to_string(seq_++);
    checkpoint::LwfsCheckpoint::Config config;
    config.path = path;
    config.cid = env.cid;
    config.cap = env.cap;
    config.window = 8;

    ++tally.attempted;
    Result<checkpoint::CheckpointStats> stats = checkpoint::CheckpointStats{};
    {
      Span root("ckpt_dump.write");
      Span call("checkpoint.run");
      const std::int64_t t0 = NowNs();
      stats = checkpoint::LwfsCheckpoint::Run(*env.runtime, config, states_);
      const std::int64_t t1 = NowNs();
      if (stats.ok()) {
        tally.AddWrite(t0, t1);
        // The library's own phase timings end where Run returns.
        const auto total = static_cast<std::int64_t>(stats->seconds * 1e9);
        const auto create =
            static_cast<std::int64_t>(stats->create_seconds * 1e9);
        call.AddChild("checkpoint.create_phase", t1 - total, create);
        call.AddChild("checkpoint.dump_phase", t1 - total + create,
                      total - create);
      } else {
        ++tally.failed;
        call.Fail();
        root.Fail();
      }
    }

    if (stats.ok()) {
      ++tally.attempted;
      Span root("ckpt_dump.read");
      Result<std::vector<util::SharedSlice>> restored =
          std::vector<util::SharedSlice>{};
      {
        Span call("checkpoint.restore");
        const std::int64_t t0 = NowNs();
        restored =
            checkpoint::LwfsCheckpoint::RestoreSlices(*env.runtime, env.cap, path);
        const std::int64_t t1 = NowNs();
        if (restored.ok()) {
          tally.AddRead(t0, t1);
        } else {
          ++tally.failed;
          call.Fail();
          root.Fail();
        }
      }
      if (restored.ok()) {
        const std::int64_t v0 = NowNs();
        Span verify("bench.verify");
        bool same = restored->size() == states_.size();
        for (std::size_t r = 0; same && r < states_.size(); ++r) {
          const util::SharedSlice& got = (*restored)[r];
          same = got.size() == rank_bytes_ &&
                 std::memcmp(got.data(), states_[r].data(), rank_bytes_) == 0;
          if (!same) {
            Verdict::Mismatch("ckpt_dump: RestoreSlices(" + path + ") rank " +
                              std::to_string(r) + " returned wrong bytes (seed " +
                              std::to_string(seed_) + ")");
          }
        }
        if (restored->size() != states_.size()) {
          Verdict::Mismatch("ckpt_dump: RestoreSlices(" + path +
                            ") returned the wrong rank count (seed " +
                            std::to_string(seed_) + ")");
        }
        tally.untimed_s += SecondsSince(v0);
      }
    }

    // Remove the checkpoint's objects (ranks, metadata, journal) and its
    // name, outside the timed ops, so every iteration starts empty.
    const std::int64_t c0 = NowNs();
    {
      Span root("ckpt_dump.cleanup");
      ++tally.attempted;
      if (!Cleanup(env, path).ok()) {
        ++tally.failed;
        root.Fail();
      }
    }
    tally.untimed_s += SecondsSince(c0);
  }

  [[nodiscard]] double UnexplainedWriteUs(const ProbeResults& p,
                                          double write_p50_us) const override {
    // The ranks dump to different servers in parallel: one rank's store
    // copy plus an empty commit is the layered floor.
    return write_p50_us - StoreUs(p, "storage.write_slice_rank_gbps") -
           ProbeAt(p, "txn.empty_commit_us");
  }
  [[nodiscard]] double UnexplainedReadUs(const ProbeResults& p,
                                         double read_p50_us) const override {
    return read_p50_us - StoreUs(p, "storage.read_slice_rank_gbps");
  }

 private:
  double StoreUs(const ProbeResults& p, const char* gbps_name) const {
    const double gbps = ProbeAt(p, gbps_name);
    return gbps > 0 ? static_cast<double>(rank_bytes_) / (gbps * 1e3) : 0;
  }

  static Status Cleanup(Env& env, const std::string& path) {
    core::Client& c = *env.clients[0];
    for (int s = 0; s < env.runtime->storage_count(); ++s) {
      const auto server = static_cast<std::uint32_t>(s);
      LWFS_ASSIGN_OR_RETURN(auto oids, c.ListObjects(server, env.cap));
      for (storage::ObjectId oid : oids) {
        LWFS_RETURN_IF_ERROR(c.RemoveObject(server, env.cap, oid));
      }
    }
    return c.UnlinkName(path);
  }

  std::uint64_t seed_;
  std::size_t rank_bytes_;
  std::vector<util::SharedSlice> states_;
  std::uint64_t seq_ = 0;
};

// ---------------------------------------------------------------------------
// small_io / replicated_io share the object layout: `objects` objects split
// evenly among the clients (so every client's reads have one known answer),
// each client's objects striped over the storage servers.
// ---------------------------------------------------------------------------

class BlockWorkload : public Workload {
 public:
  /// Span and op names of the subclass's calls, for traces and mismatches.
  struct Names {
    const char* workload;
    const char* write_span;
    const char* read_span;
    const char* read_op;
  };

  BlockWorkload(const Names& names, std::uint64_t seed, std::uint32_t objects,
                std::size_t object_bytes, std::size_t io_bytes,
                std::uint64_t write_tenths)
      : names_(names),
        seed_(seed),
        objects_(objects),
        per_client_(objects / kClients),
        io_bytes_(io_bytes),
        blocks_(object_bytes / io_bytes),
        write_tenths_(write_tenths),
        pattern_(seed, io_bytes) {}

  Status Prepare(Env& env) override {
    blocks_state_.assign(static_cast<std::size_t>(objects_) * blocks_, {});
    clients_.clear();
    for (int t = 0; t < threads(); ++t) {
      clients_.push_back(ClientState{
          Rng(seed_ * 0x100000001B3ULL + static_cast<std::uint64_t>(t)), {}});
    }
    ResetObjects();
    return RunOnThreads(threads(), [&](int t) -> Status {
      core::Client& c = *env.clients[static_cast<std::size_t>(t)];
      for (std::uint32_t i = 0; i < per_client_; ++i) {
        const std::uint32_t o = static_cast<std::uint32_t>(t) * per_client_ + i;
        LWFS_RETURN_IF_ERROR(CreateAndFill(env, c, t, o));
      }
      // Warm-up: read every owned block once.
      for (std::uint32_t i = 0; i < per_client_; ++i) {
        const std::uint32_t o = static_cast<std::uint32_t>(t) * per_client_ + i;
        for (std::uint64_t b = 0; b < blocks_; ++b) {
          auto got = ReadBlock(env, c, t, o, b);
          if (!got.ok()) return got.status();
          if (!pattern_.Matches(*got, o, b, 0)) {
            return DataLoss(Describe(names_.workload, "warm-up read", o, b, seed_));
          }
        }
      }
      return OkStatus();
    });
  }

  void Iterate(Env& env, int t, ThreadTally& tally) override {
    ClientState& cs = clients_[static_cast<std::size_t>(t)];
    core::Client& c = *env.clients[static_cast<std::size_t>(t)];
    const std::uint32_t o = static_cast<std::uint32_t>(t) * per_client_ +
                            static_cast<std::uint32_t>(cs.rng.NextBelow(per_client_));
    const std::uint64_t b = cs.rng.NextBelow(blocks_);
    const bool write = cs.rng.NextBelow(10) < write_tenths_;
    BlockState& block = blocks_state_[o * blocks_ + b];
    ++tally.attempted;

    if (write) {
      const std::uint64_t gen = block.gen + 1;
      Span root(names_.write_span);
      const std::int64_t t0 = NowNs();
      const Status st = WriteBlock(env, c, t, o, b, gen);
      const std::int64_t t1 = NowNs();
      block.gen = gen;
      block.known = st.ok();
      if (!st.ok()) {
        ++tally.failed;
        root.Fail();
        return;
      }
      tally.AddWrite(t0, t1);
      return;
    }

    Span root(names_.read_span);
    const std::int64_t t0 = NowNs();
    auto got = ReadBlock(env, c, t, o, b);
    const std::int64_t t1 = NowNs();
    if (!got.ok()) {
      ++tally.failed;
      root.Fail();
      return;
    }
    tally.AddRead(t0, t1);
    if (block.known) {
      Span verify("bench.verify");
      if (!pattern_.Matches(*got, o, b, block.gen)) {
        Verdict::Mismatch(Describe(names_.workload, names_.read_op, o, b, seed_));
      }
    }
  }

 protected:
  struct ClientState {
    Rng rng;
    // Write payloads a client reuses once nothing else references them.
    std::vector<std::shared_ptr<Buffer>> payloads;
  };

  virtual void ResetObjects() = 0;
  virtual Status CreateAndFill(Env& env, core::Client& c, int t,
                               std::uint32_t object) = 0;
  virtual Status WriteBlock(Env& env, core::Client& c, int t,
                            std::uint32_t object, std::uint64_t block,
                            std::uint64_t gen) = 0;
  /// The block's bytes (a view valid until the thread's next read).
  virtual Result<ByteSpan> ReadBlock(Env& env, core::Client& c, int t,
                                     std::uint32_t object,
                                     std::uint64_t block) = 0;

  /// A payload holding the block's content for `gen`, in a buffer no one
  /// else still references.
  util::SharedSlice Payload(int t, std::uint32_t object, std::uint64_t block,
                            std::uint64_t gen) {
    auto& payloads = clients_[static_cast<std::size_t>(t)].payloads;
    std::shared_ptr<Buffer> owner;
    for (const auto& p : payloads) {
      if (p.use_count() == 1) {
        // Pairs with the release in the last other owner's decrement, so
        // its reads of the old bytes happen before the refill below.
        std::atomic_thread_fence(std::memory_order_acquire);
        owner = p;
        break;
      }
    }
    if (owner == nullptr) {
      owner = std::make_shared<Buffer>(io_bytes_);
      payloads.push_back(owner);
    }
    pattern_.Fill(owner->data(), object, block, gen);
    return util::SharedSlice::Wrap(ByteSpan(*owner), owner);
  }

  Names names_;
  std::uint64_t seed_;
  std::uint32_t objects_;
  std::uint32_t per_client_;
  std::size_t io_bytes_;
  std::uint64_t blocks_;
  std::uint64_t write_tenths_;
  BlockPattern pattern_;
  std::vector<BlockState> blocks_state_;
  std::vector<ClientState> clients_;
};

// ---------------------------------------------------------------------------
// small_io: 64 KiB span-API writes (30 %) and reads (70 %).
// ---------------------------------------------------------------------------

class SmallIo final : public BlockWorkload {
 public:
  SmallIo(std::uint64_t seed, const Sizes& s)
      : BlockWorkload({"small_io", "small_io.write", "small_io.read", "ReadObject"},
                      seed, s.small_objects, s.small_object_bytes,
                      s.small_io_bytes, 3) {}

  [[nodiscard]] double UnexplainedWriteUs(const ProbeResults& p,
                                          double write_p50_us) const override {
    return write_p50_us - ProbeAt(p, "rpc.pull_64k_us") -
           ProbeAt(p, "storage.write_slice_64k_us");
  }
  [[nodiscard]] double UnexplainedReadUs(const ProbeResults& p,
                                         double read_p50_us) const override {
    return read_p50_us - ProbeAt(p, "rpc.push_64k_us") -
           ProbeAt(p, "storage.read_slice_64k_us");
  }

 private:
  std::uint32_t Server(const Env& env, std::uint32_t object) const {
    return object % static_cast<std::uint32_t>(env.runtime->storage_count());
  }

  void ResetObjects() override {
    oids_.assign(objects_, storage::kInvalidObject);
    buffers_.assign(clients_.size(), Buffer(io_bytes_));
  }

  Status CreateAndFill(Env& env, core::Client& c, int t,
                       std::uint32_t object) override {
    const std::uint32_t server = Server(env, object);
    LWFS_ASSIGN_OR_RETURN(oids_[object], c.CreateObject(server, env.cap));
    for (std::uint64_t b = 0; b < blocks_; ++b) {
      LWFS_RETURN_IF_ERROR(WriteBlock(env, c, t, object, b, 0));
    }
    return OkStatus();
  }

  Status WriteBlock(Env& env, core::Client& c, int t, std::uint32_t object,
                    std::uint64_t block, std::uint64_t gen) override {
    Buffer& buf = buffers_[static_cast<std::size_t>(t)];
    pattern_.Fill(buf.data(), object, block, gen);
    Span call("core.write");
    Status st = c.WriteObject(Server(env, object), env.cap, oids_[object],
                              block * io_bytes_, ByteSpan(buf));
    if (!st.ok()) call.Fail();
    return st;
  }

  Result<ByteSpan> ReadBlock(Env& env, core::Client& c, int t,
                             std::uint32_t object, std::uint64_t block) override {
    Buffer& buf = buffers_[static_cast<std::size_t>(t)];
    Span call("core.read");
    auto n = c.ReadObject(Server(env, object), env.cap, oids_[object],
                          block * io_bytes_, MutableByteSpan(buf));
    if (!n.ok()) {
      call.Fail();
      return n.status();
    }
    return ByteSpan(buf).first(static_cast<std::size_t>(*n));
  }

  std::vector<storage::ObjectId> oids_;
  std::vector<Buffer> buffers_;  // one per client thread
};

// ---------------------------------------------------------------------------
// replicated_io: 1 MiB chain-replicated (factor 3) slice writes and
// read-from-any slice reads, 50/50.
// ---------------------------------------------------------------------------

class ReplicatedIo final : public BlockWorkload {
 public:
  static constexpr std::uint32_t kFactor = 3;

  ReplicatedIo(std::uint64_t seed, const Sizes& s)
      : BlockWorkload({"replicated_io", "replicated_io.write",
                       "replicated_io.read", "ReadReplicatedSlice"},
                      seed, s.repl_objects, s.repl_object_bytes,
                      s.repl_io_bytes, 5) {}

  [[nodiscard]] double UnexplainedWriteUs(const ProbeResults& p,
                                          double write_p50_us) const override {
    // Each of the three hops pulls the payload and stores it.
    return write_p50_us - kFactor * (ProbeAt(p, "rpc.pull_1m_us") +
                                     ProbeAt(p, "storage.write_slice_1m_us"));
  }
  [[nodiscard]] double UnexplainedReadUs(const ProbeResults& p,
                                         double read_p50_us) const override {
    return read_p50_us - ProbeAt(p, "rpc.push_1m_us") -
           ProbeAt(p, "storage.read_slice_1m_us");
  }

 private:
  void ResetObjects() override {
    chains_.assign(objects_, core::ReplicaChain{});
    last_read_.assign(clients_.size(), util::SharedSlice{});
  }

  Status CreateAndFill(Env& env, core::Client& c, int t,
                       std::uint32_t object) override {
    const auto servers = static_cast<std::uint32_t>(env.runtime->storage_count());
    LWFS_ASSIGN_OR_RETURN(chains_[object], c.CreateReplicatedObject(
                                               env.cap, object % servers, kFactor));
    for (std::uint64_t b = 0; b < blocks_; ++b) {
      LWFS_RETURN_IF_ERROR(WriteBlock(env, c, t, object, b, 0));
    }
    return OkStatus();
  }

  Status WriteBlock(Env& env, core::Client& c, int t, std::uint32_t object,
                    std::uint64_t block, std::uint64_t gen) override {
    const util::SharedSlice payload = Payload(t, object, block, gen);
    Span call("core.repl_write");
    Status st = c.WriteReplicatedSlice(env.cap, chains_[object],
                                       block * io_bytes_, payload);
    if (!st.ok()) call.Fail();
    return st;
  }

  Result<ByteSpan> ReadBlock(Env& env, core::Client& c, int t,
                             std::uint32_t object, std::uint64_t block) override {
    util::SharedSlice& held = last_read_[static_cast<std::size_t>(t)];
    Span call("core.repl_read");
    auto got = c.ReadReplicatedSlice(env.cap, chains_[object],
                                     block * io_bytes_, io_bytes_);
    if (!got.ok()) {
      call.Fail();
      return got.status();
    }
    held = std::move(*got);
    return held.span();
  }

  std::vector<core::ReplicaChain> chains_;
  std::vector<util::SharedSlice> last_read_;  // one per client thread
};

// ---------------------------------------------------------------------------
// meta_churn: the Figure 10 create path with naming over two shards.  Each
// iteration creates and names an object, looks up a random live name, and
// once the client holds its quota of names, retires its oldest one.
// ---------------------------------------------------------------------------

class MetaChurn final : public Workload {
 public:
  MetaChurn(std::uint64_t seed, const Sizes& sizes)
      : seed_(seed), live_per_client_(sizes.meta_live_names / kClients) {}

  [[nodiscard]] core::RuntimeOptions Options() const override {
    core::RuntimeOptions options;
    options.naming_shards = 2;
    return options;
  }

  Status Prepare(Env& env) override {
    clients_.clear();
    for (int t = 0; t < threads(); ++t) {
      clients_.push_back(ClientState{
          Rng(seed_ * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(t)),
          {}, 0});
      LWFS_RETURN_IF_ERROR(env.clients[0]->Mkdir(Dir(t), true));
    }
    return RunOnThreads(threads(), [&](int t) -> Status {
      ClientState& cs = clients_[static_cast<std::size_t>(t)];
      core::Client& c = *env.clients[static_cast<std::size_t>(t)];
      while (cs.live.size() < live_per_client_) {
        ThreadTally scratch;
        Create(env, c, t, scratch);
        if (scratch.failed != 0) return Internal("meta_churn preload failed");
      }
      for (std::uint32_t i = 0; i < 256; ++i) {
        ThreadTally scratch;
        Lookup(c, t, scratch);
        if (scratch.failed != 0) return Internal("meta_churn warm-up failed");
      }
      return OkStatus();
    });
  }

  void Iterate(Env& env, int t, ThreadTally& tally) override {
    core::Client& c = *env.clients[static_cast<std::size_t>(t)];
    ClientState& cs = clients_[static_cast<std::size_t>(t)];
    Create(env, c, t, tally);
    Lookup(c, t, tally);
    if (cs.live.size() > live_per_client_) Retire(env, c, t, tally);
  }

  [[nodiscard]] double UnexplainedWriteUs(const ProbeResults& p,
                                          double write_p50_us) const override {
    // CreateObject and LinkName are one round trip each.
    return write_p50_us - ProbeAt(p, "storage.create_us") -
           ProbeAt(p, "naming.link_us") - 2 * ProbeAt(p, "rpc.null_call_us_p50");
  }
  [[nodiscard]] double UnexplainedReadUs(const ProbeResults& p,
                                         double read_p50_us) const override {
    return read_p50_us - ProbeAt(p, "naming.lookup_us") -
           ProbeAt(p, "rpc.null_call_us_p50");
  }

 private:
  struct Name {
    std::uint64_t seq = 0;
    storage::ObjectRef ref;
  };
  struct ClientState {
    Rng rng;
    std::deque<Name> live;
    std::uint64_t next_seq = 0;
  };

  static std::string Dir(int t) { return "/meta/c" + std::to_string(t); }
  static std::string Path(int t, std::uint64_t seq) {
    return Dir(t) + "/n" + std::to_string(seq);
  }

  void Create(Env& env, core::Client& c, int t, ThreadTally& tally) {
    ClientState& cs = clients_[static_cast<std::size_t>(t)];
    const std::uint64_t seq = cs.next_seq++;
    const auto server = static_cast<std::uint32_t>(
        (seq + static_cast<std::uint64_t>(t)) %
        static_cast<std::uint64_t>(env.runtime->storage_count()));
    ++tally.attempted;
    Span root("meta_churn.create");
    const std::int64_t t0 = NowNs();
    Result<storage::ObjectId> oid = storage::kInvalidObject;
    {
      Span call("core.create");
      oid = c.CreateObject(server, env.cap);
      if (!oid.ok()) call.Fail();
    }
    Status linked = oid.status();
    const storage::ObjectRef ref{env.cid, server,
                                 oid.ok() ? *oid : storage::kInvalidObject};
    if (oid.ok()) {
      Span call("core.link");
      linked = c.LinkName(Path(t, seq), ref);
      if (!linked.ok()) call.Fail();
    }
    const std::int64_t t1 = NowNs();
    if (!linked.ok()) {
      ++tally.failed;
      root.Fail();
      if (oid.ok()) (void)c.RemoveObject(server, env.cap, *oid);
      return;
    }
    tally.AddWrite(t0, t1);
    cs.live.push_back(Name{seq, ref});
  }

  /// LookupName of `name`, checked against the reference it was linked to.
  Status CheckedLookup(core::Client& c, int t, const Name& name) {
    Span call("core.lookup");
    auto got = c.LookupName(Path(t, name.seq));
    if (!got.ok()) {
      call.Fail();
      return got.status();
    }
    if (*got != name.ref) {
      Verdict::Mismatch("meta_churn: LookupName(" + Path(t, name.seq) +
                        ") returned the wrong object (seed " +
                        std::to_string(seed_) + ")");
    }
    return OkStatus();
  }

  void Lookup(core::Client& c, int t, ThreadTally& tally) {
    ClientState& cs = clients_[static_cast<std::size_t>(t)];
    if (cs.live.empty()) return;
    const Name& name = cs.live[cs.rng.NextBelow(cs.live.size())];
    ++tally.attempted;
    Span root("meta_churn.lookup");
    const std::int64_t t0 = NowNs();
    const Status st = CheckedLookup(c, t, name);
    const std::int64_t t1 = NowNs();
    if (!st.ok()) {
      ++tally.failed;
      root.Fail();
      return;
    }
    // Lookups are timed but ops_s counts creates, the Figure 10 rate.
    tally.AddRead(t0, t1, /*counts=*/false);
  }

  void Retire(Env& env, core::Client& c, int t, ThreadTally& tally) {
    ClientState& cs = clients_[static_cast<std::size_t>(t)];
    const Name oldest = cs.live.front();
    cs.live.pop_front();
    ++tally.attempted;
    Span root("meta_churn.remove");
    Status st = CheckedLookup(c, t, oldest);
    if (st.ok()) {
      Span call("core.unlink");
      st = c.UnlinkName(Path(t, oldest.seq));
      if (!st.ok()) call.Fail();
    }
    if (st.ok()) {
      Span call("core.remove");
      st = c.RemoveObject(oldest.ref.server_index, env.cap, oldest.ref.oid);
      if (!st.ok()) call.Fail();
    }
    if (!st.ok()) {
      ++tally.failed;
      root.Fail();
    }
  }

  std::uint64_t seed_;
  std::uint32_t live_per_client_;
  std::vector<ClientState> clients_;
};

}  // namespace

void Verdict::Mismatch(const std::string& what) {
  std::lock_guard<std::mutex> lock(g_verdict_mutex);
  if (!g_mismatch.load(std::memory_order_relaxed)) g_verdict = what;
  g_mismatch.store(true, std::memory_order_relaxed);
}

bool Verdict::ok() { return !g_mismatch.load(std::memory_order_relaxed); }

std::string Verdict::message() {
  std::lock_guard<std::mutex> lock(g_verdict_mutex);
  return g_verdict;
}

Sizes Sizes::Smoke() {
  Sizes s;
  s.ckpt_rank_bytes = 1u << 20;
  s.small_objects = 16;
  s.small_object_bytes = 256u << 10;
  s.meta_live_names = 256;
  s.repl_objects = 8;
  s.repl_object_bytes = 1u << 20;
  s.repl_io_bytes = 256u << 10;
  return s;
}

Result<Env> StartEnv(const core::RuntimeOptions& options, int nclients) {
  Env env;
  LWFS_ASSIGN_OR_RETURN(env.runtime, core::ServiceRuntime::Start(options));
  env.runtime->AddUser("suite", "pw", 1);
  for (int i = 0; i < nclients; ++i) {
    env.clients.push_back(env.runtime->MakeClient());
  }
  LWFS_ASSIGN_OR_RETURN(auto cred, env.clients[0]->Login("suite", "pw"));
  LWFS_ASSIGN_OR_RETURN(env.cid, env.clients[0]->CreateContainer(cred));
  LWFS_ASSIGN_OR_RETURN(env.cap,
                        env.clients[0]->GetCap(cred, env.cid, security::kOpAll));
  return env;
}

std::unique_ptr<Workload> MakeWorkload(std::string_view name,
                                       std::uint64_t seed, const Sizes& sizes) {
  if (name == "ckpt_dump") return std::make_unique<CkptDump>(seed, sizes);
  if (name == "small_io") return std::make_unique<SmallIo>(seed, sizes);
  if (name == "meta_churn") return std::make_unique<MetaChurn>(seed, sizes);
  if (name == "replicated_io") return std::make_unique<ReplicatedIo>(seed, sizes);
  return nullptr;
}

}  // namespace lwfs::suite

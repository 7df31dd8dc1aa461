// WritePipeline: one rank's checkpoint dump as a resumable state machine.
//
// The Figure 8 per-rank sequence — authenticate, acquire a capability,
// create the state object, stream the payload, verify — expressed as a
// driver::LogicalClient so that one carrier thread can interleave
// thousands of ranks' pipelines over the asynchronous RPC engine.  The
// blocking LwfsCheckpoint::Run is a thin wrapper: it builds one pipeline
// per rank and drives them on min(ranks, window) carriers that share the
// checkpoint window as their in-flight cap.
//
// Stages (each entered only when the previous one's reply resolved):
//
//   kLogin       — authn RPC; skipped when Spec carries a credential.
//   kAcquireCap  — authz RPC; skipped when Spec carries a capability
//                  (the checkpoint's broadcast cap, §3.1.2 / Figure 4-a).
//   kCreate      — object create on the chosen storage server; the resolve
//                  timestamp is recorded (create_done_time) so callers can
//                  split create-phase from dump-phase time (Figure 10).
//   kStream      — payload written in chunk_bytes pieces through a bounded
//                  per-rank window; chunk_bytes = 0 dumps in one write
//                  (replicated: in kReplicatedChunkBytes chain writes).
//   kVerify      — optional GetAttr check that the object covers the
//                  payload (Spec::verify_attr).
//   kDone        — result() holds the first error, or OK.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "core/client.h"
#include "driver/driver.h"
#include "security/types.h"
#include "storage/ids.h"
#include "util/bytes.h"
#include "util/clock.h"
#include "util/shared_buffer.h"
#include "util/status.h"

namespace lwfs::checkpoint {

class WritePipeline final : public driver::LogicalClient {
 public:
  /// Chain-write size of a replicated stream when Spec::chunk_bytes is 0.
  /// Every chain hop holds a staging reservation for its whole payload
  /// while it waits downstream, so a whole-rank chain write larger than a
  /// server's staging pool would wait out its timeout instead.
  static constexpr std::uint64_t kReplicatedChunkBytes = 1u << 20;

  struct Spec {
    /// Shared RPC endpoint.  Many pipelines multiplex one client; callers
    /// shard clients across carriers (driver's id % carriers contract).
    core::Client* client = nullptr;
    std::uint32_t server = 0;  // storage server for this rank's object

    /// Pre-acquired identity/rights.  When absent the pipeline runs the
    /// corresponding acquisition stage itself.
    std::optional<security::Credential> cred;
    std::optional<security::Capability> cap;
    std::string principal, secret;    // kLogin inputs (when cred is absent)
    storage::ContainerId cid{0};      // kAcquireCap container
    std::uint32_t cap_ops = 0;        // kAcquireCap rights mask

    /// >= 2 switches the pipeline to the replicated path: placement via
    /// the naming registry (kPlace, with `server` as the placement
    /// preference), object-create fan-out to every chain member, chain
    /// writes with head failover, and a verify that fails over through the
    /// chain.  0 or 1 keeps the direct single-server path.
    std::uint32_t replication_factor = 0;

    txn::TxnId txid = 0;              // create joins this transaction
    /// Chunks go out as O(1) sub-slices.  An owned slice is registered by
    /// reference and keeps the state buffer alive (the server's
    /// store-medium copy is the only copy); a borrowed (External) one must
    /// stay valid until kDone.
    util::SharedSlice payload{};
    std::uint64_t chunk_bytes = 0;    // 0 = whole payload in one write
                                      // (replicated: kReplicatedChunkBytes)
    std::size_t window = 1;           // outstanding chunk writes per rank
    bool create_only = false;         // stop after kCreate (Figure 10 sweep)
    bool verify_attr = false;         // run kVerify
  };

  explicit WritePipeline(Spec spec) : spec_(std::move(spec)) {}

  driver::Step Poll(driver::Context& ctx) override;
  [[nodiscard]] Status result() const override { return result_; }

  /// Valid once the machine passed kCreate.
  [[nodiscard]] bool created() const { return created_; }
  [[nodiscard]] storage::ObjectId oid() const { return oid_; }
  [[nodiscard]] util::Clock::TimePoint create_done_time() const {
    return create_done_;
  }
  /// True once the payload was fully written (and verified, if requested).
  [[nodiscard]] bool dumped() const { return dumped_; }
  /// The replica placement (valid once created(), replicated mode only).
  [[nodiscard]] const core::ReplicaChain& replica_chain() const {
    return chain_;
  }

 private:
  enum class Stage {
    kStart,
    kLogin,
    kAcquireCap,
    kCreate,
    kPlace,           // replicated: registry placement RPC in flight
    kCreateReplicas,  // replicated: create fan-out in flight
    kStream,
    kVerify,
    kDone,
  };

  [[nodiscard]] bool replicated() const {
    return spec_.replication_factor >= 2;
  }

  /// Issue the next acquisition/create/verify call for `stage` and arm its
  /// completion wake.  Returns kBlocked, or fails the machine.
  driver::Step Issue(driver::Context& ctx, Stage stage);
  driver::Step Fail(Status status);

  Spec spec_;
  Stage stage_ = Stage::kStart;

  rpc::CallHandle call_;             // login / getcap / getattr in flight
  core::PendingCreate create_;       // create in flight
  std::deque<core::PendingIo> writes_;  // chunk window, retired from front
  std::uint64_t offset_ = 0;         // next payload byte to issue

  // Replicated-path state.  A chain write's handle changes when head
  // failover reissues it, so each window entry remembers the generation it
  // armed its wake for and re-arms when the generation moves.
  core::ReplicaChain chain_;
  std::vector<rpc::CallHandle> creates_;  // fan-out, one per chain member
  std::vector<int> create_states_;        // 0 pending, 1 created, -1 failed
  Status create_error_ = OkStatus();      // first create failure
  struct RepWrite {
    core::PendingReplicatedWrite io;
    std::uint64_t armed = 0;
  };
  std::deque<RepWrite> rep_writes_;
  std::size_t verify_member_ = 0;  // chain index the verify targets
  int place_retries_ = 0;  // kWrongShard re-issues (bounded)

  security::Credential cred_{};
  security::Capability cap_{};
  bool created_ = false;
  bool dumped_ = false;
  storage::ObjectId oid_{};
  util::Clock::TimePoint create_done_{};
  Status result_ = OkStatus();
};

}  // namespace lwfs::checkpoint

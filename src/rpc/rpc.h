// Request/response RPC with server-directed bulk data movement.
//
// This is the access protocol of Figure 6: a client sends a *small* request
// message to a server's bounded request portal and registers any bulk data
// it wants moved; the *server* then pulls (write) or pushes (read) the bulk
// bytes over the one-sided portals fabric when it has buffer space and
// device bandwidth, and finally sends a small reply.
//
// Flow control falls out of the bounded request portal: when an I/O node is
// saturated its request queue fills, new Puts fail with kResourceExhausted,
// and RpcClient backs off and resends — exactly the retry overhead the
// paper charges against client-pushed designs, but paid on tiny messages
// instead of the bulk payload.
//
// The client side is an asynchronous completion engine: CallAsync() issues
// the small request and returns a CallHandle immediately.  A reply
// completes its call on the thread that delivers it: each call's reply
// slot is an inline portals entry, so the server's Put verifies, routes
// and resolves the reply and wakes the caller, with no client thread in
// between.
//
// The server side mirrors it.  The request portal is an inline entry too:
// the thread whose Put delivers a request — a caller inside CallAsync, a
// client's engine thread on a resend, a driver carrier, another server's
// worker — runs an op registered Dispatch::kInline itself, with no queue
// and no worker wake-up, and its reply Put completes the call on that same
// thread, so CallAsync returns with the call already done.  Such a handler
// must not wait: it pulls and pushes no bulk, enters no scheduler, sleeps
// nothing and makes no nested call.  When it finds it would have to (a
// capability only the authorization service can settle, a standby's
// takeover), it calls ServerContext::Defer() before any effect and the
// request goes to the bounded queue like every other op, where a server
// worker runs it; a full queue still refuses the Put with
// kResourceExhausted.  RpcServer::Stop() waits for inline dispatches
// already running.
//
// One engine thread per RpcClient keeps only the timers —
// resend backoff after a rejected send (decorrelated jitter), reply
// deadlines, retransmits, and the failures they produce — and is woken
// only when a new call is due before its planned wake-up.  That lets any
// number of caller threads keep a *bounded window* of requests in flight
// — the "outstanding requests" knob Figure 6's flow-control argument is
// about — without one OS thread per request.  Call() remains as a thin
// CallAsync+Await wrapper.
//
// Robustness (PR 3): every request/reply frame carries a CRC32 trailer and
// the request header carries a checksum of the registered write payload, so
// wire corruption surfaces as a clean drop/kDataLoss instead of a garbage
// decode.  A reply timeout triggers full request retransmission (budget:
// ClientOptions.max_retransmits); the server keeps an at-most-once
// dedup/reply cache keyed by (client nid, request id) so retransmitted
// mutating ops are never applied twice.  A per-server consecutive-failure
// circuit breaker fails calls fast while a server is dead and re-probes
// half-open after a cooldown.
//
// Portal layout (per NIC):
//   portal 0 — request queue (message mode, bounded)
//   portal 1 — replies       (message mode, matched by request id)
//   portal 2 — bulk regions  (region mode, matched by request id)
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "portals/portals.h"
#include "util/bytes.h"
#include "util/clock.h"
#include "util/crc32.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/sync_queue.h"

namespace lwfs::rpc {

using Opcode = std::uint32_t;

inline constexpr portals::PortalIndex kRequestPortal = 0;
inline constexpr portals::PortalIndex kReplyPortal = 1;
inline constexpr portals::PortalIndex kBulkPortal = 2;
/// Control-plane requests (e.g. capability invalidation pushed from the
/// authorization service) use a separate portal served by its own worker,
/// so control traffic can never deadlock behind blocked data-plane
/// handlers.
inline constexpr portals::PortalIndex kControlPortal = 3;
/// Replica-chain forwarding between storage servers.  A chain head that
/// forwarded a hop on its own data portal could deadlock two servers whose
/// data workers all block awaiting each other's replies; the dedicated
/// portal (with its own workers) breaks the cycle for the forwarding hop.
inline constexpr portals::PortalIndex kReplicaPortal = 4;

/// Client-wide defaults and health-tracking knobs.  Per-call CallOptions
/// override the deadline/retransmit budget.
struct ClientOptions {
  /// Reply deadline per send attempt when CallOptions.timeout is zero.
  std::chrono::milliseconds default_timeout{5000};
  /// Full request retransmissions after a reply timeout or a corrupt reply
  /// (the §3.2 "resend small messages" recovery; the server's at-most-once
  /// reply cache absorbs the duplicates).  Worst-case call latency is
  /// therefore (1 + max_retransmits) * timeout.
  int max_retransmits = 2;
  /// Consecutive *transport* failures (timeout / unavailable / resends
  /// exhausted) against one server before its circuit breaker opens and
  /// calls fail fast with kUnavailable.  <= 0 disables the breaker.
  /// Decoded replies — even error replies — count as contact and close it.
  int breaker_threshold = 8;
  /// How long an open breaker fast-fails before admitting one half-open
  /// probe call.
  std::chrono::milliseconds breaker_cooldown{250};
  /// Time source for deadlines, backoff, breaker cooldowns, and the engine
  /// thread (nullptr = real time).
  util::Clock* clock = nullptr;
};

/// Decorrelated-jitter backoff for resends against a full request portal.
/// Plain exponential backoff keeps synchronized ranks retrying in lockstep
/// (they all got rejected at the same instant, so they all come back at the
/// same instant); drawing each sleep uniformly from [base, min(cap, 3×prev)]
/// spreads the retry times apart while still growing toward the cap.
class Backoff {
 public:
  static constexpr int kDefaultBaseUs = 10;
  static constexpr int kDefaultCapUs = 2000;

  explicit Backoff(std::uint64_t seed, int base_us = kDefaultBaseUs,
                   int cap_us = kDefaultCapUs)
      : rng_(seed), base_us_(base_us), cap_us_(cap_us), prev_us_(base_us) {}

  /// Next sleep in microseconds.
  int NextUs() {
    const auto lo = static_cast<std::uint64_t>(base_us_);
    const auto hi = static_cast<std::uint64_t>(
        std::min(static_cast<long long>(cap_us_),
                 3LL * static_cast<long long>(prev_us_)));
    const std::uint64_t span = hi > lo ? hi - lo : 0;
    prev_us_ = static_cast<int>(
        lo + (span > 0 ? rng_.NextBelow(span + 1) : 0));
    return prev_us_;
  }

 private:
  Rng rng_;
  int base_us_;
  int cap_us_;
  int prev_us_;
};

/// Per-call options.
struct CallOptions {
  /// Registered for server *pull* (a write payload).
  ByteSpan bulk_out{};
  /// Zero-copy alternative to `bulk_out`: an *owned* slice registered for
  /// server pull.  The NIC holds a reference for the life of the call, and
  /// the server's PullBulkSlice gets sub-slices of these very bytes — no
  /// staging copy, and the payload stays valid even if the call times out
  /// while the server is still reading.  A borrowed (External) slice
  /// registers as a raw span, like bulk_out.  Either way its cached CRC,
  /// if any, is the request header's payload checksum.  Takes precedence
  /// over bulk_out.
  util::SharedSlice bulk_out_slice{};
  /// Registered for server *push* (a read destination).
  MutableByteSpan bulk_in{};
  /// Give up after this long without a reply (measured from the send that
  /// the server accepted).  Zero means "use ClientOptions.default_timeout".
  std::chrono::milliseconds timeout{0};
  /// Resend attempts when the request portal rejects us.
  int max_resends = 1000;
  /// Full retransmissions after a reply timeout; -1 means "use
  /// ClientOptions.max_retransmits".
  int max_retransmits = -1;
  /// Which portal to address the request to (kRequestPortal or
  /// kControlPortal).
  portals::PortalIndex request_portal = kRequestPortal;
};

class RpcClient;

namespace detail {

/// Shared state of one in-flight call.  The awaiting thread and the
/// client's in-flight table both hold references; the registered reply/bulk
/// entries live here so the caller's memory stays attached to the fabric
/// until the call completes — never longer, never shorter.
struct CallState {
  // Immutable after issue.
  std::uint64_t request_id = 0;
  Opcode opcode = 0;  // for per-op client tallies
  portals::Nid server = portals::kInvalidNid;
  portals::PortalIndex request_portal = kRequestPortal;
  /// Encoded header + request body + CRC.  An owned slice, so retransmits
  /// re-send the same bytes by reference instead of re-encoding or cloning.
  util::SharedSlice wire;
  std::chrono::milliseconds timeout{5000};
  int max_resends = 0;
  int max_retransmits = 0;
  MutableByteSpan bulk_in{};  // for client-side bulk CRC verification

  /// Bulk payload that rode the reply frame itself (slice read path).  When
  /// the fabric delivered the frame's parts by reference this aliases the
  /// server-side bytes — store-owned memory on a first execution, the reply
  /// cache's frame on a retransmit.  Written by the completing thread before
  /// `done` is published; read through CallHandle::ReplyBulk() afterwards.
  util::SharedSlice reply_bulk;

  util::Clock* clock = nullptr;  // set at issue, used by Await/FinishCall

  // Send and timer bookkeeping; guarded by the owning RpcClient's mutex.
  bool accepted = false;  // the server's request portal took the Put
  bool sending = false;   // a Put is in flight outside the client mutex
  // A corrupt reply raced back and rescheduled a retransmit while the Put
  // was unwinding; PerformSend must not clobber that schedule.
  bool retransmit_pending = false;
  int resend_attempts = 0;
  int retransmits_used = 0;
  util::Clock::TimePoint next_send{};
  util::Clock::TimePoint deadline{};
  Backoff backoff{0};
  portals::RegisteredRegion reply_region;
  portals::RegisteredRegion out_region;
  portals::RegisteredRegion in_region;

  // Completion; guarded by `mutex` below (not the client's mutex, so
  // waiters never contend with the send and timer paths).
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  Result<Buffer> result = Buffer{};
  /// One-shot completion callback (CallHandle::OnComplete).  Stored while
  /// the call is pending; extracted and invoked exactly once when the
  /// result is published.
  std::function<void(const Result<Buffer>&)> on_complete;
};

/// Lifetime latch between an endpoint and the deliveries its inline portals
/// entries run on other threads: an RpcClient's replies and an RpcServer's
/// requests.  The entry's handler holds a reference, so a delivery that
/// already left the NIC can still find the gate after the endpoint is gone:
/// it enters only while the gate is open, and Close() waits for the
/// deliveries inside to drain.
template <typename Owner>
class InlineGate {
 public:
  explicit InlineGate(util::Clock* clock) : clock_(clock) {}

  void Open(Owner* owner) {
    std::lock_guard<std::mutex> lock(mutex_);
    owner_ = owner;
  }

  /// Runs `fn(owner)` inside the gate; false (and `fn` not run) once it is
  /// closed.
  template <typename Fn>
  bool Run(Fn&& fn) {
    Owner* owner = nullptr;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (owner_ == nullptr) return false;
      owner = owner_;
      ++running_;
    }
    fn(owner);
    std::lock_guard<std::mutex> lock(mutex_);
    if (--running_ == 0 && owner_ == nullptr) clock_->NotifyAll(idle_);
    return true;
  }

  /// Close the gate and wait until no delivery is inside.
  void Close() {
    std::unique_lock<std::mutex> lock(mutex_);
    owner_ = nullptr;
    clock_->Wait(idle_, lock, [&] { return running_ == 0; });
  }

 private:
  util::Clock* const clock_;
  std::mutex mutex_;
  std::condition_variable idle_;
  Owner* owner_ = nullptr;  // null while closed
  int running_ = 0;         // deliveries inside
};

}  // namespace detail

/// Completion handle for an asynchronous call.  Cheap to copy (shared
/// state) and safe to drop before completion — the client keeps the call
/// alive until it completes — but the memory behind
/// CallOptions::bulk_out / bulk_in must stay valid until the call
/// completes.
class CallHandle {
 public:
  CallHandle() = default;

  [[nodiscard]] bool valid() const { return state_ != nullptr; }
  [[nodiscard]] std::uint64_t request_id() const {
    return state_ ? state_->request_id : 0;
  }

  /// Block until the call completes; returns the reply body or the error.
  Result<Buffer> Await();

  /// Non-blocking: if the call has completed, fill *out and return true.
  bool TryAwait(Result<Buffer>* out);

  /// Arrange for `fn` to run exactly once when the call completes — the
  /// completion-notification path that lets an event-driven carrier thread
  /// multiplex thousands of in-flight calls without pinning a thread per
  /// call in Await().
  ///
  /// Contract:
  ///  - `fn` runs after `done` is set and before waiters blocked in
  ///    Await() are released, on one of three threads:
  ///     * the thread that delivered the reply (in-process, the server's
  ///       RPC worker that sent it);
  ///     * the client's engine thread, for timeouts and transport
  ///       failures;
  ///     * the calling thread, inside this OnComplete, if the call is
  ///       already done.  For an op the server runs inline
  ///       (Dispatch::kInline) that is the usual case: the whole round
  ///       trip ran inside CallAsync, on the caller's own thread, so hold
  ///       no lock here that `fn` takes.
  ///    Either way, TryAwait() inside (or after) the callback succeeds.
  ///  - `fn` must be fast and must not block or issue blocking calls: it
  ///    delays the replying thread or every timer of the client.
  ///    Typical use is "flip a flag under a mutex and Notify a condition
  ///    variable" or "bump an atomic".
  ///  - At most one callback per call; a second OnComplete replaces an
  ///    unfired predecessor.
  void OnComplete(std::function<void(const Result<Buffer>&)> fn);

  /// The bulk payload that rode the reply frame (server PushBulkSlice).
  /// Empty until the call completes successfully.  Returns a ref-counted
  /// alias of the received bytes — zero-copy when the fabric delivered the
  /// reply's parts by reference — so it stays valid for as long as the
  /// caller holds it, independent of the handle.
  [[nodiscard]] util::SharedSlice ReplyBulk() const;

 private:
  friend class RpcClient;
  explicit CallHandle(std::shared_ptr<detail::CallState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::CallState> state_;
};

/// Issues calls from one client endpoint.  Thread-safe: any number of
/// threads may issue sync or async calls on one RpcClient.  Replies
/// complete on the delivering thread; one lazily started engine thread
/// handles deadlines, retransmits, and resends.
class RpcClient : public metrics::Instrumented {
 public:
  explicit RpcClient(std::shared_ptr<portals::Nic> nic,
                     ClientOptions options = {});
  ~RpcClient();

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  /// Asynchronous call: registers the reply slot and bulk regions, sends
  /// the (small) request, and returns without waiting for the reply.
  /// Returns an error only for immediate, non-retryable send failures;
  /// retryable rejections are resent in the background.
  Result<CallHandle> CallAsync(portals::Nid server, Opcode opcode,
                               ByteSpan request,
                               const CallOptions& options = {});

  /// Synchronous call: CallAsync + Await.  On success returns the reply
  /// body.
  Result<Buffer> Call(portals::Nid server, Opcode opcode, ByteSpan request,
                      const CallOptions& options = {});

  [[nodiscard]] portals::Nid nid() const { return nic_->nid(); }
  [[nodiscard]] const ClientOptions& options() const { return options_; }
  /// True while `server`'s circuit breaker is open (calls fail fast).
  [[nodiscard]] bool BreakerOpen(portals::Nid server);

  /// The client's time source (never null) — lock-poll loops built on this
  /// client (LockBlocking, extent-lock acquisition) wait through it.
  [[nodiscard]] util::Clock* clock() const { return clock_; }

 private:
  /// How a finished call reflects on the target server's health.
  enum class Contact {
    kReplied,           // a decodable reply arrived: the server is alive
    kTransportFailure,  // timeout / unavailable / resends exhausted
    kNeutral,           // client-side abort; says nothing about the server
  };

  void EngineLoop();
  void EnsureEngineLocked();
  /// Note that a call is due at `due`.  Returns true when the engine is
  /// parked past `due` and must be notified; an engine mid-pass is flagged
  /// to re-plan before it parks.
  bool KickEngineLocked(util::Clock::TimePoint due);
  /// The inline reply handler (gate_ entered): verify the frame, route
  /// it to its call, and either finish the call or, for a corrupt frame,
  /// re-arm the slot and schedule a retransmit.
  void CompleteReply(portals::Event event);
  /// Perform the Put for `state` — *outside* mutex_, because an injected
  /// fabric delay may sleep inside Put and the engine must never sleep
  /// holding the client lock — then reacquire it to apply the outcome.
  /// The caller marked `state.sending` under mutex_ first.  Returns false
  /// when the call failed terminally: the state has been removed from
  /// inflight_ and the caller must complete it with `*failure`.  Wakes the
  /// engine if the call's new deadline or resend time needs it.
  bool PerformSend(const std::shared_ptr<detail::CallState>& state,
                   Status* failure);
  /// Detach regions, record stats and breaker health, publish the result,
  /// wake waiters.
  void FinishCall(const std::shared_ptr<detail::CallState>& state,
                  Result<Buffer> result, Contact contact);
  /// Attach the call's single-use inline reply slot (matched by request
  /// id, accepting only the call's server); re-arms it after a corrupt
  /// reply consumed it.
  Status ArmReplySlot(detail::CallState& state);
  /// Decode a CRC-verified reply frame, delivered as one or more parts (the
  /// CRC trailer already stripped).  Region-push reads verify the pushed
  /// bulk payload against the checksum the server reported; a frame-carried
  /// bulk slice is extracted zero-copy into `state.reply_bulk` (the frame
  /// CRC already covered it).
  Result<Buffer> ResolveReply(detail::CallState& state,
                              std::span<const util::SharedSlice> parts);
  /// Admission check against `server`'s breaker; fails fast when open.
  Status AdmitLocked(portals::Nid server);
  void RecordContactLocked(portals::Nid server, Contact contact);

  std::shared_ptr<portals::Nic> nic_;
  ClientOptions options_;
  util::Clock* clock_;
  std::shared_ptr<detail::InlineGate<RpcClient>> gate_;
  /// Shared by every reply entry; runs CompleteReply through gate_.
  std::shared_ptr<const portals::EventHandler> reply_handler_;

  mutable std::mutex mutex_;
  bool engine_running_ = false;
  bool stopping_ = false;
  std::thread engine_;
  /// Engine timer state (guarded by mutex_).  While parked the engine
  /// sleeps on engine_cv_ until engine_wake_at_; engine_kick_ makes it
  /// re-plan (set by a call due earlier, or during a pass).
  std::condition_variable engine_cv_;
  bool engine_parked_ = false;
  bool engine_kick_ = false;
  util::Clock::TimePoint engine_wake_at_{};
  std::unordered_map<std::uint64_t, std::shared_ptr<detail::CallState>>
      inflight_;

  /// Per-server health (guarded by mutex_): consecutive transport failures
  /// open the circuit; after the cooldown one half-open probe is admitted
  /// and a decoded reply closes it again.
  struct Breaker {
    int consecutive = 0;
    bool open = false;
    bool probing = false;
    util::Clock::TimePoint open_until{};
  };
  std::unordered_map<portals::Nid, Breaker> breakers_;
  metrics::Counter calls_ = metrics_->counter("calls");
  metrics::Counter resends_ = metrics_->counter("resends");
  metrics::Counter failures_ = metrics_->counter("failures");
  metrics::Counter retransmits_ = metrics_->counter("retransmits");
  metrics::Counter crc_rejects_ = metrics_->counter("crc_rejects");
  metrics::Counter bulk_crc_failures_ = metrics_->counter("bulk_crc_failures");
  metrics::Counter breaker_opens_ = metrics_->counter("breaker_opens");
  metrics::Counter breaker_fast_fails_ =
      metrics_->counter("breaker_fast_fails");
  /// Per-opcode (calls, errors), resolved on an opcode's first call
  /// (guarded by mutex_).
  std::unordered_map<Opcode, std::pair<metrics::Counter, metrics::Counter>>
      op_tallies_;
  std::pair<metrics::Counter, metrics::Counter>& OpTallyLocked(Opcode opcode);
  /// Per-client (guarded by mutex_), not process-global: ids — and the
  /// backoff jitter seeded from them — must depend only on this client's
  /// own call sequence for virtual-time runs to be reproducible.  Replies
  /// and dedup keys are scoped to the client nid, so per-client uniqueness
  /// is all the protocol needs.
  std::uint64_t next_request_id_ = 1;
};

/// Handed to server handlers; carries the request and the bulk-transfer
/// hooks back to the initiating client.
class ServerContext {
 public:
  ServerContext(portals::Nic* nic, portals::Nid client,
                std::uint64_t request_id, std::uint64_t bulk_out_len,
                std::uint64_t bulk_in_len, std::uint32_t bulk_out_crc = 0,
                bool inline_dispatch = false)
      : nic_(nic),
        client_(client),
        request_id_(request_id),
        bulk_out_len_(bulk_out_len),
        bulk_in_len_(bulk_in_len),
        bulk_out_crc_(bulk_out_crc),
        inline_dispatch_(inline_dispatch) {}

  /// True while the handler runs on the thread that delivered the request
  /// (an op registered Dispatch::kInline) rather than on a server worker.
  /// That thread belongs to someone else — a caller inside CallAsync, a
  /// client's engine, a driver carrier — so the handler must not wait.
  [[nodiscard]] bool inline_dispatch() const { return inline_dispatch_; }
  /// Inline dispatch only, and only before the handler had any effect:
  /// hand the request to a server worker instead, because serving it here
  /// would wait (e.g. a capability verify round trip).  The handler
  /// returns the status this returns; the dispatcher discards it, counts
  /// nothing, and queues the request.
  Status Defer() {
    deferred_ = true;
    return Unavailable("deferred to a server worker");
  }
  [[nodiscard]] bool deferred() const { return deferred_; }

  [[nodiscard]] portals::Nid client() const { return client_; }
  [[nodiscard]] std::uint64_t request_id() const { return request_id_; }
  /// Size of the client's registered write payload (0 = none).
  [[nodiscard]] std::uint64_t bulk_out_size() const { return bulk_out_len_; }
  /// Size of the client's registered read region (0 = none).
  [[nodiscard]] std::uint64_t bulk_in_size() const { return bulk_in_len_; }

  /// Server-directed *pull*: fetch [offset, offset+out.size()) of the
  /// client's registered write payload into server memory.  Gets are
  /// idempotent, so injected losses (kTimeout) are retried a few times
  /// before surfacing.  A pull does not checksum: the handler checks the
  /// bytes against bulk_out_crc() where it uses them — the storage server
  /// inside its store copy (storage::ObjectStore::Stage).
  Status PullBulk(MutableByteSpan out, std::size_t offset = 0);

  /// Zero-copy pull: when the client registered an owned slice
  /// (CallOptions::bulk_out_slice), the result is a sub-slice of the
  /// client's own payload bytes — no staging buffer, no copy, and the
  /// reference keeps the bytes alive however long the server holds them.
  /// A raw-span registration degrades to one counted staging copy.  Same
  /// retry semantics as PullBulk, and no checksum either.
  Result<util::SharedSlice> PullBulkSlice(std::size_t length,
                                          std::size_t offset = 0);

  /// Server-directed *push*: place `data` into the client's registered read
  /// region at `offset`.  Sequential pushes from offset 0 are
  /// CRC-accumulated; the reply frame carries the running checksum so the
  /// client can verify what landed in its region.
  Status PushBulk(ByteSpan data, std::size_t offset = 0);

  /// Zero-copy push: queue an *owned* slice to ride the reply frame itself
  /// as a scatter-gather part.  No staging buffer, no region registration:
  /// the client receives a sub-slice of these very bytes (store-owned
  /// memory), the reply cache holds the same slice by reference, and a
  /// retransmitted reply re-delivers the identical payload — closing the
  /// "bulk lost but reply cached" window the region-push path tolerates.
  /// Covered by the reply frame's CRC trailer, so no separate checksum.
  /// Multiple pushes concatenate in push order.
  Status PushBulkSlice(util::SharedSlice data);

  /// Drain the queued reply-frame bulk parts (dispatch assembles them into
  /// the reply frame after the handler returns).
  [[nodiscard]] std::vector<util::SharedSlice> TakeReplyBulk() {
    return std::move(reply_bulk_);
  }
  /// Total bytes queued via PushBulkSlice.
  [[nodiscard]] std::uint64_t reply_bulk_bytes() const {
    return reply_bulk_bytes_;
  }

  /// The checksum the client sent for its whole payload (0 = none).
  [[nodiscard]] std::uint32_t bulk_out_crc() const { return bulk_out_crc_; }
  /// The handler found the pulled bytes did not match their checksum: the
  /// server counts it in bulk_crc_failures (the client sees the handler's
  /// kDataLoss and retries).
  void NotePayloadCorrupt() { pulled_crc_failed_ = true; }
  [[nodiscard]] bool pulled_crc_failed() const { return pulled_crc_failed_; }

  /// Checksum/length of everything pushed so far, in push order (0/0 when
  /// pushes were not sequential-from-zero and thus not client-verifiable).
  [[nodiscard]] std::uint32_t pushed_crc() const {
    return pushed_in_order_ ? pushed_.value() : 0;
  }
  [[nodiscard]] std::uint64_t pushed_bytes() const {
    return pushed_in_order_ ? pushed_.bytes() : 0;
  }

  /// Raw byte totals moved through this context, regardless of ordering —
  /// the dispatch middleware's bulk-bytes metric.
  [[nodiscard]] std::uint64_t total_pulled_bytes() const {
    return total_pulled_;
  }
  [[nodiscard]] std::uint64_t total_pushed_bytes() const {
    return total_pushed_;
  }

 private:
  portals::Nic* nic_;
  portals::Nid client_;
  std::uint64_t request_id_;
  std::uint64_t bulk_out_len_;
  std::uint64_t bulk_in_len_;
  std::uint32_t bulk_out_crc_;
  bool inline_dispatch_;
  bool deferred_ = false;
  bool pulled_crc_failed_ = false;
  Crc32Accumulator pushed_;
  bool pushed_in_order_ = true;
  std::uint64_t total_pulled_ = 0;
  std::uint64_t total_pushed_ = 0;
  std::vector<util::SharedSlice> reply_bulk_;
  std::uint64_t reply_bulk_bytes_ = 0;
};

/// Handler: consume the request body, perform the op (using ctx for bulk
/// movement), return status + reply body.
using Handler =
    std::function<Result<Buffer>(ServerContext& ctx, Decoder& request)>;

/// Which thread runs a registered handler.
enum class Dispatch : std::uint8_t {
  /// A server worker, from the bounded request queue.
  kQueued,
  /// Wait-free: the thread whose Put delivered the request, with no queue
  /// and no worker wake-up (see the file comment).  Only for a handler that
  /// moves no bulk data, never enters an I/O scheduler or staging pool,
  /// sleeps nothing and calls no other server; it may still Defer() to a
  /// worker before any effect.
  kInline,
};

struct ServerOptions {
  /// Bound on queued requests; overflow rejects the Put (client resends).
  std::size_t request_queue_depth = 4096;
  /// Worker threads servicing the queue.
  int worker_threads = 1;
  /// Portal this server listens on.  Several RpcServers can share one Nic
  /// as long as they listen on different portals.
  portals::PortalIndex request_portal = kRequestPortal;
  /// At-most-once dedup/reply cache: completed replies kept (FIFO bound) so
  /// a retransmitted request re-sends the recorded reply instead of
  /// re-running the handler.  0 disables dedup (at-least-once semantics).
  std::size_t reply_cache_entries = 1024;
  /// Separate, tighter bound on frame-carried bulk payload bytes pinned by
  /// the cache.  A slice-carrying read reply keeps its store-owned payload
  /// alive for as long as it sits in the cache; without a byte bound a
  /// burst of large reads pins payloads long after the client has consumed
  /// them (and starves the store's recycled read buffers).  Oldest
  /// bulk-carrying entries are evicted first once the bound is exceeded.
  /// Evicting one only forfeits the replay shortcut — a retransmit then
  /// re-runs the read handler, which is idempotent.
  std::size_t reply_cache_bulk_bytes = 2u << 20;
  /// Time source for the request queue, workers, and per-op latency
  /// metrics (nullptr = real time).
  util::Clock* clock = nullptr;
};

/// Serves RPCs on a NIC.  Start() spawns workers; Stop() waits for inline
/// dispatches already running, then drains and joins the workers.
class RpcServer : public metrics::Instrumented {
 public:
  RpcServer(std::shared_ptr<portals::Nic> nic, ServerOptions options = {});
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  /// Register before Start().  Registering two handlers for one opcode is a
  /// wiring bug, never a feature: the collision is rejected with
  /// kAlreadyExists and recorded so Start() refuses to run a half-wired
  /// server.
  Status RegisterHandler(Opcode opcode, Handler handler,
                         Dispatch dispatch = Dispatch::kQueued);

  /// Opcodes with a registered handler, ascending.
  [[nodiscard]] std::vector<Opcode> RegisteredOpcodes() const;

  Status Start();
  void Stop();

  [[nodiscard]] portals::Nid nid() const { return nic_->nid(); }
  /// Drop the dedup/reply cache (volatile state lost in a crash; the
  /// Restart() paths call this).
  void ResetReplyCache();

  /// The server's time source (never null); Service middleware stamps
  /// per-op latency from it.
  [[nodiscard]] util::Clock* clock() const { return clock_; }

 private:
  /// Dedup key: (client nid, request id).
  using DedupKey = std::pair<std::uint64_t, std::uint64_t>;

  struct Registered {
    Handler handler;
    Dispatch dispatch = Dispatch::kQueued;
  };

  void WorkerLoop();
  /// The request entry's handler (gate_ entered, on the delivering thread):
  /// run an inline op in place, or queue the request.
  Status Deliver(portals::Event event);
  /// True when the frame names an opcode registered Dispatch::kInline.
  [[nodiscard]] bool IsInlineOp(const portals::Event& event) const;
  /// Verify, dedup, run the handler and reply.  Returns false only when an
  /// inline handler deferred: nothing was counted or cached, and the
  /// caller queues the request.
  bool Serve(const portals::Event& event, bool inline_dispatch);
  /// Drop one cached reply, returning its pinned bulk bytes to the bound.
  /// No-op if the other eviction path already removed it.
  void EraseCacheEntryLocked(const DedupKey& key);

  std::shared_ptr<portals::Nic> nic_;
  ServerOptions options_;
  util::Clock* clock_;
  /// Bounded: a request that must be queued and finds it full is refused.
  SyncQueue<portals::Event> request_queue_;
  std::shared_ptr<detail::InlineGate<RpcServer>> gate_;
  portals::MeHandle request_me_ = portals::kInvalidMeHandle;
  std::unordered_map<Opcode, Registered> handlers_;
  Status registration_error_ = OkStatus();  // first duplicate, sticky
  std::vector<std::thread> workers_;
  metrics::Counter served_ = metrics_->counter("served");
  /// Of those, served on the delivering thread (never queued).
  metrics::Counter inline_ = metrics_->counter("inline");
  metrics::Counter dedup_hits_ = metrics_->counter("dedup_hits");
  metrics::Counter crc_drops_ = metrics_->counter("crc_drops");
  metrics::Counter bulk_crc_failures_ = metrics_->counter("bulk_crc_failures");
  bool started_ = false;

  /// A cached reply plus the frame-carried bulk bytes it pins (0 for
  /// replies with no slice payload).
  struct CachedReply {
    util::Frame wire;
    std::uint64_t bulk_bytes = 0;
  };

  std::mutex cache_mutex_;
  /// Completed request -> wire reply frame.  Frames hold slice references,
  /// so caching and resending a reply never clones its body.
  std::map<DedupKey, CachedReply> reply_cache_;
  std::set<DedupKey> in_progress_;           // running now: drop duplicates
  std::deque<DedupKey> cache_fifo_;          // eviction order
  std::deque<DedupKey> bulk_fifo_;           // bulk-carrying entries only
  std::uint64_t cache_bulk_bytes_ = 0;       // bulk pinned by the cache
};

}  // namespace lwfs::rpc

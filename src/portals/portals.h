// In-process Portals-3-style one-sided messaging fabric.
//
// This module reproduces the transport semantics LWFS relies on (§3.2 of the
// paper): one-sided `Put`/`Get` against pre-registered memory, match-list
// demultiplexing, event queues, and *finite* receive resources.  The paper's
// server-directed I/O argument depends on exactly these properties:
//
//  * a server exposes a bounded request portal — when it overflows, new
//    requests are rejected and the client must resend (the failure mode of
//    client-pushed I/O);
//  * bulk data moves only when the *server* initiates a Get (write) or a
//    Put (read) against memory the client registered, so server buffers are
//    never overcommitted.
//
// Delivery is via in-memory queues between threads; a transfer is a memcpy
// performed by the initiating thread while holding the target NIC lock,
// which also models the serialization a real NIC DMA engine imposes.  A
// message-mode entry may instead carry an inline handler, which the
// initiating thread runs once the NIC lock is released and the Put's fault
// plan is applied: single-use for RPC replies, persistent for an RPC
// server's request portal.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "portals/fault.h"
#include "util/bytes.h"
#include "util/metrics.h"
#include "util/shared_buffer.h"
#include "util/status.h"
#include "util/sync_queue.h"

namespace lwfs::portals {

/// Node identifier.  Every service endpoint (client process, storage server,
/// authorization server, ...) owns one NIC and therefore one Nid.
using Nid = std::uint32_t;
inline constexpr Nid kInvalidNid = 0;

/// Match bits select a match entry within a portal table index, as in
/// Portals 3.0.  `ignore_bits` mask out don't-care bits at attach time.
using MatchBits = std::uint64_t;

/// Portal table index.  By convention (see rpc/), index 0 is the request
/// portal, index 1 the reply portal, and index 2 the bulk-data portal.
using PortalIndex = std::uint32_t;

enum class EventType : std::uint8_t {
  kPut,    // data arrived in an attached region / message entry (target side)
  kGet,    // data was read out of an attached region (target side)
  kReply,  // initiator-side completion of a Get
};

/// Completion/delivery event.  For message-mode match entries the payload
/// travels inside the event; for region-mode entries the payload lands in
/// the registered memory and `payload` stays empty.
struct Event {
  EventType type = EventType::kPut;
  Nid initiator = kInvalidNid;
  PortalIndex portal = 0;
  MatchBits match_bits = 0;
  std::uint64_t hdr_data = 0;  // 64 piggy-backed header bits from initiator
  std::size_t offset = 0;
  std::size_t length = 0;
  std::uint64_t user_data = 0;  // from the match entry
  /// Message-mode only.  A ref-counted slice: when the sender Put an owned
  /// slice (or frame), this *is* the sender's buffer — zero-copy delivery —
  /// so receivers must treat it as immutable.
  util::SharedSlice payload;
  /// Message-mode, `deliver_parts` entries only.  A multi-part frame whose
  /// parts are all owned arrives as the sender's part list by reference
  /// (refcount bumps, no gather); `payload` stays empty.  Single-part and
  /// gathered messages use `payload` as before.
  std::vector<util::SharedSlice> parts;
};

/// Event queue handed to Attach(); bounded capacity models finite
/// receive-descriptor resources on an I/O node.
class EventQueue {
 public:
  explicit EventQueue(std::size_t capacity = 0, util::Clock* clock = nullptr)
      : queue_(capacity, clock) {}

  /// Blocking wait; nullopt after Close() drains.
  std::optional<Event> Wait() { return queue_.Pop(); }
  /// Blocking wait with deadline; nullopt on timeout/close.
  template <typename Rep, typename Period>
  std::optional<Event> WaitFor(std::chrono::duration<Rep, Period> timeout) {
    return queue_.PopFor(timeout);
  }
  /// Non-blocking poll.
  std::optional<Event> Poll() { return queue_.TryPop(); }

  void Close() { queue_.Close(); }
  [[nodiscard]] std::size_t Size() const { return queue_.Size(); }

 private:
  friend class Nic;
  bool Deliver(Event e) { return queue_.TryPush(std::move(e)); }

  SyncQueue<Event> queue_;
};

/// Inline delivery target of a match entry (Nic::AttachInline).  Runs on
/// the *initiator's* thread — whichever thread called Put — with no NIC lock
/// held, so it may call back into the NIC (Detach, or a Put of its own, e.g.
/// an RPC reply).  It runs after the fabric applied the Put's whole fault
/// plan: a duplicated Put runs it twice, in order, and a crash-after target
/// is already down.  Its status is the Put's: OK when it took the event, an
/// error to refuse it — kResourceExhausted when a request it must queue finds
/// the queue full, so the initiator backs off and resends exactly as against
/// a full event queue.  It delays the initiator until it returns, so it must
/// not block.
using EventHandler = std::function<Status(Event)>;

/// Behaviour of an attached match entry.
struct MeOptions {
  bool allow_put = false;
  bool allow_get = false;
  /// Remove the entry after it has been used once (single-use registered
  /// buffers, e.g. a per-request bulk region).
  bool unlink_on_use = false;
  /// Message mode: payload is copied into the event instead of a registered
  /// region (used for request/reply queues).  `region` must be empty.
  bool message_mode = false;
  /// Message mode only: a fully owned multi-part frame is delivered as the
  /// sender's part list (Event::parts) instead of being gathered into one
  /// contiguous payload.  Receivers opting in must parse across part
  /// boundaries; this is how reply frames carry bulk read slices without a
  /// delivery copy.
  bool deliver_parts = false;
  /// Accept Puts and Gets only from this initiator (Portals' match id);
  /// kInvalidNid accepts any.  A non-matching initiator finds no entry.
  Nid source = kInvalidNid;
};

/// Handle to an attached match entry; pass to Detach().
using MeHandle = std::uint64_t;
inline constexpr MeHandle kInvalidMeHandle = 0;

class Fabric;

/// A network interface bound to one Nid.  All member functions are
/// thread-safe.
class Nic {
 public:
  ~Nic();
  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  [[nodiscard]] Nid nid() const { return nid_; }

  /// Register a match entry.  `region` is the caller's memory and must
  /// outlive the entry (RAII wrapper: see RegisteredRegion below).
  Result<MeHandle> Attach(PortalIndex portal, MatchBits match_bits,
                          MatchBits ignore_bits, MutableByteSpan region,
                          const MeOptions& options, EventQueue* eq,
                          std::uint64_t user_data = 0);

  /// Register an *owned slice* as a get-only source region.  The entry
  /// holds a reference, so remote GetSlice() calls hand out zero-copy
  /// sub-slices that stay valid even after the entry is detached — the
  /// safety property the zero-copy pull path rests on.
  Result<MeHandle> AttachSlice(PortalIndex portal, MatchBits match_bits,
                               MatchBits ignore_bits, util::SharedSlice slice,
                               EventQueue* eq = nullptr,
                               std::uint64_t user_data = 0);

  /// Register a message-mode entry (`options` must set allow_put and
  /// message_mode) whose delivery runs `handler` instead of queueing an
  /// event.  With unlink_on_use the first matching Put consumes it (RPC
  /// reply slots); without, it serves every matching Put (an RPC server's
  /// request portal).  The handler runs on the initiator's thread after the
  /// NIC lock is released and the fault plan applied, and the Put returns
  /// its status.  The entry holds a reference to the handler, and so does a
  /// delivery in progress — Detach does not wait for one.
  Result<MeHandle> AttachInline(PortalIndex portal, MatchBits match_bits,
                                MatchBits ignore_bits, const MeOptions& options,
                                std::shared_ptr<const EventHandler> handler,
                                std::uint64_t user_data = 0);

  /// Remove a match entry.  Succeeds (idempotently) even if the entry
  /// already auto-unlinked.
  Status Detach(MeHandle handle);

  // ---- Initiator-side one-sided operations -------------------------------

  /// Deposit `data` into the matching entry at `target`.  With a
  /// message-mode target entry, the data is delivered inside the event.
  /// Returns kResourceExhausted when the target has no matching resources
  /// (full event queue / no match entry): the caller must back off & resend.
  Status Put(Nid target, PortalIndex portal, MatchBits match_bits,
             ByteSpan data, std::size_t remote_offset = 0,
             std::uint64_t hdr_data = 0);

  /// Slice Put: an *owned* slice delivered to a message-mode entry rides by
  /// reference (zero-copy — receiver and sender share the bytes); external
  /// slices and region-mode targets behave like the span overload.
  Status Put(Nid target, PortalIndex portal, MatchBits match_bits,
             const util::SharedSlice& data, std::size_t remote_offset = 0,
             std::uint64_t hdr_data = 0);

  /// Scatter-gather Put: the frame's parts are transmitted as one message.
  /// The sender never flattens; a message-mode receiver gets the gathered
  /// bytes (single-part owned frames by reference), a region-mode receiver
  /// gets them placed contiguously at remote_offset.
  Status PutFrame(Nid target, PortalIndex portal, MatchBits match_bits,
                  const util::Frame& frame, std::size_t remote_offset = 0,
                  std::uint64_t hdr_data = 0);

  /// Read `out.size()` bytes from the matching registered region at
  /// `target` starting at `remote_offset`.
  Status Get(Nid target, PortalIndex portal, MatchBits match_bits,
             MutableByteSpan out, std::size_t remote_offset = 0);

  /// Slice Get: read `length` bytes from the matching region as a
  /// ref-counted slice.  Against a slice-backed entry (AttachSlice) this is
  /// zero-copy — a sub-slice sharing the registered slice's owner; against
  /// a raw region it stages one counted copy.  Injected corruption clones
  /// first (copy-on-write): the source bytes are never mutated.
  Result<util::SharedSlice> GetSlice(Nid target, PortalIndex portal,
                                     MatchBits match_bits, std::size_t length,
                                     std::size_t remote_offset = 0);

 private:
  friend class Fabric;
  Nic(Fabric* fabric, Nid nid) : fabric_(fabric), nid_(nid) {}

  struct MatchEntry {
    MeHandle handle;
    MatchBits match_bits;
    MatchBits ignore_bits;
    MutableByteSpan region;
    MeOptions options;
    EventQueue* eq;
    std::uint64_t user_data;
    /// Set by AttachSlice: the ref that makes zero-copy GetSlice safe.
    util::SharedSlice slice;
    /// Set by AttachInline: delivery runs this instead of queueing to `eq`.
    std::shared_ptr<const EventHandler> handler;
  };

  /// Common initiator-side Put path over a part list (fault plan, counters,
  /// duplicate delivery).  `total` is the summed part size.
  Status PutParts(Nid target, PortalIndex portal, MatchBits match_bits,
                  std::span<const util::SharedSlice> parts, std::size_t total,
                  std::size_t remote_offset, std::uint64_t hdr_data);

  /// A Put accepted by an inline entry, not yet handed to its handler.
  struct InlineDelivery {
    std::shared_ptr<const EventHandler> handler;
    Event event;
  };

  // Target-side entry points, called by the initiating NIC.  An inline
  // entry's event is returned in `*delivery` for the initiator to run once
  // the fault plan is applied.
  Status AcceptPut(Nid initiator, PortalIndex portal, MatchBits match_bits,
                   std::span<const util::SharedSlice> parts, std::size_t total,
                   std::size_t offset, std::uint64_t hdr_data,
                   InlineDelivery* delivery);
  Status AcceptGet(Nid initiator, PortalIndex portal, MatchBits match_bits,
                   MutableByteSpan out, std::size_t offset);
  Result<util::SharedSlice> AcceptGetSlice(Nid initiator, PortalIndex portal,
                                           MatchBits match_bits,
                                           std::size_t length,
                                           std::size_t offset);

  /// Finds the first live entry matching (portal, bits) that accepts
  /// `initiator`; nullptr if none.
  MatchEntry* FindLocked(PortalIndex portal, MatchBits bits, bool want_put,
                         Nid initiator);
  void UnlinkLocked(PortalIndex portal, MeHandle handle);

  Fabric* const fabric_;
  const Nid nid_;
  std::mutex mutex_;
  std::uint64_t next_handle_ = 1;
  std::map<PortalIndex, std::vector<MatchEntry>> portal_table_;
};

/// The in-memory network.  Owns nothing but the routing table; NICs are
/// owned by their services via shared_ptr.
class Fabric : public metrics::Instrumented {
 public:
  Fabric() { metrics_->Attach("faults", injector_.metrics()); }

  /// Create a NIC with a fresh Nid.
  std::shared_ptr<Nic> CreateNic();

  /// Simulated node failure: operations addressed to a down node fail with
  /// kUnavailable until the node is brought back up.
  void SetNodeDown(Nid nid, bool down);
  [[nodiscard]] bool IsNodeDown(Nid nid) const;

  /// Fault injection: every Put/Get consults this (pass-through until
  /// configured).  See portals/fault.h.
  [[nodiscard]] FaultInjector& injector() { return injector_; }

  /// Time source for injected delivery delays (nullptr = real time).  Set
  /// before traffic flows; ServiceRuntime wires its RuntimeOptions::clock
  /// here.
  void SetClock(util::Clock* clock) { clock_ = util::OrReal(clock); }
  [[nodiscard]] util::Clock* clock() const { return clock_; }

 private:
  friend class Nic;
  std::shared_ptr<Nic> Route(Nid nid) const;
  void Unregister(Nid nid);

  util::Clock* clock_ = util::RealClockInstance();
  mutable std::mutex mutex_;
  Nid next_nid_ = 1;
  std::unordered_map<Nid, std::weak_ptr<Nic>> nodes_;
  std::unordered_set<Nid> down_;
  FaultInjector injector_;

  metrics::Counter puts_ = metrics_->counter("puts");
  metrics::Counter gets_ = metrics_->counter("gets");
  metrics::Counter put_bytes_ = metrics_->counter("put_bytes");
  metrics::Counter get_bytes_ = metrics_->counter("get_bytes");
  metrics::Counter rejected_ = metrics_->counter("rejected");
};

/// RAII wrapper that detaches a match entry on destruction.  Used for
/// per-operation bulk registrations on the client side.
class RegisteredRegion {
 public:
  RegisteredRegion() = default;
  RegisteredRegion(std::shared_ptr<Nic> nic, MeHandle handle)
      : nic_(std::move(nic)), handle_(handle) {}
  ~RegisteredRegion() { Release(); }

  RegisteredRegion(RegisteredRegion&& other) noexcept
      : nic_(std::move(other.nic_)), handle_(other.handle_) {
    other.handle_ = kInvalidMeHandle;
  }
  RegisteredRegion& operator=(RegisteredRegion&& other) noexcept {
    if (this != &other) {
      Release();
      nic_ = std::move(other.nic_);
      handle_ = other.handle_;
      other.handle_ = kInvalidMeHandle;
    }
    return *this;
  }
  RegisteredRegion(const RegisteredRegion&) = delete;
  RegisteredRegion& operator=(const RegisteredRegion&) = delete;

  [[nodiscard]] MeHandle handle() const { return handle_; }

  void Release() {
    if (nic_ && handle_ != kInvalidMeHandle) {
      (void)nic_->Detach(handle_);
      handle_ = kInvalidMeHandle;
    }
  }

 private:
  std::shared_ptr<Nic> nic_;
  MeHandle handle_ = kInvalidMeHandle;
};

}  // namespace lwfs::portals

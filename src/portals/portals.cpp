#include "portals/portals.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "util/logging.h"

namespace lwfs::portals {

// ---------------------------------------------------------------------------
// Nic
// ---------------------------------------------------------------------------

Nic::~Nic() { fabric_->Unregister(nid_); }

Result<MeHandle> Nic::Attach(PortalIndex portal, MatchBits match_bits,
                             MatchBits ignore_bits, MutableByteSpan region,
                             const MeOptions& options, EventQueue* eq,
                             std::uint64_t user_data) {
  if (options.message_mode && !region.empty()) {
    return InvalidArgument("message-mode entry must not carry a region");
  }
  if (!options.message_mode && region.empty() && options.allow_put) {
    return InvalidArgument("region-mode put entry needs a region");
  }
  if (!options.allow_put && !options.allow_get) {
    return InvalidArgument("entry must allow put or get");
  }
  if (options.message_mode && eq == nullptr) {
    return InvalidArgument("message-mode entry needs an event queue");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  MeHandle handle = next_handle_++;
  portal_table_[portal].push_back(MatchEntry{handle, match_bits, ignore_bits,
                                             region, options, eq, user_data,
                                             util::SharedSlice{}, nullptr});
  return handle;
}

Result<MeHandle> Nic::AttachSlice(PortalIndex portal, MatchBits match_bits,
                                  MatchBits ignore_bits,
                                  util::SharedSlice slice, EventQueue* eq,
                                  std::uint64_t user_data) {
  if (!slice.owned()) {
    return InvalidArgument("slice-backed entry needs an owned slice");
  }
  MeOptions options;
  options.allow_get = true;
  // The entry never writes: exposing the immutable bytes as the (mutable)
  // region keeps Get()/GetSlice() sharing one lookup path.
  MutableByteSpan region(const_cast<std::uint8_t*>(slice.data()),
                         slice.size());
  std::lock_guard<std::mutex> lock(mutex_);
  MeHandle handle = next_handle_++;
  portal_table_[portal].push_back(MatchEntry{handle, match_bits, ignore_bits,
                                             region, options, eq, user_data,
                                             std::move(slice), nullptr});
  return handle;
}

Result<MeHandle> Nic::AttachInline(PortalIndex portal, MatchBits match_bits,
                                   MatchBits ignore_bits,
                                   const MeOptions& options,
                                   std::shared_ptr<const EventHandler> handler,
                                   std::uint64_t user_data) {
  if (!options.message_mode || !options.allow_put) {
    return InvalidArgument("inline entry must be a message-mode put entry");
  }
  if (!handler || !*handler) {
    return InvalidArgument("inline entry needs a handler");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  MeHandle handle = next_handle_++;
  portal_table_[portal].push_back(MatchEntry{handle, match_bits, ignore_bits,
                                             {}, options, nullptr, user_data,
                                             util::SharedSlice{},
                                             std::move(handler)});
  return handle;
}

Status Nic::Detach(MeHandle handle) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [portal, entries] : portal_table_) {
    auto it = std::find_if(entries.begin(), entries.end(),
                           [&](const MatchEntry& e) { return e.handle == handle; });
    if (it != entries.end()) {
      entries.erase(it);
      return OkStatus();
    }
  }
  return OkStatus();  // already auto-unlinked: fine
}

Nic::MatchEntry* Nic::FindLocked(PortalIndex portal, MatchBits bits,
                                 bool want_put, Nid initiator) {
  auto it = portal_table_.find(portal);
  if (it == portal_table_.end()) return nullptr;
  for (MatchEntry& e : it->second) {
    const bool op_ok = want_put ? e.options.allow_put : e.options.allow_get;
    if (!op_ok) continue;
    if (e.options.source != kInvalidNid && e.options.source != initiator) {
      continue;
    }
    if ((e.match_bits & ~e.ignore_bits) == (bits & ~e.ignore_bits)) return &e;
  }
  return nullptr;
}

void Nic::UnlinkLocked(PortalIndex portal, MeHandle handle) {
  auto it = portal_table_.find(portal);
  if (it == portal_table_.end()) return;
  auto& entries = it->second;
  entries.erase(std::remove_if(entries.begin(), entries.end(),
                               [&](const MatchEntry& e) { return e.handle == handle; }),
                entries.end());
}

Status Nic::Put(Nid target, PortalIndex portal, MatchBits match_bits,
                ByteSpan data, std::size_t remote_offset,
                std::uint64_t hdr_data) {
  // External (borrowed) view: a message-mode receiver copies it at
  // delivery, exactly like the old Buffer path.
  const util::SharedSlice part = util::SharedSlice::External(data);
  return PutParts(target, portal, match_bits, {&part, 1}, data.size(),
                  remote_offset, hdr_data);
}

Status Nic::Put(Nid target, PortalIndex portal, MatchBits match_bits,
                const util::SharedSlice& data, std::size_t remote_offset,
                std::uint64_t hdr_data) {
  return PutParts(target, portal, match_bits, {&data, 1}, data.size(),
                  remote_offset, hdr_data);
}

Status Nic::PutFrame(Nid target, PortalIndex portal, MatchBits match_bits,
                     const util::Frame& frame, std::size_t remote_offset,
                     std::uint64_t hdr_data) {
  return PutParts(target, portal, match_bits,
                  {frame.parts.data(), frame.parts.size()}, frame.total_bytes,
                  remote_offset, hdr_data);
}

Status Nic::PutParts(Nid target, PortalIndex portal, MatchBits match_bits,
                     std::span<const util::SharedSlice> parts,
                     std::size_t total, std::size_t remote_offset,
                     std::uint64_t hdr_data) {
  if (fabric_->IsNodeDown(target) || fabric_->IsNodeDown(nid_)) {
    return Unavailable("node down");
  }
  FaultInjector::Plan plan = fabric_->injector_.PlanOp(nid_, target,
                                                       /*is_put=*/true);
  if (plan.crash_before) {
    // The target died before delivery: the message is lost with it, and the
    // initiator — one-sided Put, no ack protocol — sees success.
    fabric_->SetNodeDown(target, true);
    return OkStatus();
  }
  if (plan.delay_us > 0) {
    fabric_->clock()->SleepFor(std::chrono::microseconds(plan.delay_us));
  }
  if (plan.drop) {
    // Silent loss: only the caller's reply timeout will reveal it.
    return OkStatus();
  }
  std::shared_ptr<Nic> dest = fabric_->Route(target);
  if (!dest) return Unavailable("no such node");
  util::SharedSlice corrupted;
  if (plan.corrupt && total > 0) {
    // Copy-on-write: the parts may be shared with (or *be*) the sender's
    // live buffers, so corruption flips a byte of a private clone — never
    // the delivered originals.
    Buffer clone;
    clone.reserve(total);
    for (const util::SharedSlice& p : parts) {
      clone.insert(clone.end(), p.data(), p.data() + p.size());
    }
    LWFS_COUNT_COPY(util::CopyKind::kInjected, total);
    fabric_->injector_.CorruptSpan(MutableByteSpan(clone));
    corrupted = util::SharedSlice::FromBuffer(std::move(clone));
    parts = {&corrupted, 1};
  }
  // Count optimistically before delivery: the receiver may wake up on the
  // event and inspect fabric metrics before this thread runs again, so the
  // count must already be visible.  Undone on failure.
  fabric_->puts_.Add();
  fabric_->put_bytes_.Add(total);
  InlineDelivery delivery;
  Status s = dest->AcceptPut(nid_, portal, match_bits, parts, total,
                             remote_offset, hdr_data, &delivery);
  InlineDelivery dup_delivery;
  bool dup_accepted = false;
  if (s.ok() && plan.duplicate) {
    fabric_->puts_.Add();
    fabric_->put_bytes_.Add(total);
    dup_accepted = dest->AcceptPut(nid_, portal, match_bits, parts, total,
                                   remote_offset, hdr_data, &dup_delivery)
                       .ok();
    if (!dup_accepted) {
      fabric_->puts_.Sub(1);
      fabric_->put_bytes_.Sub(total);
    }
  }
  if (plan.crash_after) fabric_->SetNodeDown(target, true);
  // Inline handlers run last, once the whole fault plan is in effect — the
  // order a queued event's consumer sees: the duplicate after the original,
  // and a crash-after target already down when the handler replies.
  if (s.ok() && delivery.handler) {
    s = (*delivery.handler)(std::move(delivery.event));
  }
  if (dup_accepted && dup_delivery.handler &&
      (!s.ok() || !(*dup_delivery.handler)(std::move(dup_delivery.event))
                       .ok())) {
    // The copy of a refused Put is never delivered either.
    fabric_->puts_.Sub(1);
    fabric_->put_bytes_.Sub(total);
  }
  if (!s.ok()) {
    fabric_->puts_.Sub(1);
    fabric_->put_bytes_.Sub(total);
    if (s.code() == ErrorCode::kResourceExhausted) fabric_->rejected_.Add();
  }
  return s;
}

Status Nic::Get(Nid target, PortalIndex portal, MatchBits match_bits,
                MutableByteSpan out, std::size_t remote_offset) {
  if (fabric_->IsNodeDown(target) || fabric_->IsNodeDown(nid_)) {
    return Unavailable("node down");
  }
  FaultInjector::Plan plan = fabric_->injector_.PlanOp(nid_, target,
                                                       /*is_put=*/false);
  if (plan.crash_before) {
    fabric_->SetNodeDown(target, true);
    return Timeout("injected fault: node crashed before get");
  }
  if (plan.delay_us > 0) {
    fabric_->clock()->SleepFor(std::chrono::microseconds(plan.delay_us));
  }
  if (plan.drop) {
    // A lost Get (request or response leg) looks like no response at all:
    // retryable kTimeout, unlike the kUnavailable of a known-down node.
    return Timeout("injected fault: get lost");
  }
  std::shared_ptr<Nic> dest = fabric_->Route(target);
  if (!dest) return Unavailable("no such node");
  fabric_->gets_.Add();
  fabric_->get_bytes_.Add(out.size());
  Status s = dest->AcceptGet(nid_, portal, match_bits, out, remote_offset);
  if (!s.ok()) {
    fabric_->gets_.Sub(1);
    fabric_->get_bytes_.Sub(out.size());
    if (s.code() == ErrorCode::kResourceExhausted) fabric_->rejected_.Add();
  } else if (plan.corrupt) {
    // `out` is the initiator's private destination copy, so flipping it in
    // place mutates nothing shared.
    fabric_->injector_.CorruptSpan(out);
  }
  if (plan.crash_after) fabric_->SetNodeDown(target, true);
  return s;
}

Result<util::SharedSlice> Nic::GetSlice(Nid target, PortalIndex portal,
                                        MatchBits match_bits,
                                        std::size_t length,
                                        std::size_t remote_offset) {
  if (fabric_->IsNodeDown(target) || fabric_->IsNodeDown(nid_)) {
    return Unavailable("node down");
  }
  FaultInjector::Plan plan = fabric_->injector_.PlanOp(nid_, target,
                                                       /*is_put=*/false);
  if (plan.crash_before) {
    fabric_->SetNodeDown(target, true);
    return Timeout("injected fault: node crashed before get");
  }
  if (plan.delay_us > 0) {
    fabric_->clock()->SleepFor(std::chrono::microseconds(plan.delay_us));
  }
  if (plan.drop) {
    return Timeout("injected fault: get lost");
  }
  std::shared_ptr<Nic> dest = fabric_->Route(target);
  if (!dest) return Unavailable("no such node");
  fabric_->gets_.Add();
  fabric_->get_bytes_.Add(length);
  Result<util::SharedSlice> got =
      dest->AcceptGetSlice(nid_, portal, match_bits, length, remote_offset);
  if (!got.ok()) {
    fabric_->gets_.Sub(1);
    fabric_->get_bytes_.Sub(length);
    if (got.status().code() == ErrorCode::kResourceExhausted) {
      fabric_->rejected_.Add();
    }
    return got;
  }
  if (plan.corrupt && !got->empty()) {
    // The slice may alias the *source's* registered memory (zero-copy
    // pull): corrupt a private clone, copy-on-write.
    Buffer clone = got->ToBuffer(util::CopyKind::kInjected);
    fabric_->injector_.CorruptSpan(MutableByteSpan(clone));
    *got = util::SharedSlice::FromBuffer(std::move(clone));
  }
  if (plan.crash_after) fabric_->SetNodeDown(target, true);
  return got;
}

Status Nic::AcceptPut(Nid initiator, PortalIndex portal, MatchBits match_bits,
                      std::span<const util::SharedSlice> parts,
                      std::size_t total, std::size_t offset,
                      std::uint64_t hdr_data, InlineDelivery* delivery) {
  std::lock_guard<std::mutex> lock(mutex_);
  MatchEntry* me =
      FindLocked(portal, match_bits, /*want_put=*/true, initiator);
  if (me == nullptr) {
    return ResourceExhausted("no matching put entry");
  }

  Event ev;
  ev.type = EventType::kPut;
  ev.initiator = initiator;
  ev.portal = portal;
  ev.match_bits = match_bits;
  ev.hdr_data = hdr_data;
  ev.offset = offset;
  ev.length = total;
  ev.user_data = me->user_data;

  if (me->options.message_mode) {
    const bool all_owned =
        std::all_of(parts.begin(), parts.end(),
                    [](const util::SharedSlice& p) { return p.owned(); });
    if (parts.size() == 1 && parts.front().owned()) {
      // Zero-copy delivery: the event references the sender's bytes.
      ev.payload = parts.front();
    } else if (me->options.deliver_parts && parts.size() > 1 && all_owned) {
      // Zero-copy scatter delivery: the event carries the sender's part
      // list by reference.  Each part bumps a refcount, so a bulk slice
      // riding a reply frame reaches the receiver still backed by the
      // store's (or reply cache's) memory.
      ev.parts.assign(parts.begin(), parts.end());
    } else {
      // Gather (or borrow-copy) at the delivery point — the one host copy
      // a scattered or externally owned message pays.
      Buffer flat;
      flat.reserve(total);
      for (const util::SharedSlice& p : parts) {
        flat.insert(flat.end(), p.data(), p.data() + p.size());
      }
      LWFS_COUNT_COPY(util::CopyKind::kDeliver, total);
      ev.payload = util::SharedSlice::FromBuffer(std::move(flat));
    }
    if (me->handler) {
      // The initiator runs it outside this lock (the handler may re-enter
      // this NIC) and after the fault plan.  A single-use entry unlinks
      // below, so its reference moves instead of being copied.
      delivery->handler = me->options.unlink_on_use ? std::move(me->handler)
                                                    : me->handler;
      delivery->event = std::move(ev);
    } else if (!me->eq->Deliver(std::move(ev))) {
      // Bounded event queue full: the I/O node's request buffer overflowed.
      return ResourceExhausted("event queue full");
    }
  } else {
    if (offset + total > me->region.size()) {
      return OutOfRange("put beyond registered region");
    }
    // Placement into the registered destination region is the modeled DMA
    // (the wire transfer itself), not a host copy — uncounted.
    std::size_t at = offset;
    for (const util::SharedSlice& p : parts) {
      if (!p.empty()) {
        std::memcpy(me->region.data() + at, p.data(), p.size());
      }
      at += p.size();
    }
    if (me->eq != nullptr && !me->eq->Deliver(std::move(ev))) {
      return ResourceExhausted("event queue full");
    }
  }
  if (me->options.unlink_on_use) UnlinkLocked(portal, me->handle);
  return OkStatus();
}

Status Nic::AcceptGet(Nid initiator, PortalIndex portal, MatchBits match_bits,
                      MutableByteSpan out, std::size_t offset) {
  std::lock_guard<std::mutex> lock(mutex_);
  MatchEntry* me =
      FindLocked(portal, match_bits, /*want_put=*/false, initiator);
  if (me == nullptr) {
    return ResourceExhausted("no matching get entry");
  }
  if (me->options.message_mode) {
    return InvalidArgument("cannot Get from a message-mode entry");
  }
  if (offset + out.size() > me->region.size()) {
    return OutOfRange("get beyond registered region");
  }
  if (!out.empty()) {
    std::memcpy(out.data(), me->region.data() + offset, out.size());
  }
  if (me->eq != nullptr) {
    Event ev;
    ev.type = EventType::kGet;
    ev.initiator = initiator;
    ev.portal = portal;
    ev.match_bits = match_bits;
    ev.offset = offset;
    ev.length = out.size();
    ev.user_data = me->user_data;
    (void)me->eq->Deliver(std::move(ev));  // best-effort notification
  }
  if (me->options.unlink_on_use) UnlinkLocked(portal, me->handle);
  return OkStatus();
}

Result<util::SharedSlice> Nic::AcceptGetSlice(Nid initiator,
                                              PortalIndex portal,
                                              MatchBits match_bits,
                                              std::size_t length,
                                              std::size_t offset) {
  std::lock_guard<std::mutex> lock(mutex_);
  MatchEntry* me =
      FindLocked(portal, match_bits, /*want_put=*/false, initiator);
  if (me == nullptr) {
    return ResourceExhausted("no matching get entry");
  }
  if (me->options.message_mode) {
    return InvalidArgument("cannot Get from a message-mode entry");
  }
  if (offset + length > me->region.size()) {
    return OutOfRange("get beyond registered region");
  }
  util::SharedSlice out;
  if (me->slice.owned()) {
    // Zero-copy pull: a sub-slice sharing the registered slice's owner —
    // valid even after the source detaches, because the ref holds the
    // bytes alive.
    out = me->slice.Slice(offset, length);
  } else {
    // Raw region (borrowed caller memory): the puller gets a private
    // staged copy, since the region's lifetime ends at Detach.
    out = util::SharedSlice::Copy(
        ByteSpan(me->region.data() + offset, length), util::CopyKind::kStage);
  }
  if (me->eq != nullptr) {
    Event ev;
    ev.type = EventType::kGet;
    ev.initiator = initiator;
    ev.portal = portal;
    ev.match_bits = match_bits;
    ev.offset = offset;
    ev.length = length;
    ev.user_data = me->user_data;
    (void)me->eq->Deliver(std::move(ev));  // best-effort notification
  }
  if (me->options.unlink_on_use) UnlinkLocked(portal, me->handle);
  return out;
}

// ---------------------------------------------------------------------------
// Fabric
// ---------------------------------------------------------------------------

std::shared_ptr<Nic> Fabric::CreateNic() {
  std::lock_guard<std::mutex> lock(mutex_);
  Nid nid = next_nid_++;
  auto nic = std::shared_ptr<Nic>(new Nic(this, nid));
  nodes_[nid] = nic;
  return nic;
}

std::shared_ptr<Nic> Fabric::Route(Nid nid) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = nodes_.find(nid);
  if (it == nodes_.end()) return nullptr;
  return it->second.lock();
}

void Fabric::Unregister(Nid nid) {
  std::lock_guard<std::mutex> lock(mutex_);
  nodes_.erase(nid);
}

void Fabric::SetNodeDown(Nid nid, bool down) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (down) {
    down_.insert(nid);
  } else {
    down_.erase(nid);
  }
}

bool Fabric::IsNodeDown(Nid nid) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return down_.contains(nid);
}

}  // namespace lwfs::portals

#include "rpc/rpc.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>
#include <utility>

#include "util/logging.h"

namespace lwfs::rpc {

namespace {

/// Every frame (request and reply) ends in a 4-byte CRC32 of everything
/// before it; a receiver that sees a mismatch drops the frame and lets the
/// retransmission machinery recover.
constexpr std::size_t kCrcTrailerBytes = 4;

/// Bulk Gets are idempotent reads of registered client memory, so injected
/// losses (kTimeout) are retried in place this many times.
constexpr int kBulkGetRetries = 4;

void AppendCrcTrailer(Buffer& frame) {
  const std::uint32_t crc = Crc32(ByteSpan(frame));
  frame.push_back(static_cast<std::uint8_t>(crc & 0xFFu));
  frame.push_back(static_cast<std::uint8_t>((crc >> 8) & 0xFFu));
  frame.push_back(static_cast<std::uint8_t>((crc >> 16) & 0xFFu));
  frame.push_back(static_cast<std::uint8_t>((crc >> 24) & 0xFFu));
}

bool VerifyAndStripCrc(ByteSpan frame, ByteSpan* payload) {
  if (frame.size() < kCrcTrailerBytes) return false;
  const std::size_t n = frame.size() - kCrcTrailerBytes;
  const std::uint32_t stored = static_cast<std::uint32_t>(frame[n]) |
                               static_cast<std::uint32_t>(frame[n + 1]) << 8 |
                               static_cast<std::uint32_t>(frame[n + 2]) << 16 |
                               static_cast<std::uint32_t>(frame[n + 3]) << 24;
  if (Crc32(frame.first(n)) != stored) return false;
  *payload = frame.first(n);
  return true;
}

/// Slice flavor: *payload is a zero-copy sub-slice of the delivered frame,
/// so downstream TakeSlice() decodes alias the wire bytes directly.
bool VerifyAndStripCrc(const util::SharedSlice& frame,
                       util::SharedSlice* payload) {
  ByteSpan stripped;
  if (!VerifyAndStripCrc(frame.span(), &stripped)) return false;
  *payload = frame.Slice(0, stripped.size());
  return true;
}

/// Multi-part flavor for reply frames delivered by reference
/// (MeOptions::deliver_parts): verify the CRC trailer by streaming across
/// the part list — never gathering — and trim the trailing 4 bytes off the
/// list in place.  Returns false on a mismatch or a short frame.
bool VerifyAndStripCrcParts(std::vector<util::SharedSlice>& parts) {
  std::size_t total = 0;
  for (const util::SharedSlice& p : parts) total += p.size();
  if (total < kCrcTrailerBytes) return false;
  const std::size_t body = total - kCrcTrailerBytes;
  // Collect the trailer by walking parts back from the frame's tail — it
  // may straddle a part boundary, but never more than the last few parts,
  // so a bulk payload riding the frame is never rescanned here.
  std::uint8_t trailer[kCrcTrailerBytes];
  std::size_t end = total;
  for (auto it = parts.rbegin(); it != parts.rend() && end > body; ++it) {
    const std::size_t start = end - it->size();
    const std::size_t lo = std::max(start, body);
    for (std::size_t i = lo; i < end; ++i) {
      trailer[i - body] = it->data()[i - start];
    }
    end = start;
  }
  std::uint32_t crc = 0;  // CRC32 of the empty prefix
  std::size_t seen = 0;
  for (const util::SharedSlice& p : parts) {
    if (seen >= body) break;
    const std::size_t take = std::min(p.size(), body - seen);
    if (take == p.size() && p.has_cached_crc()) {
      // A bulk payload delivered by reference is the producer's own
      // immutable bytes, so its cached CRC folds in via Crc32Combine with
      // no second pass.  Anything rewritten in flight (a corruption
      // clone, a gather copy) arrives as a fresh cache-less slice and is
      // streamed for real below.
      crc = Crc32Combine(crc, p.cached_crc(), take);
    } else {
      crc = Crc32Combine(crc, Crc32(ByteSpan(p.data(), take)), take);
    }
    seen += take;
  }
  const std::uint32_t stored = static_cast<std::uint32_t>(trailer[0]) |
                               static_cast<std::uint32_t>(trailer[1]) << 8 |
                               static_cast<std::uint32_t>(trailer[2]) << 16 |
                               static_cast<std::uint32_t>(trailer[3]) << 24;
  if (crc != stored) return false;
  // Trim the trailer off the part list (it may span parts).
  std::size_t drop = kCrcTrailerBytes;
  while (drop > 0 && !parts.empty()) {
    util::SharedSlice& last = parts.back();
    if (last.size() <= drop) {
      drop -= last.size();
      parts.pop_back();
    } else {
      last = last.Slice(0, last.size() - drop);
      drop = 0;
    }
  }
  return true;
}

/// Sequential decoder over a reply frame's part list.  Scalars and small
/// strings are read byte-wise across part boundaries (tiny header memcpys,
/// uncounted); TakeSlice() hands back a zero-copy sub-slice whenever the
/// requested range lies within one owned part — which is exactly where
/// dispatch placed a PushBulkSlice payload.
class PartsCursor {
 public:
  explicit PartsCursor(std::span<const util::SharedSlice> parts)
      : parts_(parts) {
    for (const util::SharedSlice& p : parts_) remaining_ += p.size();
  }

  [[nodiscard]] std::size_t remaining() const { return remaining_; }

  bool ReadRaw(std::uint8_t* dst, std::size_t n) {
    if (n > remaining_) return false;
    while (n > 0) {
      const util::SharedSlice& p = parts_[part_];
      const std::size_t take = std::min(n, p.size() - off_);
      std::memcpy(dst, p.data() + off_, take);
      dst += take;
      Advance(take);
      n -= take;
    }
    return true;
  }

  Result<std::uint32_t> GetU32() {
    std::uint8_t b[4];
    if (!ReadRaw(b, 4)) return InvalidArgument("truncated reply frame");
    return static_cast<std::uint32_t>(b[0]) |
           static_cast<std::uint32_t>(b[1]) << 8 |
           static_cast<std::uint32_t>(b[2]) << 16 |
           static_cast<std::uint32_t>(b[3]) << 24;
  }

  Result<std::uint64_t> GetU64() {
    std::uint8_t b[8];
    if (!ReadRaw(b, 8)) return InvalidArgument("truncated reply frame");
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | b[i];
    return v;
  }

  Result<std::string> GetString() {
    auto len = GetU32();
    if (!len.ok()) return len.status();
    if (*len > remaining_) return InvalidArgument("truncated reply string");
    std::string out(*len, '\0');
    (void)ReadRaw(reinterpret_cast<std::uint8_t*>(out.data()), *len);
    return out;
  }

  Result<Buffer> GetBytes() {
    auto len = GetU32();
    if (!len.ok()) return len.status();
    if (*len > remaining_) return InvalidArgument("truncated reply bytes");
    Buffer out(*len, 0);
    (void)ReadRaw(out.data(), *len);
    return out;
  }

  /// The next `n` bytes as a slice.  Zero-copy (a ref-counted sub-slice of
  /// the delivered part) when the range sits inside one owned part; a
  /// boundary-straddling or unowned range gathers with one counted
  /// delivery copy.
  Result<util::SharedSlice> TakeSlice(std::size_t n) {
    if (n > remaining_) return InvalidArgument("truncated reply slice");
    if (n == 0) return util::SharedSlice{};
    if (part_ < parts_.size() && off_ + n <= parts_[part_].size() &&
        parts_[part_].owned()) {
      util::SharedSlice out = parts_[part_].Slice(off_, n);
      Advance(n);
      return out;
    }
    Buffer flat(n, 0);
    (void)ReadRaw(flat.data(), n);
    LWFS_COUNT_COPY(util::CopyKind::kDeliver, n);
    return util::SharedSlice::FromBuffer(std::move(flat));
  }

 private:
  void Advance(std::size_t n) {
    remaining_ -= n;
    off_ += n;
    while (part_ < parts_.size() && off_ >= parts_[part_].size()) {
      off_ -= parts_[part_].size();
      ++part_;
    }
  }

  std::span<const util::SharedSlice> parts_;
  std::size_t part_ = 0;
  std::size_t off_ = 0;
  std::size_t remaining_ = 0;
};

// Request header layout; see rpc.h for the portal conventions.
void EncodeHeader(Encoder& enc, Opcode opcode, std::uint64_t request_id,
                  portals::Nid client, std::uint64_t bulk_out_len,
                  std::uint64_t bulk_in_len, std::uint32_t bulk_out_crc) {
  enc.PutU32(opcode);
  enc.PutU64(request_id);
  enc.PutU32(client);
  enc.PutU64(bulk_out_len);
  enc.PutU64(bulk_in_len);
  enc.PutU32(bulk_out_crc);
}

struct Header {
  Opcode opcode;
  std::uint64_t request_id;
  portals::Nid client;
  std::uint64_t bulk_out_len;
  std::uint64_t bulk_in_len;
  std::uint32_t bulk_out_crc;
};

Result<Header> DecodeHeader(Decoder& dec) {
  Header h;
  auto opcode = dec.GetU32();
  auto request_id = dec.GetU64();
  auto client = dec.GetU32();
  auto bulk_out = dec.GetU64();
  auto bulk_in = dec.GetU64();
  auto bulk_out_crc = dec.GetU32();
  if (!opcode.ok() || !request_id.ok() || !client.ok() || !bulk_out.ok() ||
      !bulk_in.ok() || !bulk_out_crc.ok()) {
    return InvalidArgument("malformed rpc header");
  }
  h.opcode = *opcode;
  h.request_id = *request_id;
  h.client = *client;
  h.bulk_out_len = *bulk_out;
  h.bulk_in_len = *bulk_in;
  h.bulk_out_crc = *bulk_out_crc;
  return h;
}

}  // namespace

// ---------------------------------------------------------------------------
// CallHandle
// ---------------------------------------------------------------------------

Result<Buffer> CallHandle::Await() {
  if (!state_) return FailedPrecondition("awaiting an empty call handle");
  util::Clock* clock = util::OrReal(state_->clock);
  std::unique_lock<std::mutex> lock(state_->mutex);
  clock->Wait(state_->cv, lock, [&] { return state_->done; });
  return state_->result;
}

bool CallHandle::TryAwait(Result<Buffer>* out) {
  if (!state_) return false;
  std::lock_guard<std::mutex> lock(state_->mutex);
  if (!state_->done) return false;
  if (out != nullptr) *out = state_->result;
  return true;
}

util::SharedSlice CallHandle::ReplyBulk() const {
  if (!state_) return {};
  std::lock_guard<std::mutex> lock(state_->mutex);
  if (!state_->done) return {};
  return state_->reply_bulk;  // refcount bump, no copy
}

void CallHandle::OnComplete(std::function<void(const Result<Buffer>&)> fn) {
  if (!state_ || !fn) return;
  {
    std::lock_guard<std::mutex> lock(state_->mutex);
    if (!state_->done) {
      state_->on_complete = std::move(fn);  // replaces an unfired predecessor
      return;
    }
  }
  // Already complete: run on the caller's thread.  `result` is immutable
  // once `done` is set, so reading it outside the lock is safe.
  fn(state_->result);
}

// ---------------------------------------------------------------------------
// RpcClient
// ---------------------------------------------------------------------------

RpcClient::RpcClient(std::shared_ptr<portals::Nic> nic, ClientOptions options)
    : nic_(std::move(nic)),
      options_(options),
      clock_(util::OrReal(options.clock)),
      gate_(std::make_shared<detail::InlineGate<RpcClient>>(clock_)) {
  gate_->Open(this);
  reply_handler_ = std::make_shared<const portals::EventHandler>(
      [gate = gate_](portals::Event event) {
        // A client shutting down drops the reply (the gate is closed).
        (void)gate->Run(
            [&](RpcClient* client) { client->CompleteReply(std::move(event)); });
        return OkStatus();
      });
}

RpcClient::~RpcClient() {
  // Close the reply gate first: a reply may be completing inline on a
  // server thread right now, and it uses this client until it leaves.
  gate_->Close();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  clock_->NotifyAll(engine_cv_);
  if (engine_.joinable()) clock_->Join(engine_);
  // Fail whatever was still in flight.  Regions detach before waiters wake,
  // so a late server push or reply hits no registered memory.
  std::vector<std::shared_ptr<detail::CallState>> pending;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pending.reserve(inflight_.size());
    for (auto& [id, state] : inflight_) pending.push_back(std::move(state));
    inflight_.clear();
  }
  for (auto& state : pending) {
    FinishCall(state, Aborted("rpc client destroyed with calls in flight"),
               Contact::kNeutral);
  }
}

void RpcClient::EnsureEngineLocked() {
  if (engine_running_) return;
  engine_running_ = true;
  engine_ = clock_->SpawnThread([this] { EngineLoop(); });
}

bool RpcClient::KickEngineLocked(util::Clock::TimePoint due) {
  if (engine_parked_ && due >= engine_wake_at_) return false;
  const bool notify = engine_parked_ && !engine_kick_;
  engine_kick_ = true;
  return notify;
}

bool RpcClient::PerformSend(const std::shared_ptr<detail::CallState>& state,
                            Status* failure) {
  // No mutex_ here: an injected fabric delay may sleep inside Put, and
  // sleeping while holding the client lock would stall every caller (and
  // deadlock a virtual-time run, whose token holder must never block on a
  // lock owned by a sleeper).
  Status s = nic_->Put(state->server, state->request_portal, /*match_bits=*/0,
                       state->wire, 0, state->request_id);
  const auto now = clock_->Now();
  std::lock_guard<std::mutex> lock(mutex_);
  state->sending = false;
  auto it = inflight_.find(state->request_id);
  if (it == inflight_.end() || it->second != state) {
    // The reply raced back and completed the call while the Put was in
    // flight; there is nothing left to bookkeep.
    return true;
  }
  if (state->retransmit_pending) {
    // A corrupt reply raced back during this Put and already scheduled the
    // retransmit (accepted=false, next_send=now): keep that schedule
    // instead of re-arming the reply deadline for a reply that was
    // consumed.
    state->retransmit_pending = false;
  } else if (s.ok()) {
    state->accepted = true;
    state->deadline = now + state->timeout;
  } else if (s.code() != ErrorCode::kResourceExhausted) {
    *failure = std::move(s);
    inflight_.erase(it);
    return false;
  } else if (++state->resend_attempts > state->max_resends) {
    *failure =
        ResourceExhausted("server request queue full, resends exhausted");
    inflight_.erase(it);
    return false;
  } else {
    resends_.Add();
    state->next_send =
        now + std::chrono::microseconds(state->backoff.NextUs());
  }
  // The engine skips a call while it is sending — and a pass that skipped
  // it may have consumed the kick of a corrupt reply that rescheduled it —
  // so the sender plans the call's next due time with the engine.
  if (KickEngineLocked(state->accepted ? state->deadline : state->next_send)) {
    clock_->NotifyOne(engine_cv_);
  }
  return true;
}

Status RpcClient::ArmReplySlot(detail::CallState& state) {
  portals::MeOptions reply_opts;
  reply_opts.allow_put = true;
  reply_opts.message_mode = true;
  reply_opts.unlink_on_use = true;
  // A reply frame carrying a bulk slice arrives as the sender's part list
  // by reference — the zero-copy read delivery.
  reply_opts.deliver_parts = true;
  // Only the called server may complete the call: a Put from any other
  // node finds no entry, so it can neither forge nor consume the reply.
  reply_opts.source = state.server;
  auto me = nic_->AttachInline(kReplyPortal, state.request_id, 0, reply_opts,
                               reply_handler_);
  if (!me.ok()) return me.status();
  // Move-assign releases a consumed entry (Detach is idempotent for
  // already-unlinked handles).
  state.reply_region = portals::RegisteredRegion(nic_, *me);
  return OkStatus();
}

Status RpcClient::AdmitLocked(portals::Nid server) {
  if (options_.breaker_threshold <= 0) return OkStatus();
  auto it = breakers_.find(server);
  if (it == breakers_.end() || !it->second.open) return OkStatus();
  Breaker& b = it->second;
  if (clock_->Now() >= b.open_until && !b.probing) {
    // Half-open: let exactly one probe through; its outcome decides.
    b.probing = true;
    return OkStatus();
  }
  breaker_fast_fails_.Add();
  return Unavailable("circuit breaker open for server " +
                     std::to_string(server));
}

void RpcClient::RecordContactLocked(portals::Nid server, Contact contact) {
  if (options_.breaker_threshold <= 0 || contact == Contact::kNeutral) return;
  Breaker& b = breakers_[server];
  if (contact == Contact::kReplied) {
    b = Breaker{};  // any decoded reply proves the server alive: close
    return;
  }
  ++b.consecutive;
  if (b.open) {
    // Failed half-open probe: stay open for another cooldown.
    b.open_until = clock_->Now() + options_.breaker_cooldown;
    b.probing = false;
  } else if (b.consecutive >= options_.breaker_threshold) {
    b.open = true;
    b.probing = false;
    b.open_until = clock_->Now() + options_.breaker_cooldown;
    breaker_opens_.Add();
  }
}

bool RpcClient::BreakerOpen(portals::Nid server) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = breakers_.find(server);
  return it != breakers_.end() && it->second.open;
}

void RpcClient::FinishCall(const std::shared_ptr<detail::CallState>& state,
                           Result<Buffer> result, Contact contact) {
  // Detach the reply slot and bulk regions *before* publishing the result:
  // the caller's buffers are guaranteed quiescent once Await() returns.
  state->reply_region.Release();
  state->out_region.Release();
  state->in_region.Release();
  if (!result.ok()) failures_.Add();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    RecordContactLocked(state->server, contact);
    if (!result.ok()) OpTallyLocked(state->opcode).second.Add();
  }
  std::function<void(const Result<Buffer>&)> on_complete;
  {
    std::lock_guard<std::mutex> lock(state->mutex);
    state->done = true;
    state->result = std::move(result);
    on_complete = std::move(state->on_complete);
    state->on_complete = nullptr;
  }
  // Callback before NotifyAll: an Await() that returns is guaranteed the
  // callback has already run.  No locks held — the callback may take its
  // own mutexes and call Notify* through the clock.
  if (on_complete) on_complete(state->result);
  clock_->NotifyAll(state->cv);
}

Result<CallHandle> RpcClient::CallAsync(portals::Nid server, Opcode opcode,
                                        ByteSpan request,
                                        const CallOptions& options) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Status admitted = AdmitLocked(server);
    if (!admitted.ok()) {
      failures_.Add();
      return admitted;
    }
  }
  calls_.Add();
  std::uint64_t request_id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    OpTallyLocked(opcode).first.Add();
    request_id = next_request_id_++;
  }

  auto state = std::make_shared<detail::CallState>();
  state->request_id = request_id;
  state->clock = clock_;
  state->opcode = opcode;
  state->server = server;
  state->request_portal = options.request_portal;
  state->timeout = options.timeout.count() > 0 ? options.timeout
                                               : options_.default_timeout;
  state->max_resends = options.max_resends;
  state->max_retransmits = options.max_retransmits >= 0
                               ? options.max_retransmits
                               : options_.max_retransmits;
  state->bulk_in = options.bulk_in;
  // Seed from (nid, request id) so concurrent ranks draw uncorrelated
  // retry schedules against the same full portal.
  state->backoff =
      Backoff((static_cast<std::uint64_t>(nic_->nid()) << 32) ^ request_id);

  // Reply slot: the server's reply Put completes the call inline.
  Status armed = ArmReplySlot(*state);
  if (!armed.ok()) return armed;

  // Bulk registrations.  The server may move data in chunks at its own
  // pace, so the entries persist until the call completes (FinishCall
  // detaches them).  An owned bulk_out_slice registers as a
  // slice-backed entry: server pulls become zero-copy sub-slices and the
  // NIC's reference keeps the payload alive past client-side timeout.
  const ByteSpan bulk_out = options.bulk_out_slice.empty()
                                ? options.bulk_out
                                : options.bulk_out_slice.span();
  if (options.bulk_out_slice.owned()) {
    auto me = nic_->AttachSlice(kBulkPortal, request_id, 0,
                                options.bulk_out_slice, nullptr);
    if (!me.ok()) return me.status();
    state->out_region = portals::RegisteredRegion(nic_, *me);
  } else if (!bulk_out.empty()) {
    portals::MeOptions opts;
    opts.allow_get = true;
    // Attach treats the span as mutable but a get-only entry never writes.
    MutableByteSpan span(const_cast<std::uint8_t*>(bulk_out.data()),
                         bulk_out.size());
    auto me = nic_->Attach(kBulkPortal, request_id, 0, span, opts, nullptr);
    if (!me.ok()) return me.status();
    state->out_region = portals::RegisteredRegion(nic_, *me);
  }
  if (!options.bulk_in.empty()) {
    portals::MeOptions opts;
    opts.allow_put = true;
    auto me = nic_->Attach(kBulkPortal, request_id, 0, options.bulk_in, opts,
                           nullptr);
    if (!me.ok()) return me.status();
    state->in_region = portals::RegisteredRegion(nic_, *me);
  }

  // A slice's producer-cached CRC (a writer's folded piece CRCs, a chain
  // hop forwarding the checksum it was sent) stands in for re-streaming
  // the payload.
  std::uint32_t bulk_out_crc = 0;
  if (!options.bulk_out_slice.empty() &&
      options.bulk_out_slice.has_cached_crc()) {
    bulk_out_crc = options.bulk_out_slice.cached_crc();
  } else if (!bulk_out.empty()) {
    LWFS_COUNT_CRC(util::CrcSide::kClient, bulk_out.size());
    bulk_out_crc = Crc32(bulk_out);
  }
  Encoder enc;
  EncodeHeader(enc, opcode, request_id, nic_->nid(), bulk_out.size(),
               options.bulk_in.size(), bulk_out_crc);
  enc.PutRaw(request);
  Buffer wire = std::move(enc).Take();
  AppendCrcTrailer(wire);
  // Adopt, don't copy: retransmits re-Put this same slice by reference.
  state->wire = util::SharedSlice::FromBuffer(std::move(wire));

  Status send_failure = OkStatus();
  bool issued = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      send_failure = Aborted("rpc client shutting down");
    } else {
      EnsureEngineLocked();
      // Register before the first Put: the reply can race back from a
      // server worker before this thread takes another step.
      inflight_.emplace(request_id, state);
      state->next_send = clock_->Now();
      state->sending = true;
      issued = true;
    }
  }
  if (issued) {
    // First send, outside mutex_ (see PerformSend); a terminal failure has
    // already removed the call from inflight_ and surfaces synchronously.
    Status failure = OkStatus();
    if (!PerformSend(state, &failure)) send_failure = std::move(failure);
  }
  if (!send_failure.ok()) {
    state->reply_region.Release();
    state->out_region.Release();
    state->in_region.Release();
    failures_.Add();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      RecordContactLocked(server, send_failure.code() == ErrorCode::kAborted
                                      ? Contact::kNeutral
                                      : Contact::kTransportFailure);
      OpTallyLocked(opcode).second.Add();
    }
    return send_failure;
  }
  return CallHandle(state);
}

std::pair<metrics::Counter, metrics::Counter>& RpcClient::OpTallyLocked(
    Opcode opcode) {
  auto it = op_tallies_.find(opcode);
  if (it == op_tallies_.end()) {
    const std::string op = "op." + std::to_string(opcode);
    it = op_tallies_
             .emplace(opcode, std::pair(metrics_->counter(op + ".calls"),
                                        metrics_->counter(op + ".errors")))
             .first;
  }
  return it->second;
}

Result<Buffer> RpcClient::Call(portals::Nid server, Opcode opcode,
                               ByteSpan request, const CallOptions& options) {
  auto handle = CallAsync(server, opcode, request, options);
  if (!handle.ok()) return handle.status();
  return handle->Await();
}

Result<Buffer> RpcClient::ResolveReply(
    detail::CallState& state, std::span<const util::SharedSlice> parts) {
  // Reply frame (CRC trailer already stripped), possibly multi-part:
  //   u32 code | string msg | bytes body | u64 bulk_len | bulk bytes
  //   | u32 push_crc | u64 push_bytes
  // The bulk bytes are a scatter-gather part of their own, so TakeSlice
  // aliases them zero-copy; the frame CRC already proved them intact.
  PartsCursor cur(parts);
  auto code = cur.GetU32();
  auto message = cur.GetString();
  auto body = cur.GetBytes();
  auto bulk_len = cur.GetU64();
  if (!code.ok() || !message.ok() || !body.ok() || !bulk_len.ok()) {
    return Internal("malformed rpc reply");
  }
  if (*bulk_len > 0) {
    auto bulk = cur.TakeSlice(static_cast<std::size_t>(*bulk_len));
    if (!bulk.ok()) return Internal("malformed rpc reply bulk");
    // A bulk part without its producer's cached CRC was streamed through
    // the trailer check.
    if (!bulk->has_cached_crc()) {
      LWFS_COUNT_CRC(util::CrcSide::kClient, bulk->size());
    }
    state.reply_bulk = std::move(*bulk);
  }
  auto push_crc = cur.GetU32();
  auto push_bytes = cur.GetU64();
  if (!push_crc.ok() || !push_bytes.ok()) {
    return Internal("malformed rpc reply");
  }
  if (*code != static_cast<std::uint32_t>(ErrorCode::kOk)) {
    return Status(static_cast<ErrorCode>(*code), std::move(*message));
  }
  if (*push_bytes > 0) {
    // Verify what the server pushed into our registered read region.  A
    // replayed (dedup-cached) reply carries the original push checksum, so
    // this also covers "bulk landed earlier, reply was retransmitted".
    if (*push_bytes > state.bulk_in.size()) {
      bulk_crc_failures_.Add();
      return DataLoss("reply claims more pushed bytes than registered");
    }
    LWFS_COUNT_CRC(util::CrcSide::kClient, *push_bytes);
    const std::uint32_t got =
        Crc32(ByteSpan(state.bulk_in.data(), *push_bytes));
    if (got != *push_crc) {
      bulk_crc_failures_.Add();
      return DataLoss("bulk read payload failed checksum");
    }
  }
  return std::move(*body);
}

void RpcClient::CompleteReply(portals::Event event) {
  // Verify frame integrity, then route the reply to its call by request id
  // (a reply for a call that already finished finds no entry and is
  // dropped).  The frame arrives either as a referenced part list
  // (deliver_parts — zero-copy) or as one gathered/corruption-flattened
  // payload; both verify through the streaming multi-part path.
  std::vector<util::SharedSlice> reply_parts;
  if (!event.parts.empty()) {
    reply_parts = std::move(event.parts);
  } else {
    reply_parts.push_back(std::move(event.payload));
  }
  const bool frame_ok = VerifyAndStripCrcParts(reply_parts);
  std::shared_ptr<detail::CallState> state;
  Status corrupt_failure = OkStatus();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = inflight_.find(event.match_bits);
    if (it == inflight_.end()) return;
    if (frame_ok) {
      state = std::move(it->second);
      inflight_.erase(it);
    } else {
      // Corrupt reply.  The delivery consumed the single-use reply slot, so
      // re-arm it and retransmit within budget; the server's reply cache
      // will re-send the intact frame.
      crc_rejects_.Add();
      detail::CallState& s = *it->second;
      Status rearmed = ArmReplySlot(s);
      if (rearmed.ok() && s.retransmits_used < s.max_retransmits) {
        ++s.retransmits_used;
        retransmits_.Add();
        s.accepted = false;
        s.next_send = clock_->Now();
        // The corrupt reply can beat the sender's own Put-return (the
        // fabric delivers synchronously): flag the reschedule so
        // PerformSend does not overwrite it with accepted=true.
        if (s.sending) s.retransmit_pending = true;
        // The engine performs the Put: this thread is the server's, and
        // sends never run under mutex_.
        if (KickEngineLocked(s.next_send)) clock_->NotifyOne(engine_cv_);
        return;
      }
      state = std::move(it->second);
      inflight_.erase(it);
      corrupt_failure = rearmed.ok()
                            ? DataLoss("corrupt reply, retransmits exhausted")
                            : std::move(rearmed);
    }
  }
  if (frame_ok) {
    FinishCall(state, ResolveReply(*state, reply_parts), Contact::kReplied);
  } else {
    // Something did arrive, so the server is alive — but the call is out
    // of retransmit budget (or the slot could not be re-armed).
    FinishCall(state, std::move(corrupt_failure), Contact::kReplied);
  }
}

void RpcClient::EngineLoop() {
  // Replies never pass through here: the engine only runs timers.  It
  // parks until the earliest resend or reply deadline it saw, and is kicked
  // only for a call due before that (KickEngineLocked), so after sleeping
  // through calls that completed it wakes once, at a stale deadline, and
  // re-plans.
  for (;;) {
    // Timer pass: mark rejected sends whose backoff expired and calls whose
    // reply deadline passed for (re)transmission, fail calls out of budget,
    // and find the next wake-up.  The Puts themselves happen after the lock
    // is dropped — never under mutex_.
    util::Clock::TimePoint next_wake = util::Clock::TimePoint::max();
    std::vector<std::shared_ptr<detail::CallState>> to_send;
    std::vector<std::pair<std::shared_ptr<detail::CallState>, Status>> failed;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) return;
      // This pass sees every call issued so far; one issued or rescheduled
      // from here until the engine parks kicks it again.
      engine_kick_ = false;
      const auto now = clock_->Now();
      for (auto it = inflight_.begin(); it != inflight_.end();) {
        detail::CallState& state = *it->second;
        if (state.sending) {
          // A Put for this call is in flight on another code path; its
          // outcome (and fresh deadline) lands when it returns.
          ++it;
          continue;
        }
        if (!state.accepted && now >= state.next_send) {
          state.sending = true;
          to_send.push_back(it->second);
          ++it;
          continue;
        }
        if (state.accepted && now >= state.deadline) {
          if (state.retransmits_used < state.max_retransmits) {
            // The reply never came (lost request, lost reply, or slow
            // server): retransmit the whole request.  Same request id, so
            // the server's dedup cache absorbs re-execution; the reply
            // slot is still attached (nothing consumed it).
            ++state.retransmits_used;
            retransmits_.Add();
            state.accepted = false;
            state.next_send = now;
            state.sending = true;
            to_send.push_back(it->second);
            ++it;
            continue;
          }
          failed.emplace_back(std::move(it->second),
                              Timeout("no reply from server"));
          it = inflight_.erase(it);
          continue;
        }
        next_wake = std::min(next_wake,
                             state.accepted ? state.deadline : state.next_send);
        ++it;
      }
    }
    for (auto& state : to_send) {
      Status failure = OkStatus();
      if (!PerformSend(state, &failure)) {
        failed.emplace_back(state, std::move(failure));
      }
    }
    for (auto& [state, status] : failed) {
      FinishCall(state, std::move(status), Contact::kTransportFailure);
    }
    // Sends moved deadlines; recompute the wake-up before sleeping.
    if (!to_send.empty()) continue;

    std::unique_lock<std::mutex> lock(mutex_);
    if (next_wake == util::Clock::TimePoint::max()) {
      // Nothing in flight: re-check hourly (a new call kicks us first).
      next_wake = clock_->Now() + std::chrono::hours(1);
    }
    engine_parked_ = true;
    engine_wake_at_ = next_wake;
    clock_->WaitUntil(engine_cv_, lock, next_wake,
                      [&] { return stopping_ || engine_kick_; });
    engine_parked_ = false;
  }
}

// ---------------------------------------------------------------------------
// ServerContext
// ---------------------------------------------------------------------------

Status ServerContext::PullBulk(MutableByteSpan out, std::size_t offset) {
  if (offset + out.size() > bulk_out_len_) {
    return OutOfRange("pull beyond client's registered payload");
  }
  Status s = OkStatus();
  for (int attempt = 0; attempt <= kBulkGetRetries; ++attempt) {
    s = nic_->Get(client_, kBulkPortal, request_id_, out, offset);
    if (s.code() != ErrorCode::kTimeout) break;  // only lost gets retry
  }
  if (!s.ok()) return s;
  // A span pull by definition stages the payload into server-side memory;
  // PullBulkSlice is the uncounted (zero-copy) alternative.
  LWFS_COUNT_COPY(util::CopyKind::kStage, out.size());
  total_pulled_ += out.size();
  return s;
}

Result<util::SharedSlice> ServerContext::PullBulkSlice(std::size_t length,
                                                       std::size_t offset) {
  if (offset + length > bulk_out_len_) {
    return OutOfRange("pull beyond client's registered payload");
  }
  Result<util::SharedSlice> got = util::SharedSlice{};
  for (int attempt = 0; attempt <= kBulkGetRetries; ++attempt) {
    got = nic_->GetSlice(client_, kBulkPortal, request_id_, length, offset);
    if (got.ok() || got.status().code() != ErrorCode::kTimeout) break;
  }
  if (!got.ok()) return got.status();
  total_pulled_ += length;
  return got;
}

Status ServerContext::PushBulk(ByteSpan data, std::size_t offset) {
  if (offset + data.size() > bulk_in_len_) {
    return OutOfRange("push beyond client's registered region");
  }
  Status s = nic_->Put(client_, kBulkPortal, request_id_, data, offset);
  if (!s.ok()) return s;
  // A span push by definition pushes from volatile server-side staging
  // memory the read was copied into; PushBulkSlice is the uncounted
  // (zero-copy) alternative that rides store-owned bytes.
  LWFS_COUNT_COPY(util::CopyKind::kStage, data.size());
  total_pushed_ += data.size();
  if (pushed_in_order_ && offset == pushed_.bytes()) {
    LWFS_COUNT_CRC(util::CrcSide::kServer, data.size());
    pushed_.Update(data);
  } else {
    pushed_in_order_ = false;
  }
  return s;
}

Status ServerContext::PushBulkSlice(util::SharedSlice data) {
  if (!data.owned()) {
    return InvalidArgument("reply-frame bulk needs an owned slice");
  }
  if (data.empty()) return OkStatus();
  total_pushed_ += data.size();
  reply_bulk_bytes_ += data.size();
  reply_bulk_.push_back(std::move(data));
  return OkStatus();
}

// ---------------------------------------------------------------------------
// RpcServer
// ---------------------------------------------------------------------------

RpcServer::RpcServer(std::shared_ptr<portals::Nic> nic, ServerOptions options)
    : nic_(std::move(nic)),
      options_(options),
      clock_(util::OrReal(options.clock)),
      request_queue_(options.request_queue_depth, clock_),
      gate_(std::make_shared<detail::InlineGate<RpcServer>>(clock_)) {}

RpcServer::~RpcServer() { Stop(); }

Status RpcServer::RegisterHandler(Opcode opcode, Handler handler,
                                  Dispatch dispatch) {
  auto [it, inserted] =
      handlers_.emplace(opcode, Registered{std::move(handler), dispatch});
  if (!inserted) {
    Status collision =
        AlreadyExists("duplicate handler for opcode " + std::to_string(opcode));
    if (registration_error_.ok()) registration_error_ = collision;
    return collision;
  }
  return OkStatus();
}

std::vector<Opcode> RpcServer::RegisteredOpcodes() const {
  std::vector<Opcode> opcodes;
  opcodes.reserve(handlers_.size());
  for (const auto& [opcode, registered] : handlers_) opcodes.push_back(opcode);
  std::sort(opcodes.begin(), opcodes.end());
  return opcodes;
}

Status RpcServer::Start() {
  if (started_) return FailedPrecondition("server already started");
  if (!registration_error_.ok()) return registration_error_;
  portals::MeOptions opts;
  opts.allow_put = true;
  opts.message_mode = true;
  // Every request is handed to Deliver on the thread whose Put carried it;
  // Deliver runs an inline op in place and queues the rest.
  auto deliver = std::make_shared<const portals::EventHandler>(
      [gate = gate_](portals::Event event) {
        Status delivered = OkStatus();
        if (!gate->Run([&](RpcServer* server) {
              delivered = server->Deliver(std::move(event));
            })) {
          return ResourceExhausted("rpc server stopped");
        }
        return delivered;
      });
  gate_->Open(this);
  auto me = nic_->AttachInline(options_.request_portal, 0, ~0ULL, opts,
                               std::move(deliver));
  if (!me.ok()) return me.status();
  request_me_ = *me;
  for (int i = 0; i < options_.worker_threads; ++i) {
    workers_.push_back(clock_->SpawnThread([this] { WorkerLoop(); }));
  }
  started_ = true;
  return OkStatus();
}

void RpcServer::Stop() {
  if (!started_) return;
  (void)nic_->Detach(request_me_);
  // The server twin of the client's reply gate: a delivering thread may be
  // inside a handler (or queueing) right now; wait for it to leave before
  // the queue closes and the workers go.
  gate_->Close();
  request_queue_.Close();
  for (std::thread& t : workers_) {
    if (t.joinable()) clock_->Join(t);
  }
  workers_.clear();
  started_ = false;
}

void RpcServer::ResetReplyCache() {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  reply_cache_.clear();
  in_progress_.clear();
  cache_fifo_.clear();
  bulk_fifo_.clear();
  cache_bulk_bytes_ = 0;
}

void RpcServer::EraseCacheEntryLocked(const DedupKey& key) {
  auto it = reply_cache_.find(key);
  if (it == reply_cache_.end()) return;  // already evicted by the other bound
  cache_bulk_bytes_ -= it->second.bulk_bytes;
  reply_cache_.erase(it);
}

void RpcServer::WorkerLoop() {
  for (;;) {
    auto event = request_queue_.Pop();
    if (!event) return;  // queue closed
    (void)Serve(*event, /*inline_dispatch=*/false);
  }
}

Status RpcServer::Deliver(portals::Event event) {
  if (IsInlineOp(event) && Serve(event, /*inline_dispatch=*/true)) {
    return OkStatus();
  }
  if (!request_queue_.TryPush(std::move(event))) {
    // The I/O node's request buffer overflowed: the client resends.
    return ResourceExhausted("request queue full");
  }
  return OkStatus();
}

bool RpcServer::IsInlineOp(const portals::Event& event) const {
  // The opcode leads the header.  Read before the CRC check, it only picks
  // the path: a damaged frame is dropped by Serve on either one.
  const util::SharedSlice& frame = event.payload;
  if (frame.size() < sizeof(Opcode)) return false;
  const std::uint8_t* b = frame.data();
  const Opcode opcode = static_cast<Opcode>(b[0]) |
                        static_cast<Opcode>(b[1]) << 8 |
                        static_cast<Opcode>(b[2]) << 16 |
                        static_cast<Opcode>(b[3]) << 24;
  auto it = handlers_.find(opcode);
  return it != handlers_.end() && it->second.dispatch == Dispatch::kInline;
}

bool RpcServer::Serve(const portals::Event& event, bool inline_dispatch) {
  // The frame slice aliases the delivered payload (zero-copy), so every
  // TakeSlice() a typed codec performs below shares the same owner.
  util::SharedSlice frame;
  if (!VerifyAndStripCrc(event.payload, &frame)) {
    // Corrupt on the wire: drop silently and let the client's retransmit
    // deliver an intact copy.
    crc_drops_.Add();
    LWFS_DEBUG << "dropping corrupt request frame from nid "
               << event.initiator;
    return true;
  }
  Decoder dec(frame);
  auto header = DecodeHeader(dec);
  if (!header.ok()) {
    LWFS_WARN << "dropping malformed request from nid " << event.initiator;
    return true;
  }
  if (header->client != event.initiator) {
    // The header names a node other than the sender.  Honouring it would
    // aim the reply, the dedup key and every bulk Get/Put at that node —
    // a forged frame could complete or poison another client's call.
    LWFS_WARN << "dropping request from nid " << event.initiator
              << " that claims nid " << header->client;
    return true;
  }

  const DedupKey key{header->client, header->request_id};
  const bool dedup = options_.reply_cache_entries > 0;
  if (dedup) {
    util::Frame cached_reply;
    bool have_cached = false;
    {
      std::lock_guard<std::mutex> lock(cache_mutex_);
      auto cached = reply_cache_.find(key);
      if (cached != reply_cache_.end()) {
        // At-most-once: a retransmitted request re-sends the recorded
        // reply; the handler does not run again.  (Region bulk pushes are
        // not replayed — the original execution already landed them, and
        // the reply's push checksum lets the client detect the rare case
        // it did not.  Frame-carried bulk *is* replayed: the cached frame
        // holds the payload slices by reference, so the resend aliases
        // the very same bytes.)  Copying the Frame only bumps slice
        // refcounts; the resend Put runs outside the lock because an
        // injected delivery delay may sleep inside it.
        have_cached = true;
        cached_reply = cached->second.wire;
      } else if (!in_progress_.insert(key).second) {
        // The original delivery is still executing; drop the duplicate —
        // the client's next retransmit will find the cached reply.
        dedup_hits_.Add();
        return true;
      }
    }
    if (have_cached) {
      dedup_hits_.Add();
      Status resent = nic_->PutFrame(header->client, kReplyPortal,
                                     header->request_id, cached_reply);
      if (!resent.ok()) {
        LWFS_DEBUG << "cached reply to nid " << header->client
                   << " dropped: " << resent.ToString();
      }
      return true;
    }
  }

  Result<Buffer> result = Buffer{};
  std::uint32_t push_crc = 0;
  std::uint64_t push_bytes = 0;
  std::vector<util::SharedSlice> reply_bulk;
  std::uint64_t reply_bulk_bytes = 0;
  auto it = handlers_.find(header->opcode);
  if (it == handlers_.end()) {
    result = InvalidArgument("unknown opcode");
  } else {
    ServerContext ctx(nic_.get(), header->client, header->request_id,
                      header->bulk_out_len, header->bulk_in_len,
                      header->bulk_out_crc, inline_dispatch);
    result = it->second.handler(ctx, dec);
    if (ctx.deferred()) {
      // Nothing happened yet: release the dedup slot and let a worker run
      // it (a duplicate that arrives meanwhile is queued behind it).
      if (dedup) {
        std::lock_guard<std::mutex> lock(cache_mutex_);
        in_progress_.erase(key);
      }
      return false;
    }
    if (ctx.pulled_crc_failed()) {
      bulk_crc_failures_.Add();
    }
    push_crc = ctx.pushed_crc();
    push_bytes = ctx.pushed_bytes();
    if (result.ok()) {
      // Frame-carried bulk (PushBulkSlice): the slices ride the reply as
      // scatter-gather parts.  On an error reply the payload is dropped —
      // bulk_len 0 — so the client never aliases bytes of a failed read.
      reply_bulk_bytes = ctx.reply_bulk_bytes();
      reply_bulk = ctx.TakeReplyBulk();
      // The frame trailer folds a part's cached CRC in; one without it is
      // streamed through the checksum once more.
      for (const util::SharedSlice& part : reply_bulk) {
        if (!part.has_cached_crc()) {
          LWFS_COUNT_CRC(util::CrcSide::kServer, part.size());
        }
      }
    }
  }
  // Only requests that reach a handler count as served: retransmits the
  // dedup cache absorbed, corrupt frames and deferrals do not inflate the
  // count, so tests can pin served == unique requests even when timeouts
  // retransmit.
  served_.Add();
  if (inline_dispatch) inline_.Add();

  // Assemble the reply as a scatter-gather frame: the handler's body buffer
  // and any PushBulkSlice payload are adopted as slices and never re-copied
  // — not into the frame, not into the reply cache, not for a dedup resend.
  util::FrameBuilder fb;
  Encoder& head = fb.header();
  if (result.ok()) {
    head.PutU32(static_cast<std::uint32_t>(ErrorCode::kOk));
    head.PutString("");
    head.PutU32(static_cast<std::uint32_t>(result->size()));
    fb.Append(util::SharedSlice::FromBuffer(std::move(*result)));
  } else {
    head.PutU32(static_cast<std::uint32_t>(result.status().code()));
    head.PutString(result.status().message());
    head.PutU32(0);  // empty body
  }
  Encoder& mid = fb.header();
  mid.PutU64(reply_bulk_bytes);
  for (util::SharedSlice& part : reply_bulk) fb.Append(std::move(part));
  Encoder& tail = fb.header();
  tail.PutU32(push_crc);
  tail.PutU64(push_bytes);
  util::Frame wire = fb.Build(/*with_crc_trailer=*/true);

  if (dedup) {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    in_progress_.erase(key);
    if (reply_cache_.emplace(key, CachedReply{wire, reply_bulk_bytes}).second) {
      cache_fifo_.push_back(key);
      if (reply_bulk_bytes > 0) {
        bulk_fifo_.push_back(key);
        cache_bulk_bytes_ += reply_bulk_bytes;
      }
      while (cache_fifo_.size() > options_.reply_cache_entries) {
        EraseCacheEntryLocked(cache_fifo_.front());
        cache_fifo_.pop_front();
      }
      // Payload bytes are bounded separately — and much more tightly —
      // than entries: a slice-carrying reply pins its store-owned payload
      // for as long as it is cached, so the oldest bulk replies give
      // theirs back first.  A retransmit that misses one just re-runs the
      // (idempotent) read handler.
      while (cache_bulk_bytes_ > options_.reply_cache_bulk_bytes &&
             !bulk_fifo_.empty()) {
        EraseCacheEntryLocked(bulk_fifo_.front());
        bulk_fifo_.pop_front();
      }
    }
  }

  Status sent = nic_->PutFrame(header->client, kReplyPortal,
                               header->request_id, wire);
  if (!sent.ok()) {
    LWFS_DEBUG << "reply to nid " << header->client
               << " dropped: " << sent.ToString();
  }
  return true;
}

}  // namespace lwfs::rpc

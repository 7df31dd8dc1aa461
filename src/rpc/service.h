// Typed op-spec service framework (declarative codecs + dispatch middleware).
//
// LWFS servers *enforce* policy they do not decide (§3.1): every request is
// decoded, authorized against its capability, executed, and re-encoded.
// Before this layer existed that enforcement was hand-copied into ~46
// RegisterHandler lambdas; now an op is *data* — an OpDef names the opcode,
// the required security::OpMask, and the bulk direction, while the request
// and reply types carry their own codecs — and the framework runs the same
// middleware chain around every handler:
//
//   1. decode      — malformed input is rejected with a uniform
//                    InvalidArgument("malformed <op> request"); a handler
//                    never sees a truncated Decoder.
//   2. authorize   — ops whose OpDef requires capability bits run the
//                    service's Authorizer *before* the handler body.  An
//                    op the OpDef declares Dispatch::kInline runs on the
//                    thread that delivered it; the authorizer or handler
//                    may Defer() it to a worker before any effect.
//   3. execute     — the typed handler: Result<Rep>(ServerContext&, Req&).
//   4. encode      — the reply struct is encoded by its own codec.
//   5. account     — per-op metrics: calls, errors, malformed rejections,
//                    authorization denials, a latency histogram (µs), and
//                    bulk bytes moved through the ServerContext.
//
// The client side reuses the same codecs via CallTyped<Rep>(…, request) /
// CallTypedAsync + ResolveTyped, so request/reply framing lives in exactly
// one place.  Because codecs hang off the message types, the registry can
// also emit CodecCase descriptors that table-driven tests iterate to prove
// every message round-trips and every codec rejects truncated input.
#pragma once

#include <chrono>
#include <concepts>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "rpc/rpc.h"
#include "security/types.h"
#include "util/bytes.h"
#include "util/metrics.h"
#include "util/status.h"

namespace lwfs::rpc {

// ---------------------------------------------------------------------------
// Opcode ranges
// ---------------------------------------------------------------------------

/// Half-open opcode range owned by one protocol family.
struct OpcodeRange {
  Opcode begin = 0;
  Opcode end = 0;  // exclusive

  [[nodiscard]] constexpr bool Contains(Opcode op) const {
    return op >= begin && op < end;
  }
};

/// The global opcode space is partitioned statically; a new protocol family
/// must claim a disjoint range here.  core/protocol.h and pfs/protocol.h
/// static_assert their enums stay inside their range.
inline constexpr OpcodeRange kCoreOpcodeRange{1, 100};
inline constexpr OpcodeRange kPfsOpcodeRange{100, 200};
inline constexpr OpcodeRange kOpcodeRanges[] = {kCoreOpcodeRange,
                                                kPfsOpcodeRange};

constexpr bool OpcodeRangesDisjoint() {
  for (std::size_t i = 0; i < std::size(kOpcodeRanges); ++i) {
    if (kOpcodeRanges[i].begin >= kOpcodeRanges[i].end) return false;
    for (std::size_t j = i + 1; j < std::size(kOpcodeRanges); ++j) {
      if (kOpcodeRanges[i].begin < kOpcodeRanges[j].end &&
          kOpcodeRanges[j].begin < kOpcodeRanges[i].end) {
        return false;
      }
    }
  }
  return true;
}
static_assert(OpcodeRangesDisjoint(),
              "protocol opcode ranges overlap: dispatch would be ambiguous");

// ---------------------------------------------------------------------------
// Wire messages
// ---------------------------------------------------------------------------

/// A typed wire message: knows how to append itself to an Encoder and how to
/// (bounds-checked) parse itself from a Decoder.  Decode failures must
/// surface as non-OK Results, never partial values.
template <typename T>
concept WireMessage = requires(const T& msg, Encoder& enc, Decoder& dec) {
  { msg.Encode(enc) } -> std::same_as<void>;
  { T::Decode(dec) } -> std::same_as<Result<T>>;
};

/// A request that carries the capability the op must be authorized against.
template <typename T>
concept CapabilityBearing = requires(const T& msg) {
  { msg.cap } -> std::convertible_to<const security::Capability&>;
};

/// The empty message (ops with no request fields or no reply payload).
struct Void {
  void Encode(Encoder&) const {}
  static Result<Void> Decode(Decoder&) { return Void{}; }
  friend bool operator==(const Void&, const Void&) { return true; }
};
static_assert(WireMessage<Void>);

template <WireMessage T>
Buffer EncodeMessage(const T& msg) {
  Encoder enc;
  msg.Encode(enc);
  return std::move(enc).Take();
}

template <WireMessage T>
Result<T> DecodeMessage(ByteSpan bytes) {
  Decoder dec(bytes);
  return T::Decode(dec);
}

// ---------------------------------------------------------------------------
// Op specs and per-op metrics
// ---------------------------------------------------------------------------

/// Which way bulk data moves for an op (server-directed, Figure 6).
enum class BulkDir : std::uint8_t {
  kNone,   // small request/reply only
  kPull,   // server pulls the client's write payload
  kPush,   // server pushes into the client's read region
  kReply,  // read payload rides the reply frame as store-owned slices
};

/// Declarative description of one op: everything the middleware needs that
/// is not encoded in the request/reply types themselves.  Built only at
/// compile time, so a contradictory declaration — an inline op that moves
/// bulk data — is a compile error, not a runtime surprise.
struct OpDef {
  consteval OpDef(Opcode opcode, std::string_view name,
                  std::uint32_t required_ops = 0,
                  BulkDir bulk = BulkDir::kNone,
                  Dispatch dispatch = Dispatch::kQueued)
      : opcode(opcode),
        name(name),
        required_ops(required_ops),
        bulk(bulk),
        dispatch(dispatch) {
    // A bulk transfer is a round trip to the client: only a worker may
    // wait for one.  Reaching the throw makes the declaration ill-formed.
    if (dispatch == Dispatch::kInline && bulk != BulkDir::kNone) {
      throw "an inline op must be BulkDir::kNone";
    }
  }

  Opcode opcode;
  std::string_view name;        // e.g. "obj_write" (metrics + messages)
  std::uint32_t required_ops;   // security::OpMask bits; 0 = no cap gate
  BulkDir bulk;
  /// Which thread runs it (rpc.h): kInline declares the handler wait-free.
  Dispatch dispatch;
};

/// `def` served by a worker: for a deployment whose handler for an inline
/// op would wait (e.g. a modeled service cost that sleeps).
constexpr OpDef Queued(OpDef def) {
  def.dispatch = Dispatch::kQueued;
  return def;
}

/// Human-readable bulk direction ("none" / "pull" / "push").
std::string_view BulkDirName(BulkDir dir);

namespace detail {

/// One op's cells in its service's registry (`<op>.calls`, ...; DESIGN.md
/// §19).  Errors include malformed rejections and capability denials.
struct OpCells {
  OpCells(metrics::Registry& registry, std::string_view op)
      : calls(registry.counter(std::string(op) + ".calls")),
        errors(registry.counter(std::string(op) + ".errors")),
        rejected(registry.counter(std::string(op) + ".rejected")),
        denied(registry.counter(std::string(op) + ".denied")),
        bulk_bytes(registry.counter(std::string(op) + ".bulk_bytes")),
        latency_us(registry.histogram(std::string(op) + ".latency_us")) {}

  void Record(bool ok, bool was_rejected, bool was_denied,
              std::uint64_t latency, std::uint64_t bulk) const {
    calls.Add();
    if (!ok) errors.Add();
    if (was_rejected) rejected.Add();
    if (was_denied) denied.Add();
    if (bulk > 0) bulk_bytes.Add(bulk);
    latency_us.Record(latency);
  }

  metrics::Counter calls, errors, rejected, denied, bulk_bytes;
  metrics::Histogram latency_us;
};

}  // namespace detail

// ---------------------------------------------------------------------------
// Service: the dispatch middleware
// ---------------------------------------------------------------------------

/// Checks a decoded capability against the OpMask bits an op requires.
/// Installed once per service (e.g. StorageServer's verify-mode machinery);
/// runs *before* the handler body, so a handler never executes unauthorized.
using Authorizer = std::function<Status(ServerContext& ctx,
                                        const security::Capability& cap,
                                        std::uint32_t required_ops)>;

/// Registers typed ops on an RpcServer, wrapping every handler in the
/// decode → authorize → execute → encode → account middleware chain.
///
/// Registration failures (duplicate opcode, an op that requires capability
/// bits but whose request type carries no capability) are sticky and
/// surfaced by init_status(); callers check it once before Start().
class Service : public metrics::Instrumented {
 public:
  Service(RpcServer* server, std::string name)
      : server_(server), name_(std::move(name)) {}

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Install the capability checker used for ops with required_ops != 0.
  /// Must be called before registering such ops.
  void SetAuthorizer(Authorizer authorizer) {
    *authorizer_ = std::move(authorizer);
  }

  /// Register a typed op.  Fn is Result<Rep>(ServerContext&, Req&).
  template <WireMessage Req, WireMessage Rep, typename Fn>
  void On(const OpDef& def, Fn handler) {
    if (def.required_ops != 0) {
      if constexpr (!CapabilityBearing<Req>) {
        Note(InvalidArgument("op " + std::string(def.name) +
                             " requires capability bits but its request "
                             "type carries no capability"));
        return;
      }
    }
    Note(server_->RegisterHandler(
        def.opcode,
        MakeHandler<Req, Rep>(detail::OpCells(*metrics_, def.name),
                              def.required_ops,
                              "malformed " + std::string(def.name) +
                                  " request",
                              std::move(handler)),
        def.dispatch));
  }

  /// First registration error, if any (checked before RpcServer::Start —
  /// which also refuses to run after a duplicate registration).
  [[nodiscard]] Status init_status() const { return init_status_; }

  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  void Note(Status status) {
    if (!status.ok() && init_status_.ok()) init_status_ = std::move(status);
  }

  /// The middleware chain.  Captures everything by value (the registry and
  /// the authorizer slot by shared_ptr) so the returned Handler outlives
  /// this Service: dispatch never touches `this`.
  template <WireMessage Req, WireMessage Rep, typename Fn>
  Handler MakeHandler(detail::OpCells cells, std::uint32_t required_ops,
                      std::string malformed, Fn handler) const {
    auto authorizer = authorizer_;
    util::Clock* clk = server_->clock();  // latency stamps follow the server
    return [registry = metrics_, cells, authorizer = std::move(authorizer),
            required_ops, malformed = std::move(malformed), clk,
            handler = std::move(handler)](ServerContext& ctx,
                                          Decoder& request) -> Result<Buffer> {
      const std::int64_t start_us = clk->NowUs();
      auto account = [&](Result<Buffer> outcome, bool was_rejected,
                         bool was_denied) -> Result<Buffer> {
        const auto us = clk->NowUs() - start_us;
        cells.Record(outcome.ok(), was_rejected, was_denied,
                     static_cast<std::uint64_t>(us),
                     ctx.total_pulled_bytes() + ctx.total_pushed_bytes());
        return outcome;
      };

      // 1. decode: the handler body only ever sees a fully parsed request.
      Result<Req> req = Req::Decode(request);
      if (!req.ok()) {
        return account(InvalidArgument(malformed), /*was_rejected=*/true,
                       /*was_denied=*/false);
      }

      // 2. authorize: capability checks run before any handler effect.  On
      // the delivering thread an authorizer that cannot settle the check
      // locally defers the request to a worker; so may the handler.  A
      // deferred request is not a call yet: nothing is accounted.
      if (required_ops != 0) {
        if constexpr (CapabilityBearing<Req>) {
          Status admitted =
              *authorizer
                  ? (*authorizer)(ctx, req->cap, required_ops)
                  : PermissionDenied("no authorizer installed for service");
          if (ctx.deferred()) return admitted;
          if (!admitted.ok()) {
            return account(std::move(admitted), /*was_rejected=*/false,
                           /*was_denied=*/true);
          }
        }
      }

      // 3. execute + 4. encode.
      Result<Rep> reply = handler(ctx, *req);
      if (ctx.deferred()) return reply.status();
      if (!reply.ok()) {
        return account(reply.status(), /*was_rejected=*/false,
                       /*was_denied=*/false);
      }
      return account(EncodeMessage(*reply), /*was_rejected=*/false,
                     /*was_denied=*/false);
    };
  }

  RpcServer* server_;
  std::string name_;
  /// Shared slot so handlers observe an authorizer installed after On()
  /// and so dispatch holds it independently of the Service's lifetime.
  std::shared_ptr<Authorizer> authorizer_ = std::make_shared<Authorizer>();
  Status init_status_ = OkStatus();
};

// ---------------------------------------------------------------------------
// Typed client stubs
// ---------------------------------------------------------------------------

/// Decode a completed call's reply body as Rep.  A reply the codec cannot
/// parse is a framing bug or wire damage, reported as kInvalidArgument.
template <WireMessage Rep>
Result<Rep> ResolveTyped(Result<Buffer> reply) {
  if (!reply.ok()) return reply.status();
  Result<Rep> decoded = DecodeMessage<Rep>(ByteSpan(*reply));
  if (!decoded.ok()) return InvalidArgument("malformed rpc reply body");
  return decoded;
}

/// Synchronous typed call: encode with the request's own codec, call, decode
/// with the reply's.  The mirror image of Service::On — one codec, two ends.
template <WireMessage Rep, WireMessage Req>
Result<Rep> CallTyped(RpcClient& rpc, portals::Nid server, Opcode opcode,
                      const Req& request, const CallOptions& options = {}) {
  Buffer body = EncodeMessage(request);
  return ResolveTyped<Rep>(rpc.Call(server, opcode, ByteSpan(body), options));
}

/// Asynchronous variant; resolve the handle with ResolveTyped<Rep>.
template <WireMessage Req>
Result<CallHandle> CallTypedAsync(RpcClient& rpc, portals::Nid server,
                                  Opcode opcode, const Req& request,
                                  const CallOptions& options = {}) {
  Buffer body = EncodeMessage(request);
  return rpc.CallAsync(server, opcode, ByteSpan(body), options);
}

// ---------------------------------------------------------------------------
// Codec test descriptors
// ---------------------------------------------------------------------------

/// One message type's encode/decode pair, reified for table-driven tests:
/// `encoded` is a representative sample; `decode_reencode` parses arbitrary
/// bytes and, on success, re-encodes the value so tests can check
/// byte-identical round-trips without requiring operator== on every struct.
struct CodecCase {
  std::string name;
  Buffer encoded;
  std::function<Result<Buffer>(ByteSpan)> decode_reencode;
};

/// Build a CodecCase from a sample message value.
template <WireMessage T>
CodecCase MakeCodecCase(std::string name, const T& sample) {
  CodecCase c;
  c.name = std::move(name);
  c.encoded = EncodeMessage(sample);
  c.decode_reencode = [](ByteSpan bytes) -> Result<Buffer> {
    Result<T> decoded = DecodeMessage<T>(bytes);
    if (!decoded.ok()) return decoded.status();
    return EncodeMessage(*decoded);
  };
  return c;
}

}  // namespace lwfs::rpc

// Typed wire messages for every LWFS-core op.
//
// Each request/reply is a plain struct with its own codec (Encode/Decode),
// satisfying rpc::WireMessage; the op-spec framework (rpc/service.h) and the
// typed client stubs (rpc::CallTyped) are the only users of these codecs, so
// framing for an op lives in exactly one place.  Field order is the wire
// format — append-only, never reorder.
//
// The OpDef constants beside the messages declare each op's opcode, metric
// name, required security::OpMask bits, and bulk direction; servers register
// handlers against these and the middleware enforces the rest.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/filters.h"
#include "core/protocol.h"
#include "naming/naming.h"
#include "rpc/service.h"
#include "security/types.h"
#include "storage/ids.h"
#include "storage/object_store.h"
#include "util/bytes.h"
#include "util/status.h"

namespace lwfs::core::wire {

using rpc::Void;

// ---------------------------------------------------------------------------
// Authentication service
// ---------------------------------------------------------------------------

struct LoginReq {
  std::string principal;
  std::string secret;

  void Encode(Encoder& enc) const {
    enc.PutString(principal);
    enc.PutString(secret);
  }
  static Result<LoginReq> Decode(Decoder& dec) {
    auto principal = dec.GetString();
    auto secret = dec.GetString();
    if (!principal.ok() || !secret.ok()) {
      return InvalidArgument("malformed login fields");
    }
    return LoginReq{std::move(*principal), std::move(*secret)};
  }
};

struct CredentialRep {
  security::Credential cred;

  void Encode(Encoder& enc) const { cred.Encode(enc); }
  static Result<CredentialRep> Decode(Decoder& dec) {
    auto cred = security::Credential::Decode(dec);
    if (!cred.ok()) return cred.status();
    return CredentialRep{*cred};
  }
};

struct RevokeCredReq {
  std::uint64_t cred_id = 0;

  void Encode(Encoder& enc) const { enc.PutU64(cred_id); }
  static Result<RevokeCredReq> Decode(Decoder& dec) {
    auto cred_id = dec.GetU64();
    if (!cred_id.ok()) return cred_id.status();
    return RevokeCredReq{*cred_id};
  }
};

inline constexpr rpc::OpDef kLoginOp{kOpLogin, "login"};
inline constexpr rpc::OpDef kRevokeCredOp{kOpRevokeCred, "revoke_cred"};

// ---------------------------------------------------------------------------
// Authorization service
// ---------------------------------------------------------------------------

struct CreateContainerReq {
  security::Credential cred;

  void Encode(Encoder& enc) const { cred.Encode(enc); }
  static Result<CreateContainerReq> Decode(Decoder& dec) {
    auto cred = security::Credential::Decode(dec);
    if (!cred.ok()) return cred.status();
    return CreateContainerReq{*cred};
  }
};

struct CreateContainerRep {
  std::uint64_t cid = 0;

  void Encode(Encoder& enc) const { enc.PutU64(cid); }
  static Result<CreateContainerRep> Decode(Decoder& dec) {
    auto cid = dec.GetU64();
    if (!cid.ok()) return cid.status();
    return CreateContainerRep{*cid};
  }
};

struct GetCapReq {
  security::Credential cred;
  std::uint64_t cid = 0;
  std::uint32_t ops = 0;

  void Encode(Encoder& enc) const {
    cred.Encode(enc);
    enc.PutU64(cid);
    enc.PutU32(ops);
  }
  static Result<GetCapReq> Decode(Decoder& dec) {
    auto cred = security::Credential::Decode(dec);
    auto cid = dec.GetU64();
    auto ops = dec.GetU32();
    if (!cred.ok() || !cid.ok() || !ops.ok()) {
      return InvalidArgument("malformed getcap fields");
    }
    return GetCapReq{*cred, *cid, *ops};
  }
};

struct CapabilityRep {
  security::Capability cap;

  void Encode(Encoder& enc) const { cap.Encode(enc); }
  static Result<CapabilityRep> Decode(Decoder& dec) {
    auto cap = security::Capability::Decode(dec);
    if (!cap.ok()) return cap.status();
    return CapabilityRep{*cap};
  }
};

struct VerifyCapReq {
  std::uint32_t server_id = 0;
  security::Capability cap;

  void Encode(Encoder& enc) const {
    enc.PutU32(server_id);
    cap.Encode(enc);
  }
  static Result<VerifyCapReq> Decode(Decoder& dec) {
    auto server_id = dec.GetU32();
    auto cap = security::Capability::Decode(dec);
    if (!server_id.ok() || !cap.ok()) {
      return InvalidArgument("malformed verify fields");
    }
    return VerifyCapReq{*server_id, *cap};
  }
};

struct SetGrantReq {
  security::Credential cred;
  std::uint64_t cid = 0;
  std::uint64_t grantee = 0;
  std::uint32_t ops = 0;

  void Encode(Encoder& enc) const {
    cred.Encode(enc);
    enc.PutU64(cid);
    enc.PutU64(grantee);
    enc.PutU32(ops);
  }
  static Result<SetGrantReq> Decode(Decoder& dec) {
    auto cred = security::Credential::Decode(dec);
    auto cid = dec.GetU64();
    auto grantee = dec.GetU64();
    auto ops = dec.GetU32();
    if (!cred.ok() || !cid.ok() || !grantee.ok() || !ops.ok()) {
      return InvalidArgument("malformed setgrant fields");
    }
    return SetGrantReq{*cred, *cid, *grantee, *ops};
  }
};

struct RevokeCapReq {
  security::Credential cred;
  std::uint64_t cap_id = 0;

  void Encode(Encoder& enc) const {
    cred.Encode(enc);
    enc.PutU64(cap_id);
  }
  static Result<RevokeCapReq> Decode(Decoder& dec) {
    auto cred = security::Credential::Decode(dec);
    auto cap_id = dec.GetU64();
    if (!cred.ok() || !cap_id.ok()) {
      return InvalidArgument("malformed revoke fields");
    }
    return RevokeCapReq{*cred, *cap_id};
  }
};

struct RefreshCapReq {
  security::Credential cred;
  security::Capability cap;

  void Encode(Encoder& enc) const {
    cred.Encode(enc);
    cap.Encode(enc);
  }
  static Result<RefreshCapReq> Decode(Decoder& dec) {
    auto cred = security::Credential::Decode(dec);
    auto cap = security::Capability::Decode(dec);
    if (!cred.ok() || !cap.ok()) {
      return InvalidArgument("malformed refresh fields");
    }
    return RefreshCapReq{*cred, *cap};
  }
};

inline constexpr rpc::OpDef kCreateContainerOp{kOpCreateContainer,
                                               "create_container"};
inline constexpr rpc::OpDef kGetCapOp{kOpGetCap, "get_cap"};
inline constexpr rpc::OpDef kVerifyCapOp{kOpVerifyCap, "verify_cap"};
inline constexpr rpc::OpDef kSetGrantOp{kOpSetGrant, "set_grant"};
inline constexpr rpc::OpDef kRevokeCapabilityOp{kOpRevokeCapability,
                                                "revoke_capability"};
inline constexpr rpc::OpDef kRefreshCapOp{kOpRefreshCap, "refresh_cap"};

// ---------------------------------------------------------------------------
// Storage service (data plane)
// ---------------------------------------------------------------------------

struct ObjCreateReq {
  security::Capability cap;
  std::uint64_t txid = 0;

  void Encode(Encoder& enc) const {
    cap.Encode(enc);
    enc.PutU64(txid);
  }
  static Result<ObjCreateReq> Decode(Decoder& dec) {
    auto cap = security::Capability::Decode(dec);
    auto txid = dec.GetU64();
    if (!cap.ok() || !txid.ok()) {
      return InvalidArgument("malformed create fields");
    }
    return ObjCreateReq{*cap, *txid};
  }
};

struct ObjCreateRep {
  std::uint64_t oid = 0;

  void Encode(Encoder& enc) const { enc.PutU64(oid); }
  static Result<ObjCreateRep> Decode(Decoder& dec) {
    auto oid = dec.GetU64();
    if (!oid.ok()) return oid.status();
    return ObjCreateRep{*oid};
  }
};

struct ObjWriteReq {
  security::Capability cap;
  std::uint64_t oid = 0;
  std::uint64_t offset = 0;

  void Encode(Encoder& enc) const {
    cap.Encode(enc);
    enc.PutU64(oid);
    enc.PutU64(offset);
  }
  static Result<ObjWriteReq> Decode(Decoder& dec) {
    auto cap = security::Capability::Decode(dec);
    auto oid = dec.GetU64();
    auto offset = dec.GetU64();
    if (!cap.ok() || !oid.ok() || !offset.ok()) {
      return InvalidArgument("malformed write fields");
    }
    return ObjWriteReq{*cap, *oid, *offset};
  }
};

/// Bytes actually moved through the bulk path (writes and reads).
struct IoMovedRep {
  std::uint64_t moved = 0;

  void Encode(Encoder& enc) const { enc.PutU64(moved); }
  static Result<IoMovedRep> Decode(Decoder& dec) {
    auto moved = dec.GetU64();
    if (!moved.ok()) return moved.status();
    return IoMovedRep{*moved};
  }
};

struct ObjReadReq {
  security::Capability cap;
  std::uint64_t oid = 0;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;

  void Encode(Encoder& enc) const {
    cap.Encode(enc);
    enc.PutU64(oid);
    enc.PutU64(offset);
    enc.PutU64(length);
  }
  static Result<ObjReadReq> Decode(Decoder& dec) {
    auto cap = security::Capability::Decode(dec);
    auto oid = dec.GetU64();
    auto offset = dec.GetU64();
    auto length = dec.GetU64();
    if (!cap.ok() || !oid.ok() || !offset.ok() || !length.ok()) {
      return InvalidArgument("malformed read fields");
    }
    return ObjReadReq{*cap, *oid, *offset, *length};
  }
};

struct ObjRemoveReq {
  security::Capability cap;
  std::uint64_t oid = 0;
  std::uint64_t txid = 0;

  void Encode(Encoder& enc) const {
    cap.Encode(enc);
    enc.PutU64(oid);
    enc.PutU64(txid);
  }
  static Result<ObjRemoveReq> Decode(Decoder& dec) {
    auto cap = security::Capability::Decode(dec);
    auto oid = dec.GetU64();
    auto txid = dec.GetU64();
    if (!cap.ok() || !oid.ok() || !txid.ok()) {
      return InvalidArgument("malformed remove fields");
    }
    return ObjRemoveReq{*cap, *oid, *txid};
  }
};

struct ObjGetAttrReq {
  security::Capability cap;
  std::uint64_t oid = 0;

  void Encode(Encoder& enc) const {
    cap.Encode(enc);
    enc.PutU64(oid);
  }
  static Result<ObjGetAttrReq> Decode(Decoder& dec) {
    auto cap = security::Capability::Decode(dec);
    auto oid = dec.GetU64();
    if (!cap.ok() || !oid.ok()) {
      return InvalidArgument("malformed getattr fields");
    }
    return ObjGetAttrReq{*cap, *oid};
  }
};

struct ObjAttrRep {
  storage::ObjAttr attr;

  void Encode(Encoder& enc) const { EncodeObjAttr(enc, attr); }
  static Result<ObjAttrRep> Decode(Decoder& dec) {
    auto attr = DecodeObjAttr(dec);
    if (!attr.ok()) return attr.status();
    return ObjAttrRep{*attr};
  }
};

struct ObjListReq {
  security::Capability cap;

  void Encode(Encoder& enc) const { cap.Encode(enc); }
  static Result<ObjListReq> Decode(Decoder& dec) {
    auto cap = security::Capability::Decode(dec);
    if (!cap.ok()) return cap.status();
    return ObjListReq{*cap};
  }
};

struct ObjListRep {
  std::vector<std::uint64_t> oids;

  void Encode(Encoder& enc) const {
    enc.PutU32(static_cast<std::uint32_t>(oids.size()));
    for (std::uint64_t oid : oids) enc.PutU64(oid);
  }
  static Result<ObjListRep> Decode(Decoder& dec) {
    auto count = dec.GetU32();
    if (!count.ok()) return count.status();
    if (*count > dec.remaining() / 8) {
      return InvalidArgument("object count exceeds payload");
    }
    ObjListRep rep;
    rep.oids.reserve(*count);
    for (std::uint32_t i = 0; i < *count; ++i) {
      auto oid = dec.GetU64();
      if (!oid.ok()) return oid.status();
      rep.oids.push_back(*oid);
    }
    return rep;
  }
};

struct ObjFilterReq {
  security::Capability cap;
  std::uint64_t oid = 0;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  FilterSpec spec;

  void Encode(Encoder& enc) const {
    cap.Encode(enc);
    enc.PutU64(oid);
    enc.PutU64(offset);
    enc.PutU64(length);
    spec.Encode(enc);
  }
  static Result<ObjFilterReq> Decode(Decoder& dec) {
    auto cap = security::Capability::Decode(dec);
    auto oid = dec.GetU64();
    auto offset = dec.GetU64();
    auto length = dec.GetU64();
    auto spec = FilterSpec::Decode(dec);
    if (!cap.ok() || !oid.ok() || !offset.ok() || !length.ok() || !spec.ok()) {
      return InvalidArgument("malformed filter fields");
    }
    return ObjFilterReq{*cap, *oid, *offset, *length, *spec};
  }
};

struct ObjFilterRep {
  std::uint64_t result_bytes = 0;
  std::uint64_t input_bytes = 0;

  void Encode(Encoder& enc) const {
    enc.PutU64(result_bytes);
    enc.PutU64(input_bytes);
  }
  static Result<ObjFilterRep> Decode(Decoder& dec) {
    auto result_bytes = dec.GetU64();
    auto input_bytes = dec.GetU64();
    if (!result_bytes.ok() || !input_bytes.ok()) {
      return InvalidArgument("malformed filter outcome");
    }
    return ObjFilterRep{*result_bytes, *input_bytes};
  }
};

struct ObjTruncateReq {
  security::Capability cap;
  std::uint64_t oid = 0;
  std::uint64_t size = 0;

  void Encode(Encoder& enc) const {
    cap.Encode(enc);
    enc.PutU64(oid);
    enc.PutU64(size);
  }
  static Result<ObjTruncateReq> Decode(Decoder& dec) {
    auto cap = security::Capability::Decode(dec);
    auto oid = dec.GetU64();
    auto size = dec.GetU64();
    if (!cap.ok() || !oid.ok() || !size.ok()) {
      return InvalidArgument("malformed truncate fields");
    }
    return ObjTruncateReq{*cap, *oid, *size};
  }
};

inline constexpr rpc::OpDef kObjCreateOp{kOpObjCreate, "obj_create",
                                         security::kOpCreate};
inline constexpr rpc::OpDef kObjWriteOp{kOpObjWrite, "obj_write",
                                        security::kOpWrite,
                                        rpc::BulkDir::kPull};
/// The payload travels as store-owned slices in the reply frame itself
/// (BulkDir::kReply), so the client registers no bulk-in region.
inline constexpr rpc::OpDef kObjReadOp{kOpObjRead, "obj_read",
                                       security::kOpRead,
                                       rpc::BulkDir::kReply};
inline constexpr rpc::OpDef kObjRemoveOp{kOpObjRemove, "obj_remove",
                                         security::kOpRemove};
inline constexpr rpc::OpDef kObjGetAttrOp{kOpObjGetAttr, "obj_getattr",
                                          security::kOpRead};
inline constexpr rpc::OpDef kObjListOp{kOpObjList, "obj_list",
                                       security::kOpRead};
inline constexpr rpc::OpDef kObjFilterOp{kOpObjFilter, "obj_filter",
                                         security::kOpRead,
                                         rpc::BulkDir::kPush};
inline constexpr rpc::OpDef kObjTruncateOp{kOpObjTruncate, "obj_truncate",
                                           security::kOpWrite};

// ---------------------------------------------------------------------------
// Replication (storage data plane)
// ---------------------------------------------------------------------------

/// Create an object under a registry-assigned id (replica fan-out, repair,
/// and remote journal replay).  Idempotent: re-creating an existing object
/// in the same container succeeds without touching it.
struct ObjCreateAtReq {
  security::Capability cap;
  std::uint64_t oid = 0;
  std::uint64_t txid = 0;

  void Encode(Encoder& enc) const {
    cap.Encode(enc);
    enc.PutU64(oid);
    enc.PutU64(txid);
  }
  static Result<ObjCreateAtReq> Decode(Decoder& dec) {
    auto cap = security::Capability::Decode(dec);
    auto oid = dec.GetU64();
    auto txid = dec.GetU64();
    if (!cap.ok() || !oid.ok() || !txid.ok()) {
      return InvalidArgument("malformed create-at fields");
    }
    return ObjCreateAtReq{*cap, *oid, *txid};
  }
};

/// One downstream member of a replica chain: the deployment index (for
/// registry reports) plus the nid to forward to (servers don't hold a
/// deployment map, so the client resolves nids up front).
struct ReplicaHop {
  std::uint32_t index = 0;
  std::uint64_t nid = 0;
  auto operator<=>(const ReplicaHop&) const = default;
};

/// One chain-replicated write hop.  The receiving server pulls the chunk,
/// applies it locally, forwards the same bytes to chain.front(), and replies
/// only once every downstream hop acked — the reply the client sees is the
/// tail's commit ack.  `chain` holds the hops *after* the receiver.
struct ReplicaWriteReq {
  security::Capability cap;
  std::uint64_t oid = 0;
  std::uint64_t offset = 0;
  std::vector<ReplicaHop> chain;

  void Encode(Encoder& enc) const {
    cap.Encode(enc);
    enc.PutU64(oid);
    enc.PutU64(offset);
    enc.PutU32(static_cast<std::uint32_t>(chain.size()));
    for (const ReplicaHop& hop : chain) {
      enc.PutU32(hop.index);
      enc.PutU64(hop.nid);
    }
  }
  static Result<ReplicaWriteReq> Decode(Decoder& dec) {
    auto cap = security::Capability::Decode(dec);
    auto oid = dec.GetU64();
    auto offset = dec.GetU64();
    auto count = dec.GetU32();
    if (!cap.ok() || !oid.ok() || !offset.ok() || !count.ok()) {
      return InvalidArgument("malformed replica-write fields");
    }
    if (*count > dec.remaining() / 12) {
      return InvalidArgument("replica chain exceeds payload");
    }
    ReplicaWriteReq req{*cap, *oid, *offset, {}};
    req.chain.reserve(*count);
    for (std::uint32_t i = 0; i < *count; ++i) {
      auto index = dec.GetU32();
      auto nid = dec.GetU64();
      if (!index.ok() || !nid.ok()) {
        return InvalidArgument("malformed replica hop");
      }
      req.chain.push_back(ReplicaHop{*index, *nid});
    }
    return req;
  }
};

/// Which chain members applied the write (receiver + everything downstream
/// that acked), and the receiver's post-write object version.  Members of
/// the chain missing from `applied` must be reported stale so repair can
/// catch them up.
struct ReplicaWriteRep {
  std::vector<std::uint32_t> applied;
  std::uint64_t version = 0;

  void Encode(Encoder& enc) const {
    enc.PutU32(static_cast<std::uint32_t>(applied.size()));
    for (std::uint32_t index : applied) enc.PutU32(index);
    enc.PutU64(version);
  }
  static Result<ReplicaWriteRep> Decode(Decoder& dec) {
    auto count = dec.GetU32();
    if (!count.ok()) return count.status();
    if (*count > dec.remaining() / 4) {
      return InvalidArgument("applied count exceeds payload");
    }
    ReplicaWriteRep rep;
    rep.applied.reserve(*count);
    for (std::uint32_t i = 0; i < *count; ++i) {
      auto index = dec.GetU32();
      if (!index.ok()) return index.status();
      rep.applied.push_back(*index);
    }
    auto version = dec.GetU64();
    if (!version.ok()) return version.status();
    rep.version = *version;
    return rep;
  }
};

inline constexpr rpc::OpDef kObjCreateAtOp{kOpObjCreateAt, "obj_create_at",
                                           security::kOpCreate};
inline constexpr rpc::OpDef kReplicaWriteOp{kOpReplicaWrite, "replica_write",
                                            security::kOpWrite,
                                            rpc::BulkDir::kPull};

// ---------------------------------------------------------------------------
// Two-phase-commit participant ops (storage and naming services)
// ---------------------------------------------------------------------------

struct TxnReq {
  std::uint64_t txid = 0;

  void Encode(Encoder& enc) const { enc.PutU64(txid); }
  static Result<TxnReq> Decode(Decoder& dec) {
    auto txid = dec.GetU64();
    if (!txid.ok()) return txid.status();
    return TxnReq{*txid};
  }
};

struct TxnVoteRep {
  bool vote = false;

  void Encode(Encoder& enc) const { enc.PutBool(vote); }
  static Result<TxnVoteRep> Decode(Decoder& dec) {
    auto vote = dec.GetBool();
    if (!vote.ok()) return vote.status();
    return TxnVoteRep{*vote};
  }
};

inline constexpr rpc::OpDef kTxnPrepareOp{kOpTxnPrepare, "txn_prepare"};
inline constexpr rpc::OpDef kTxnCommitOp{kOpTxnCommit, "txn_commit"};
inline constexpr rpc::OpDef kTxnAbortOp{kOpTxnAbort, "txn_abort"};

// ---------------------------------------------------------------------------
// Storage service (control plane)
// ---------------------------------------------------------------------------

struct InvalidateCapsReq {
  std::vector<std::uint64_t> cap_ids;

  void Encode(Encoder& enc) const {
    enc.PutU32(static_cast<std::uint32_t>(cap_ids.size()));
    for (std::uint64_t id : cap_ids) enc.PutU64(id);
  }
  static Result<InvalidateCapsReq> Decode(Decoder& dec) {
    auto count = dec.GetU32();
    if (!count.ok()) return count.status();
    if (*count > dec.remaining() / 8) {
      return InvalidArgument("cap count exceeds payload");
    }
    InvalidateCapsReq req;
    req.cap_ids.reserve(*count);
    for (std::uint32_t i = 0; i < *count; ++i) {
      auto id = dec.GetU64();
      if (!id.ok()) return id.status();
      req.cap_ids.push_back(*id);
    }
    return req;
  }
};

inline constexpr rpc::OpDef kInvalidateCapsOp{kOpInvalidateCaps,
                                              "invalidate_caps"};

// ---------------------------------------------------------------------------
// Repair plane (control portal)
// ---------------------------------------------------------------------------
//
// Like kOpInvalidateCaps these are service-to-service ops on the control
// portal: the chunk replicator is a trusted internal service, so no
// capability travels with them.

/// Which of these objects do you hold, and at what version?
struct RepairProbeReq {
  std::vector<std::uint64_t> oids;

  void Encode(Encoder& enc) const {
    enc.PutU32(static_cast<std::uint32_t>(oids.size()));
    for (std::uint64_t oid : oids) enc.PutU64(oid);
  }
  static Result<RepairProbeReq> Decode(Decoder& dec) {
    auto count = dec.GetU32();
    if (!count.ok()) return count.status();
    if (*count > dec.remaining() / 8) {
      return InvalidArgument("probe count exceeds payload");
    }
    RepairProbeReq req;
    req.oids.reserve(*count);
    for (std::uint32_t i = 0; i < *count; ++i) {
      auto oid = dec.GetU64();
      if (!oid.ok()) return oid.status();
      req.oids.push_back(*oid);
    }
    return req;
  }
};

struct ReplicaProbe {
  std::uint64_t oid = 0;
  bool held = false;
  std::uint64_t version = 0;
  std::uint64_t size = 0;
  auto operator<=>(const ReplicaProbe&) const = default;
};

struct RepairProbeRep {
  std::vector<ReplicaProbe> probes;

  void Encode(Encoder& enc) const {
    enc.PutU32(static_cast<std::uint32_t>(probes.size()));
    for (const ReplicaProbe& p : probes) {
      enc.PutU64(p.oid);
      enc.PutBool(p.held);
      enc.PutU64(p.version);
      enc.PutU64(p.size);
    }
  }
  static Result<RepairProbeRep> Decode(Decoder& dec) {
    auto count = dec.GetU32();
    if (!count.ok()) return count.status();
    if (*count > dec.remaining() / 25) {
      return InvalidArgument("probe count exceeds payload");
    }
    RepairProbeRep rep;
    rep.probes.reserve(*count);
    for (std::uint32_t i = 0; i < *count; ++i) {
      auto oid = dec.GetU64();
      auto held = dec.GetBool();
      auto version = dec.GetU64();
      auto size = dec.GetU64();
      if (!oid.ok() || !held.ok() || !version.ok() || !size.ok()) {
        return InvalidArgument("malformed replica probe");
      }
      rep.probes.push_back(ReplicaProbe{*oid, *held, *version, *size});
    }
    return rep;
  }
};

/// Read survivor bytes for repair (they ride the reply frame to the
/// replicator).
struct RepairReadReq {
  std::uint64_t oid = 0;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;

  void Encode(Encoder& enc) const {
    enc.PutU64(oid);
    enc.PutU64(offset);
    enc.PutU64(length);
  }
  static Result<RepairReadReq> Decode(Decoder& dec) {
    auto oid = dec.GetU64();
    auto offset = dec.GetU64();
    auto length = dec.GetU64();
    if (!oid.ok() || !offset.ok() || !length.ok()) {
      return InvalidArgument("malformed repair-read fields");
    }
    return RepairReadReq{*oid, *offset, *length};
  }
};

struct RepairReadRep {
  std::uint64_t moved = 0;
  std::uint64_t version = 0;
  std::uint64_t size = 0;

  void Encode(Encoder& enc) const {
    enc.PutU64(moved);
    enc.PutU64(version);
    enc.PutU64(size);
  }
  static Result<RepairReadRep> Decode(Decoder& dec) {
    auto moved = dec.GetU64();
    auto version = dec.GetU64();
    auto size = dec.GetU64();
    if (!moved.ok() || !version.ok() || !size.ok()) {
      return InvalidArgument("malformed repair-read outcome");
    }
    return RepairReadRep{*moved, *version, *size};
  }
};

/// Write repaired bytes onto a stale member (bulk pull from the
/// replicator); creates the object in `cid` if the member lost it.
/// `target_version` > 0 (the final chunk of a repair) sets the member's
/// object version to the source's — versions count applied writes, and a
/// repair applies fewer, larger writes than the client did, so without the
/// catch-up a freshly repaired member would probe as stale forever.
struct RepairWriteReq {
  std::uint64_t oid = 0;
  std::uint64_t cid = 0;
  std::uint64_t offset = 0;
  std::uint64_t target_version = 0;

  void Encode(Encoder& enc) const {
    enc.PutU64(oid);
    enc.PutU64(cid);
    enc.PutU64(offset);
    enc.PutU64(target_version);
  }
  static Result<RepairWriteReq> Decode(Decoder& dec) {
    auto oid = dec.GetU64();
    auto cid = dec.GetU64();
    auto offset = dec.GetU64();
    auto target_version = dec.GetU64();
    if (!oid.ok() || !cid.ok() || !offset.ok() || !target_version.ok()) {
      return InvalidArgument("malformed repair-write fields");
    }
    return RepairWriteReq{*oid, *cid, *offset, *target_version};
  }
};

struct RepairWriteRep {
  std::uint64_t version = 0;

  void Encode(Encoder& enc) const { enc.PutU64(version); }
  static Result<RepairWriteRep> Decode(Decoder& dec) {
    auto version = dec.GetU64();
    if (!version.ok()) return version.status();
    return RepairWriteRep{*version};
  }
};

inline constexpr rpc::OpDef kRepairProbeOp{kOpRepairProbe, "repair_probe"};
inline constexpr rpc::OpDef kRepairReadOp{kOpRepairRead, "repair_read", 0,
                                          rpc::BulkDir::kReply};
inline constexpr rpc::OpDef kRepairWriteOp{kOpRepairWrite, "repair_write", 0,
                                           rpc::BulkDir::kPull};

// ---------------------------------------------------------------------------
// Naming service
// ---------------------------------------------------------------------------

struct MkdirReq {
  std::string path;
  bool recursive = false;

  void Encode(Encoder& enc) const {
    enc.PutString(path);
    enc.PutBool(recursive);
  }
  static Result<MkdirReq> Decode(Decoder& dec) {
    auto path = dec.GetString();
    auto recursive = dec.GetBool();
    if (!path.ok() || !recursive.ok()) {
      return InvalidArgument("malformed mkdir fields");
    }
    return MkdirReq{std::move(*path), *recursive};
  }
};

struct LinkReq {
  std::string path;
  storage::ObjectRef ref;

  void Encode(Encoder& enc) const {
    enc.PutString(path);
    EncodeObjectRef(enc, ref);
  }
  static Result<LinkReq> Decode(Decoder& dec) {
    auto path = dec.GetString();
    auto ref = DecodeObjectRef(dec);
    if (!path.ok() || !ref.ok()) {
      return InvalidArgument("malformed link fields");
    }
    return LinkReq{std::move(*path), *ref};
  }
};

struct StageLinkReq {
  std::uint64_t txid = 0;
  std::string path;
  storage::ObjectRef ref;

  void Encode(Encoder& enc) const {
    enc.PutU64(txid);
    enc.PutString(path);
    EncodeObjectRef(enc, ref);
  }
  static Result<StageLinkReq> Decode(Decoder& dec) {
    auto txid = dec.GetU64();
    auto path = dec.GetString();
    auto ref = DecodeObjectRef(dec);
    if (!txid.ok() || !path.ok() || !ref.ok()) {
      return InvalidArgument("malformed staged-link fields");
    }
    return StageLinkReq{*txid, std::move(*path), *ref};
  }
};

struct StageUnlinkReq {
  std::uint64_t txid = 0;
  std::string path;

  void Encode(Encoder& enc) const {
    enc.PutU64(txid);
    enc.PutString(path);
  }
  static Result<StageUnlinkReq> Decode(Decoder& dec) {
    auto txid = dec.GetU64();
    auto path = dec.GetString();
    if (!txid.ok() || !path.ok()) {
      return InvalidArgument("malformed staged-unlink fields");
    }
    return StageUnlinkReq{*txid, std::move(*path)};
  }
};

/// Lookup, unlink, rmdir, and list requests are all just a path.
struct PathReq {
  std::string path;

  void Encode(Encoder& enc) const { enc.PutString(path); }
  static Result<PathReq> Decode(Decoder& dec) {
    auto path = dec.GetString();
    if (!path.ok()) return path.status();
    return PathReq{std::move(*path)};
  }
};

struct ObjectRefRep {
  storage::ObjectRef ref;

  void Encode(Encoder& enc) const { EncodeObjectRef(enc, ref); }
  static Result<ObjectRefRep> Decode(Decoder& dec) {
    auto ref = DecodeObjectRef(dec);
    if (!ref.ok()) return ref.status();
    return ObjectRefRep{*ref};
  }
};

struct RenameReq {
  std::string from;
  std::string to;

  void Encode(Encoder& enc) const {
    enc.PutString(from);
    enc.PutString(to);
  }
  static Result<RenameReq> Decode(Decoder& dec) {
    auto from = dec.GetString();
    auto to = dec.GetString();
    if (!from.ok() || !to.ok()) {
      return InvalidArgument("malformed rename fields");
    }
    return RenameReq{std::move(*from), std::move(*to)};
  }
};

struct ListNamesRep {
  std::vector<naming::DirEntry> entries;

  void Encode(Encoder& enc) const {
    enc.PutU32(static_cast<std::uint32_t>(entries.size()));
    for (const naming::DirEntry& e : entries) {
      enc.PutString(e.name);
      enc.PutBool(e.is_directory);
      enc.PutBool(e.ref.has_value());
      if (e.ref) EncodeObjectRef(enc, *e.ref);
    }
  }
  static Result<ListNamesRep> Decode(Decoder& dec) {
    auto count = dec.GetU32();
    if (!count.ok()) return count.status();
    if (*count > dec.remaining()) {
      return InvalidArgument("entry count exceeds payload");
    }
    ListNamesRep rep;
    rep.entries.reserve(*count);
    for (std::uint32_t i = 0; i < *count; ++i) {
      naming::DirEntry entry;
      auto name = dec.GetString();
      auto is_dir = dec.GetBool();
      auto has_ref = dec.GetBool();
      if (!name.ok() || !is_dir.ok() || !has_ref.ok()) {
        return InvalidArgument("malformed directory entry");
      }
      entry.name = std::move(*name);
      entry.is_directory = *is_dir;
      if (*has_ref) {
        auto ref = DecodeObjectRef(dec);
        if (!ref.ok()) return ref.status();
        entry.ref = *ref;
      }
      rep.entries.push_back(std::move(entry));
    }
    return rep;
  }
};

/// Epoch-stamped shard-map snapshot: which nid is the active primary (and
/// which the standby) for each metadata shard.  Any live shard serves it;
/// clients refresh after a kWrongShard rejection and compare epochs.
struct ShardMapRep {
  std::uint64_t epoch = 0;
  std::vector<std::uint32_t> primaries;  // nid per shard
  std::vector<std::uint32_t> standbys;   // kInvalidNid when absent

  void Encode(Encoder& enc) const {
    enc.PutU64(epoch);
    enc.PutU32(static_cast<std::uint32_t>(primaries.size()));
    for (std::size_t i = 0; i < primaries.size(); ++i) {
      enc.PutU32(primaries[i]);
      enc.PutU32(i < standbys.size() ? standbys[i] : 0);
    }
  }
  static Result<ShardMapRep> Decode(Decoder& dec) {
    auto epoch = dec.GetU64();
    auto count = dec.GetU32();
    if (!epoch.ok() || !count.ok()) {
      return InvalidArgument("malformed shard-map fields");
    }
    if (*count > dec.remaining() / 8) {
      return InvalidArgument("shard count exceeds payload");
    }
    ShardMapRep rep;
    rep.epoch = *epoch;
    rep.primaries.reserve(*count);
    rep.standbys.reserve(*count);
    for (std::uint32_t i = 0; i < *count; ++i) {
      auto primary = dec.GetU32();
      auto standby = dec.GetU32();
      if (!primary.ok() || !standby.ok()) {
        return InvalidArgument("malformed shard entry");
      }
      rep.primaries.push_back(*primary);
      rep.standbys.push_back(*standby);
    }
    return rep;
  }
};

inline constexpr rpc::OpDef kNameMkdirOp{kOpNameMkdir, "name_mkdir"};
inline constexpr rpc::OpDef kNameLinkOp{kOpNameLink, "name_link"};
inline constexpr rpc::OpDef kNameStageLinkOp{kOpNameStageLink,
                                             "name_stage_link"};
inline constexpr rpc::OpDef kNameLookupOp{kOpNameLookup, "name_lookup"};
inline constexpr rpc::OpDef kNameUnlinkOp{kOpNameUnlink, "name_unlink"};
inline constexpr rpc::OpDef kNameRmdirOp{kOpNameRmdir, "name_rmdir"};
inline constexpr rpc::OpDef kNameRenameOp{kOpNameRename, "name_rename"};
inline constexpr rpc::OpDef kNameListOp{kOpNameList, "name_list"};
inline constexpr rpc::OpDef kNameStageUnlinkOp{kOpNameStageUnlink,
                                               "name_stage_unlink"};
inline constexpr rpc::OpDef kNameShardMapOp{kOpNameShardMap,
                                            "name_shard_map"};

// ---------------------------------------------------------------------------
// Replica registry (naming service)
// ---------------------------------------------------------------------------

/// Allocate a replicated object id and a placement chain for it.
/// `preferred` seeds the chain head (clients spread load the same way they
/// pick `server = rank % nservers` today); `factor` = 0 uses the
/// deployment's default replication factor.
struct ReplicaPlaceReq {
  std::uint64_t cid = 0;
  std::uint32_t preferred = 0;
  std::uint32_t factor = 0;

  void Encode(Encoder& enc) const {
    enc.PutU64(cid);
    enc.PutU32(preferred);
    enc.PutU32(factor);
  }
  static Result<ReplicaPlaceReq> Decode(Decoder& dec) {
    auto cid = dec.GetU64();
    auto preferred = dec.GetU32();
    auto factor = dec.GetU32();
    if (!cid.ok() || !preferred.ok() || !factor.ok()) {
      return InvalidArgument("malformed place fields");
    }
    return ReplicaPlaceReq{*cid, *preferred, *factor};
  }
};

/// A replica chain: ordered storage-server indices, head first.  Reply to
/// both place and lookup.
struct ReplicaChainRep {
  std::uint64_t oid = 0;
  std::uint64_t cid = 0;
  std::vector<std::uint32_t> servers;

  void Encode(Encoder& enc) const {
    enc.PutU64(oid);
    enc.PutU64(cid);
    enc.PutU32(static_cast<std::uint32_t>(servers.size()));
    for (std::uint32_t s : servers) enc.PutU32(s);
  }
  static Result<ReplicaChainRep> Decode(Decoder& dec) {
    auto oid = dec.GetU64();
    auto cid = dec.GetU64();
    auto count = dec.GetU32();
    if (!oid.ok() || !cid.ok() || !count.ok()) {
      return InvalidArgument("malformed chain fields");
    }
    if (*count > dec.remaining() / 4) {
      return InvalidArgument("chain length exceeds payload");
    }
    ReplicaChainRep rep{*oid, *cid, {}};
    rep.servers.reserve(*count);
    for (std::uint32_t i = 0; i < *count; ++i) {
      auto s = dec.GetU32();
      if (!s.ok()) return s.status();
      rep.servers.push_back(*s);
    }
    return rep;
  }
};

struct ReplicaLookupReq {
  std::uint64_t oid = 0;

  void Encode(Encoder& enc) const { enc.PutU64(oid); }
  static Result<ReplicaLookupReq> Decode(Decoder& dec) {
    auto oid = dec.GetU64();
    if (!oid.ok()) return oid.status();
    return ReplicaLookupReq{*oid};
  }
};

/// Degraded-write report: `stale` members missed a write that committed at
/// `version` on the surviving members.  The registry records them for the
/// background replicator.
struct ReplicaReportReq {
  std::uint64_t oid = 0;
  std::uint64_t version = 0;
  std::vector<std::uint32_t> stale;

  void Encode(Encoder& enc) const {
    enc.PutU64(oid);
    enc.PutU64(version);
    enc.PutU32(static_cast<std::uint32_t>(stale.size()));
    for (std::uint32_t s : stale) enc.PutU32(s);
  }
  static Result<ReplicaReportReq> Decode(Decoder& dec) {
    auto oid = dec.GetU64();
    auto version = dec.GetU64();
    auto count = dec.GetU32();
    if (!oid.ok() || !version.ok() || !count.ok()) {
      return InvalidArgument("malformed report fields");
    }
    if (*count > dec.remaining() / 4) {
      return InvalidArgument("stale count exceeds payload");
    }
    ReplicaReportReq req{*oid, *version, {}};
    req.stale.reserve(*count);
    for (std::uint32_t i = 0; i < *count; ++i) {
      auto s = dec.GetU32();
      if (!s.ok()) return s.status();
      req.stale.push_back(*s);
    }
    return req;
  }
};

/// Replica-count audit over every registry entry.
struct ReplicaAuditRep {
  std::uint64_t objects = 0;
  std::uint64_t fully_replicated = 0;
  std::uint64_t under_replicated = 0;
  std::uint64_t stale_members = 0;

  void Encode(Encoder& enc) const {
    enc.PutU64(objects);
    enc.PutU64(fully_replicated);
    enc.PutU64(under_replicated);
    enc.PutU64(stale_members);
  }
  static Result<ReplicaAuditRep> Decode(Decoder& dec) {
    auto objects = dec.GetU64();
    auto full = dec.GetU64();
    auto under = dec.GetU64();
    auto stale = dec.GetU64();
    if (!objects.ok() || !full.ok() || !under.ok() || !stale.ok()) {
      return InvalidArgument("malformed audit counters");
    }
    return ReplicaAuditRep{*objects, *full, *under, *stale};
  }
};

inline constexpr rpc::OpDef kReplicaPlaceOp{kOpReplicaPlace, "replica_place"};
inline constexpr rpc::OpDef kReplicaLookupOp{kOpReplicaLookup,
                                             "replica_lookup"};
inline constexpr rpc::OpDef kReplicaReportOp{kOpReplicaReport,
                                             "replica_report"};
inline constexpr rpc::OpDef kReplicaAuditOp{kOpReplicaAudit, "replica_audit"};

// ---------------------------------------------------------------------------
// Lock service
// ---------------------------------------------------------------------------

struct LockTryReq {
  std::uint64_t container = 0;
  std::uint64_t resource = 0;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  bool exclusive = false;

  void Encode(Encoder& enc) const {
    enc.PutU64(container);
    enc.PutU64(resource);
    enc.PutU64(start);
    enc.PutU64(end);
    enc.PutBool(exclusive);
  }
  static Result<LockTryReq> Decode(Decoder& dec) {
    auto container = dec.GetU64();
    auto resource = dec.GetU64();
    auto start = dec.GetU64();
    auto end = dec.GetU64();
    auto exclusive = dec.GetBool();
    if (!container.ok() || !resource.ok() || !start.ok() || !end.ok() ||
        !exclusive.ok()) {
      return InvalidArgument("malformed lock fields");
    }
    return LockTryReq{*container, *resource, *start, *end, *exclusive};
  }
};

struct LockIdRep {
  std::uint64_t id = 0;

  void Encode(Encoder& enc) const { enc.PutU64(id); }
  static Result<LockIdRep> Decode(Decoder& dec) {
    auto id = dec.GetU64();
    if (!id.ok()) return id.status();
    return LockIdRep{*id};
  }
};

struct LockReleaseReq {
  std::uint64_t id = 0;

  void Encode(Encoder& enc) const { enc.PutU64(id); }
  static Result<LockReleaseReq> Decode(Decoder& dec) {
    auto id = dec.GetU64();
    if (!id.ok()) return id.status();
    return LockReleaseReq{*id};
  }
};

inline constexpr rpc::OpDef kLockTryOp{kOpLockTry, "lock_try"};
inline constexpr rpc::OpDef kLockReleaseOp{kOpLockRelease, "lock_release"};

// ---------------------------------------------------------------------------
// Codec registry for table-driven tests
// ---------------------------------------------------------------------------

/// One CodecCase per core request/reply message, built from representative
/// sample values; tests iterate these to prove round-trips and truncation
/// rejection for every codec, so a new message only needs a new entry here.
std::vector<rpc::CodecCase> CoreWireCases();

}  // namespace lwfs::core::wire

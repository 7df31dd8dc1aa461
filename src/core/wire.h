// Typed wire messages for every LWFS-core op.
//
// Each request/reply is a plain struct that lists its fields once with
// LWFS_CODEC (util/codec.h), which derives the rpc::WireMessage codec; the
// op-spec framework (rpc/service.h) and the typed client stubs
// (rpc::CallTyped) are the only users of these codecs, so framing for an op
// lives in exactly one place.  Field order is the wire format — append-only,
// never reorder.
//
// The OpDef constants beside the messages declare each op's opcode, metric
// name, required security::OpMask bits, bulk direction, and — for the
// wait-free metadata ops — rpc::Dispatch::kInline, which lets the server run
// them on the thread that delivered the request (README "Ops served
// inline"); servers register handlers against these and the middleware
// enforces the rest.
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
#include "util/codec.h"

namespace lwfs::core::wire {

using rpc::Void;

// ---------------------------------------------------------------------------
// Authentication service
// ---------------------------------------------------------------------------

struct LoginReq {
  std::string principal;
  std::string secret;
  LWFS_CODEC(LoginReq, principal, secret)
};

struct CredentialRep {
  security::Credential cred;
  LWFS_CODEC(CredentialRep, cred)
};

struct RevokeCredReq {
  std::uint64_t cred_id = 0;
  LWFS_CODEC(RevokeCredReq, cred_id)
};

inline constexpr rpc::OpDef kLoginOp{kOpLogin, "login"};
inline constexpr rpc::OpDef kRevokeCredOp{kOpRevokeCred, "revoke_cred"};

// ---------------------------------------------------------------------------
// Authorization service
// ---------------------------------------------------------------------------

struct CreateContainerReq {
  security::Credential cred;
  LWFS_CODEC(CreateContainerReq, cred)
};

struct CreateContainerRep {
  std::uint64_t cid = 0;
  LWFS_CODEC(CreateContainerRep, cid)
};

struct GetCapReq {
  security::Credential cred;
  std::uint64_t cid = 0;
  std::uint32_t ops = 0;
  LWFS_CODEC(GetCapReq, cred, cid, ops)
};

struct CapabilityRep {
  security::Capability cap;
  LWFS_CODEC(CapabilityRep, cap)
};

struct VerifyCapReq {
  std::uint32_t server_id = 0;
  security::Capability cap;
  LWFS_CODEC(VerifyCapReq, server_id, cap)
};

struct SetGrantReq {
  security::Credential cred;
  std::uint64_t cid = 0;
  std::uint64_t grantee = 0;
  std::uint32_t ops = 0;
  LWFS_CODEC(SetGrantReq, cred, cid, grantee, ops)
};

struct RevokeCapReq {
  security::Credential cred;
  std::uint64_t cap_id = 0;
  LWFS_CODEC(RevokeCapReq, cred, cap_id)
};

struct RefreshCapReq {
  security::Credential cred;
  security::Capability cap;
  LWFS_CODEC(RefreshCapReq, cred, cap)
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
  LWFS_CODEC(ObjCreateReq, cap, txid)
};

struct ObjCreateRep {
  std::uint64_t oid = 0;
  LWFS_CODEC(ObjCreateRep, oid)
};

/// The payload rides the bulk pull.  `piece_crcs` holds one CRC per
/// storage::kExtentBytes piece of it (storage::PieceCrcs), folded into the
/// request header's payload checksum; the server's store verifies each
/// piece inside its copy and publishes nothing that fails.
struct ObjWriteReq {
  security::Capability cap;
  std::uint64_t oid = 0;
  std::uint64_t offset = 0;
  std::vector<std::uint32_t> piece_crcs;
  LWFS_CODEC(ObjWriteReq, cap, oid, offset, piece_crcs)
};

/// Bytes actually moved through the bulk path (writes and reads).
struct IoMovedRep {
  std::uint64_t moved = 0;
  LWFS_CODEC(IoMovedRep, moved)
};

struct ObjReadReq {
  security::Capability cap;
  std::uint64_t oid = 0;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  LWFS_CODEC(ObjReadReq, cap, oid, offset, length)
};

struct ObjRemoveReq {
  security::Capability cap;
  std::uint64_t oid = 0;
  std::uint64_t txid = 0;
  LWFS_CODEC(ObjRemoveReq, cap, oid, txid)
};

struct ObjGetAttrReq {
  security::Capability cap;
  std::uint64_t oid = 0;
  LWFS_CODEC(ObjGetAttrReq, cap, oid)
};

struct ObjAttrRep {
  storage::ObjAttr attr;
  LWFS_CODEC(ObjAttrRep, attr)
};

struct ObjListReq {
  security::Capability cap;
  LWFS_CODEC(ObjListReq, cap)
};

struct ObjListRep {
  std::vector<std::uint64_t> oids;
  LWFS_CODEC(ObjListRep, oids)
};

struct ObjFilterReq {
  security::Capability cap;
  std::uint64_t oid = 0;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  FilterSpec spec;
  LWFS_CODEC(ObjFilterReq, cap, oid, offset, length, spec)
};

struct ObjFilterRep {
  std::uint64_t result_bytes = 0;
  std::uint64_t input_bytes = 0;
  LWFS_CODEC(ObjFilterRep, result_bytes, input_bytes)
};

struct ObjTruncateReq {
  security::Capability cap;
  std::uint64_t oid = 0;
  std::uint64_t size = 0;
  LWFS_CODEC(ObjTruncateReq, cap, oid, size)
};

inline constexpr rpc::OpDef kObjCreateOp{kOpObjCreate, "obj_create",
                                         security::kOpCreate,
                                         rpc::BulkDir::kNone,
                                         rpc::Dispatch::kInline};
inline constexpr rpc::OpDef kObjWriteOp{kOpObjWrite, "obj_write",
                                        security::kOpWrite,
                                        rpc::BulkDir::kPull};
/// The payload travels as store-owned slices in the reply frame itself
/// (BulkDir::kReply), so the client registers no bulk-in region.
inline constexpr rpc::OpDef kObjReadOp{kOpObjRead, "obj_read",
                                       security::kOpRead,
                                       rpc::BulkDir::kReply};
inline constexpr rpc::OpDef kObjRemoveOp{kOpObjRemove, "obj_remove",
                                         security::kOpRemove,
                                         rpc::BulkDir::kNone,
                                         rpc::Dispatch::kInline};
inline constexpr rpc::OpDef kObjGetAttrOp{kOpObjGetAttr, "obj_getattr",
                                          security::kOpRead,
                                          rpc::BulkDir::kNone,
                                          rpc::Dispatch::kInline};
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
  LWFS_CODEC(ObjCreateAtReq, cap, oid, txid)
};

/// One downstream member of a replica chain: the deployment index (for
/// registry reports) plus the nid to forward to (servers don't hold a
/// deployment map, so the client resolves nids up front).
struct ReplicaHop {
  std::uint32_t index = 0;
  std::uint64_t nid = 0;
  auto operator<=>(const ReplicaHop&) const = default;
  LWFS_CODEC(ReplicaHop, index, nid)
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
  LWFS_CODEC(ReplicaWriteReq, cap, oid, offset, chain)
};

/// Which chain members applied the write (receiver + everything downstream
/// that acked), and the receiver's post-write object version.  Members of
/// the chain missing from `applied` must be reported stale so repair can
/// catch them up.
struct ReplicaWriteRep {
  std::vector<std::uint32_t> applied;
  std::uint64_t version = 0;
  LWFS_CODEC(ReplicaWriteRep, applied, version)
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
  LWFS_CODEC(TxnReq, txid)
};

struct TxnVoteRep {
  bool vote = false;
  LWFS_CODEC(TxnVoteRep, vote)
};

inline constexpr rpc::OpDef kTxnPrepareOp{kOpTxnPrepare, "txn_prepare"};
inline constexpr rpc::OpDef kTxnCommitOp{kOpTxnCommit, "txn_commit"};
inline constexpr rpc::OpDef kTxnAbortOp{kOpTxnAbort, "txn_abort"};

// ---------------------------------------------------------------------------
// Storage service (control plane)
// ---------------------------------------------------------------------------

struct InvalidateCapsReq {
  std::vector<std::uint64_t> cap_ids;
  LWFS_CODEC(InvalidateCapsReq, cap_ids)
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
  LWFS_CODEC(RepairProbeReq, oids)
};

struct ReplicaProbe {
  std::uint64_t oid = 0;
  bool held = false;
  std::uint64_t version = 0;
  std::uint64_t size = 0;
  auto operator<=>(const ReplicaProbe&) const = default;
  LWFS_CODEC(ReplicaProbe, oid, held, version, size)
};

struct RepairProbeRep {
  std::vector<ReplicaProbe> probes;
  LWFS_CODEC(RepairProbeRep, probes)
};

/// Read survivor bytes for repair (they ride the reply frame to the
/// replicator).
struct RepairReadReq {
  std::uint64_t oid = 0;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  LWFS_CODEC(RepairReadReq, oid, offset, length)
};

struct RepairReadRep {
  std::uint64_t moved = 0;
  std::uint64_t version = 0;
  std::uint64_t size = 0;
  LWFS_CODEC(RepairReadRep, moved, version, size)
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
  LWFS_CODEC(RepairWriteReq, oid, cid, offset, target_version)
};

struct RepairWriteRep {
  std::uint64_t version = 0;
  LWFS_CODEC(RepairWriteRep, version)
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
  LWFS_CODEC(MkdirReq, path, recursive)
};

struct LinkReq {
  std::string path;
  storage::ObjectRef ref;
  LWFS_CODEC(LinkReq, path, ref)
};

struct StageLinkReq {
  std::uint64_t txid = 0;
  std::string path;
  storage::ObjectRef ref;
  LWFS_CODEC(StageLinkReq, txid, path, ref)
};

struct StageUnlinkReq {
  std::uint64_t txid = 0;
  std::string path;
  LWFS_CODEC(StageUnlinkReq, txid, path)
};

/// Lookup, unlink, rmdir, and list requests are all just a path.
struct PathReq {
  std::string path;
  LWFS_CODEC(PathReq, path)
};

struct ObjectRefRep {
  storage::ObjectRef ref;
  LWFS_CODEC(ObjectRefRep, ref)
};

struct RenameReq {
  std::string from;
  std::string to;
  LWFS_CODEC(RenameReq, from, to)
};

struct ListNamesRep {
  std::vector<naming::DirEntry> entries;
  LWFS_CODEC(ListNamesRep, entries)
};

/// Epoch-stamped shard-map snapshot: which nid is the active primary (and
/// which the standby) for each metadata shard.  Any live shard serves it;
/// clients refresh after a kWrongShard rejection and compare epochs.
struct ShardMapRep {
  std::uint64_t epoch = 0;
  /// (primary nid, standby nid) per shard; the standby is kInvalidNid when
  /// absent.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> shards;
  LWFS_CODEC(ShardMapRep, epoch, shards)
};

inline constexpr rpc::OpDef kNameMkdirOp{kOpNameMkdir, "name_mkdir", 0,
                                         rpc::BulkDir::kNone,
                                         rpc::Dispatch::kInline};
inline constexpr rpc::OpDef kNameLinkOp{kOpNameLink, "name_link", 0,
                                        rpc::BulkDir::kNone,
                                        rpc::Dispatch::kInline};
inline constexpr rpc::OpDef kNameStageLinkOp{kOpNameStageLink,
                                             "name_stage_link", 0,
                                             rpc::BulkDir::kNone,
                                             rpc::Dispatch::kInline};
inline constexpr rpc::OpDef kNameLookupOp{kOpNameLookup, "name_lookup", 0,
                                          rpc::BulkDir::kNone,
                                          rpc::Dispatch::kInline};
inline constexpr rpc::OpDef kNameUnlinkOp{kOpNameUnlink, "name_unlink", 0,
                                          rpc::BulkDir::kNone,
                                          rpc::Dispatch::kInline};
inline constexpr rpc::OpDef kNameRmdirOp{kOpNameRmdir, "name_rmdir"};
inline constexpr rpc::OpDef kNameRenameOp{kOpNameRename, "name_rename"};
inline constexpr rpc::OpDef kNameListOp{kOpNameList, "name_list"};
inline constexpr rpc::OpDef kNameStageUnlinkOp{kOpNameStageUnlink,
                                               "name_stage_unlink", 0,
                                               rpc::BulkDir::kNone,
                                               rpc::Dispatch::kInline};
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
  LWFS_CODEC(ReplicaPlaceReq, cid, preferred, factor)
};

/// A replica chain: ordered storage-server indices, head first.  Reply to
/// both place and lookup.
struct ReplicaChainRep {
  std::uint64_t oid = 0;
  std::uint64_t cid = 0;
  std::vector<std::uint32_t> servers;
  LWFS_CODEC(ReplicaChainRep, oid, cid, servers)
};

struct ReplicaLookupReq {
  std::uint64_t oid = 0;
  LWFS_CODEC(ReplicaLookupReq, oid)
};

/// Degraded-write report: `stale` members missed a write that committed at
/// `version` on the surviving members.  The registry records them for the
/// background replicator.
struct ReplicaReportReq {
  std::uint64_t oid = 0;
  std::uint64_t version = 0;
  std::vector<std::uint32_t> stale;
  LWFS_CODEC(ReplicaReportReq, oid, version, stale)
};

/// Replica-count audit over every registry entry.
struct ReplicaAuditRep {
  std::uint64_t objects = 0;
  std::uint64_t fully_replicated = 0;
  std::uint64_t under_replicated = 0;
  std::uint64_t stale_members = 0;
  LWFS_CODEC(ReplicaAuditRep, objects, fully_replicated, under_replicated,
             stale_members)
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
  LWFS_CODEC(LockTryReq, container, resource, start, end, exclusive)
};

struct LockIdRep {
  std::uint64_t id = 0;
  LWFS_CODEC(LockIdRep, id)
};

struct LockReleaseReq {
  std::uint64_t id = 0;
  LWFS_CODEC(LockReleaseReq, id)
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

// Wire protocol of the LWFS services.
//
// One opcode space shared by every service; each service only registers the
// handlers it owns.  Request/reply bodies are Encoder/Decoder-framed; bulk
// object data never travels in a request — writes move through the
// server-directed pull (rpc::ServerContext::PullBulkSlice) and reads ride
// the reply frame (rpc::ServerContext::PushBulkSlice).
#pragma once

#include <cstdint>

#include "rpc/rpc.h"
#include "rpc/service.h"
#include "security/types.h"
#include "storage/ids.h"
#include "storage/object_store.h"
#include "util/bytes.h"
#include "util/status.h"

namespace lwfs::core {

enum Op : rpc::Opcode {
  // Authentication service.
  kOpLogin = 1,
  kOpRevokeCred = 2,

  // Authorization service.
  kOpCreateContainer = 10,
  kOpGetCap = 11,
  kOpVerifyCap = 12,  // storage server -> authz
  kOpSetGrant = 13,
  kOpRevokeCapability = 14,
  kOpRefreshCap = 15,

  // Storage service (data plane).
  kOpObjCreate = 30,
  kOpObjWrite = 31,
  kOpObjRead = 32,
  kOpObjRemove = 33,
  kOpObjGetAttr = 34,
  kOpObjList = 35,
  kOpObjTruncate = 36,
  /// Active-storage filter: run a reduction at the server, ship the result.
  kOpObjFilter = 37,

  // Replication (storage data plane).  kOpObjCreateAt creates an object
  // under a registry-assigned id on every chain member; kOpReplicaWrite is
  // one chain hop: pull the chunk, apply locally, forward the same bytes to
  // the rest of the chain, reply only after the tail acked.
  kOpObjCreateAt = 38,
  kOpReplicaWrite = 39,

  // Storage service (control plane; sent to rpc::kControlPortal).
  kOpInvalidateCaps = 40,
  // Repair plane (control portal, service-to-service like InvalidateCaps):
  // the chunk replicator probes replica freshness and copies survivor bytes
  // onto stale members.
  kOpRepairProbe = 41,
  kOpRepairRead = 42,
  kOpRepairWrite = 43,

  // Two-phase-commit participant ops (storage and naming services).
  kOpTxnPrepare = 50,
  kOpTxnCommit = 51,
  kOpTxnAbort = 52,

  // Naming service.
  kOpNameMkdir = 60,
  kOpNameLink = 61,
  kOpNameLookup = 62,
  kOpNameUnlink = 63,
  kOpNameList = 64,
  kOpNameStageLink = 65,
  kOpNameRmdir = 66,
  kOpNameRename = 67,
  /// Stage an unlink inside a 2PC transaction (the source half of an
  /// atomic cross-shard rename; the destination shard stages the link).
  kOpNameStageUnlink = 68,
  /// Epoch-stamped shard-map snapshot; servable by any live shard, used by
  /// clients to refresh routing after a kWrongShard rejection.
  kOpNameShardMap = 69,

  // Replica registry (hosted by the naming server): placement, lookup,
  // staleness reports, and the replica-count audit.
  kOpReplicaPlace = 70,
  kOpReplicaLookup = 71,
  kOpReplicaReport = 72,
  kOpReplicaAudit = 73,

  // Lock service.
  kOpLockTry = 80,
  kOpLockRelease = 81,
};

// Every core opcode must stay inside the range the core family owns; the
// ranges themselves are proved disjoint in rpc/service.h.
static_assert(rpc::kCoreOpcodeRange.Contains(kOpLogin) &&
                  rpc::kCoreOpcodeRange.Contains(kOpRevokeCred) &&
                  rpc::kCoreOpcodeRange.Contains(kOpCreateContainer) &&
                  rpc::kCoreOpcodeRange.Contains(kOpGetCap) &&
                  rpc::kCoreOpcodeRange.Contains(kOpVerifyCap) &&
                  rpc::kCoreOpcodeRange.Contains(kOpSetGrant) &&
                  rpc::kCoreOpcodeRange.Contains(kOpRevokeCapability) &&
                  rpc::kCoreOpcodeRange.Contains(kOpRefreshCap) &&
                  rpc::kCoreOpcodeRange.Contains(kOpObjCreate) &&
                  rpc::kCoreOpcodeRange.Contains(kOpObjWrite) &&
                  rpc::kCoreOpcodeRange.Contains(kOpObjRead) &&
                  rpc::kCoreOpcodeRange.Contains(kOpObjRemove) &&
                  rpc::kCoreOpcodeRange.Contains(kOpObjGetAttr) &&
                  rpc::kCoreOpcodeRange.Contains(kOpObjList) &&
                  rpc::kCoreOpcodeRange.Contains(kOpObjTruncate) &&
                  rpc::kCoreOpcodeRange.Contains(kOpObjFilter) &&
                  rpc::kCoreOpcodeRange.Contains(kOpObjCreateAt) &&
                  rpc::kCoreOpcodeRange.Contains(kOpReplicaWrite) &&
                  rpc::kCoreOpcodeRange.Contains(kOpInvalidateCaps) &&
                  rpc::kCoreOpcodeRange.Contains(kOpRepairProbe) &&
                  rpc::kCoreOpcodeRange.Contains(kOpRepairRead) &&
                  rpc::kCoreOpcodeRange.Contains(kOpRepairWrite) &&
                  rpc::kCoreOpcodeRange.Contains(kOpTxnPrepare) &&
                  rpc::kCoreOpcodeRange.Contains(kOpTxnCommit) &&
                  rpc::kCoreOpcodeRange.Contains(kOpTxnAbort) &&
                  rpc::kCoreOpcodeRange.Contains(kOpNameMkdir) &&
                  rpc::kCoreOpcodeRange.Contains(kOpNameLink) &&
                  rpc::kCoreOpcodeRange.Contains(kOpNameLookup) &&
                  rpc::kCoreOpcodeRange.Contains(kOpNameUnlink) &&
                  rpc::kCoreOpcodeRange.Contains(kOpNameList) &&
                  rpc::kCoreOpcodeRange.Contains(kOpNameStageLink) &&
                  rpc::kCoreOpcodeRange.Contains(kOpNameRmdir) &&
                  rpc::kCoreOpcodeRange.Contains(kOpNameRename) &&
                  rpc::kCoreOpcodeRange.Contains(kOpNameStageUnlink) &&
                  rpc::kCoreOpcodeRange.Contains(kOpNameShardMap) &&
                  rpc::kCoreOpcodeRange.Contains(kOpReplicaPlace) &&
                  rpc::kCoreOpcodeRange.Contains(kOpReplicaLookup) &&
                  rpc::kCoreOpcodeRange.Contains(kOpReplicaReport) &&
                  rpc::kCoreOpcodeRange.Contains(kOpReplicaAudit) &&
                  rpc::kCoreOpcodeRange.Contains(kOpLockTry) &&
                  rpc::kCoreOpcodeRange.Contains(kOpLockRelease),
              "core opcode outside the core protocol family's range");

}  // namespace lwfs::core

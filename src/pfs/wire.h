// Typed wire messages for the traditional-PFS baseline ops.
//
// Same shape as core/wire.h: each request/reply lists its fields once with
// LWFS_CODEC (util/codec.h), and an OpDef names the opcode, metric name, and
// bulk direction.  No MDS op requires capability bits — the MDS trusts any
// client on the network and hands every opener its own capability over the
// stripe objects, the traditional-PFS trust model §5 criticizes.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "pfs/mds.h"
#include "pfs/protocol.h"
#include "rpc/service.h"
#include "security/types.h"
#include "util/codec.h"

namespace lwfs::pfs::wire {

using rpc::Void;

// ---------------------------------------------------------------------------
// Metadata server
// ---------------------------------------------------------------------------

struct PfsCreateReq {
  std::string path;
  std::uint32_t stripes = 0;
  LWFS_CODEC(PfsCreateReq, path, stripes)
};

/// Open, getattr, and unlink requests are all just a path.
struct PfsPathReq {
  std::string path;
  LWFS_CODEC(PfsPathReq, path)
};

/// Create, open and getattr reply: the file plus the MDS's capability over
/// its stripe objects.
struct FileAttrRep {
  FileAttr attr;
  security::Capability cap;
  LWFS_CODEC(FileAttrRep, attr, cap)
};

struct PfsSetSizeReq {
  std::string path;
  std::uint64_t size = 0;
  LWFS_CODEC(PfsSetSizeReq, path, size)
};

struct PfsListRep {
  std::vector<std::string> names;
  LWFS_CODEC(PfsListRep, names)
};

struct PfsLockTryReq {
  std::uint64_t ino = 0;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  bool exclusive = false;
  LWFS_CODEC(PfsLockTryReq, ino, start, end, exclusive)
};

struct PfsLockIdRep {
  std::uint64_t id = 0;
  LWFS_CODEC(PfsLockIdRep, id)
};

struct PfsLockReleaseReq {
  std::uint64_t id = 0;
  LWFS_CODEC(PfsLockReleaseReq, id)
};

inline constexpr rpc::OpDef kPfsCreateOp{kPfsCreate, "pfs_create"};
inline constexpr rpc::OpDef kPfsOpenOp{kPfsOpen, "pfs_open"};
inline constexpr rpc::OpDef kPfsUnlinkOp{kPfsUnlink, "pfs_unlink"};
inline constexpr rpc::OpDef kPfsGetAttrOp{kPfsGetAttr, "pfs_getattr"};
inline constexpr rpc::OpDef kPfsSetSizeOp{kPfsSetSize, "pfs_setsize"};
inline constexpr rpc::OpDef kPfsLockTryOp{kPfsLockTry, "pfs_lock_try"};
inline constexpr rpc::OpDef kPfsLockReleaseOp{kPfsLockRelease,
                                              "pfs_lock_release"};
inline constexpr rpc::OpDef kPfsListOp{kPfsList, "pfs_list"};

// ---------------------------------------------------------------------------
// Codec registry for table-driven tests
// ---------------------------------------------------------------------------

/// One CodecCase per pfs request/reply message (see rpc::CodecCase).
std::vector<rpc::CodecCase> PfsWireCases();

}  // namespace lwfs::pfs::wire

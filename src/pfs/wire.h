// Typed wire messages for the traditional-PFS baseline ops.
//
// Same shape as core/wire.h: each request/reply carries its own codec and an
// OpDef names the opcode, metric name, and bulk direction.  No MDS op
// requires capability bits — the MDS trusts any client on the network and
// hands every opener its own capability over the stripe objects, the
// traditional-PFS trust model §5 criticizes.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "pfs/mds.h"
#include "pfs/protocol.h"
#include "rpc/service.h"
#include "security/types.h"
#include "util/bytes.h"
#include "util/status.h"

namespace lwfs::pfs::wire {

using rpc::Void;

// ---------------------------------------------------------------------------
// Metadata server
// ---------------------------------------------------------------------------

struct PfsCreateReq {
  std::string path;
  std::uint32_t stripes = 0;

  void Encode(Encoder& enc) const {
    enc.PutString(path);
    enc.PutU32(stripes);
  }
  static Result<PfsCreateReq> Decode(Decoder& dec) {
    auto path = dec.GetString();
    auto stripes = dec.GetU32();
    if (!path.ok() || !stripes.ok()) {
      return InvalidArgument("malformed create fields");
    }
    return PfsCreateReq{std::move(*path), *stripes};
  }
};

/// Open, getattr, and unlink requests are all just a path.
struct PfsPathReq {
  std::string path;

  void Encode(Encoder& enc) const { enc.PutString(path); }
  static Result<PfsPathReq> Decode(Decoder& dec) {
    auto path = dec.GetString();
    if (!path.ok()) return path.status();
    return PfsPathReq{std::move(*path)};
  }
};

/// Create, open and getattr reply: the file plus the MDS's capability over
/// its stripe objects.
struct FileAttrRep {
  FileAttr attr;
  security::Capability cap;

  void Encode(Encoder& enc) const {
    enc.PutU64(attr.ino);
    enc.PutU64(attr.size);
    EncodeLayout(enc, attr.layout);
    cap.Encode(enc);
  }
  static Result<FileAttrRep> Decode(Decoder& dec) {
    auto ino = dec.GetU64();
    auto size = dec.GetU64();
    auto layout = DecodeLayout(dec);
    if (!ino.ok() || !size.ok() || !layout.ok()) {
      return InvalidArgument("malformed attr fields");
    }
    auto cap = security::Capability::Decode(dec);
    if (!cap.ok()) return cap.status();
    FileAttrRep rep;
    rep.attr.ino = *ino;
    rep.attr.size = *size;
    rep.attr.layout = std::move(*layout);
    rep.cap = std::move(*cap);
    return rep;
  }
};

struct PfsSetSizeReq {
  std::string path;
  std::uint64_t size = 0;

  void Encode(Encoder& enc) const {
    enc.PutString(path);
    enc.PutU64(size);
  }
  static Result<PfsSetSizeReq> Decode(Decoder& dec) {
    auto path = dec.GetString();
    auto size = dec.GetU64();
    if (!path.ok() || !size.ok()) {
      return InvalidArgument("malformed setsize fields");
    }
    return PfsSetSizeReq{std::move(*path), *size};
  }
};

struct PfsListRep {
  std::vector<std::string> names;

  void Encode(Encoder& enc) const {
    enc.PutU32(static_cast<std::uint32_t>(names.size()));
    for (const std::string& n : names) enc.PutString(n);
  }
  static Result<PfsListRep> Decode(Decoder& dec) {
    auto count = dec.GetU32();
    if (!count.ok()) return count.status();
    if (*count > dec.remaining()) {
      return InvalidArgument("name count exceeds payload");
    }
    PfsListRep rep;
    rep.names.reserve(*count);
    for (std::uint32_t i = 0; i < *count; ++i) {
      auto name = dec.GetString();
      if (!name.ok()) return name.status();
      rep.names.push_back(std::move(*name));
    }
    return rep;
  }
};

struct PfsLockTryReq {
  std::uint64_t ino = 0;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  bool exclusive = false;

  void Encode(Encoder& enc) const {
    enc.PutU64(ino);
    enc.PutU64(start);
    enc.PutU64(end);
    enc.PutBool(exclusive);
  }
  static Result<PfsLockTryReq> Decode(Decoder& dec) {
    auto ino = dec.GetU64();
    auto start = dec.GetU64();
    auto end = dec.GetU64();
    auto exclusive = dec.GetBool();
    if (!ino.ok() || !start.ok() || !end.ok() || !exclusive.ok()) {
      return InvalidArgument("malformed lock fields");
    }
    return PfsLockTryReq{*ino, *start, *end, *exclusive};
  }
};

struct PfsLockIdRep {
  std::uint64_t id = 0;

  void Encode(Encoder& enc) const { enc.PutU64(id); }
  static Result<PfsLockIdRep> Decode(Decoder& dec) {
    auto id = dec.GetU64();
    if (!id.ok()) return id.status();
    return PfsLockIdRep{*id};
  }
};

struct PfsLockReleaseReq {
  std::uint64_t id = 0;

  void Encode(Encoder& enc) const { enc.PutU64(id); }
  static Result<PfsLockReleaseReq> Decode(Decoder& dec) {
    auto id = dec.GetU64();
    if (!id.ok()) return id.status();
    return PfsLockReleaseReq{*id};
  }
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

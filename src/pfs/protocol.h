// Wire protocol of the traditional-PFS baseline's metadata server.
//
// File bytes travel the LWFS core's own storage protocol; only the MDS
// speaks this one.  Its opcode space is disjoint from the core's so both
// stacks share one fabric (and a client NIC) without ambiguity.
#pragma once

#include <cstdint>

#include "pfs/layout.h"
#include "rpc/rpc.h"
#include "rpc/service.h"
#include "util/bytes.h"
#include "util/status.h"

namespace lwfs::pfs {

enum PfsOp : rpc::Opcode {
  // Metadata server.
  kPfsCreate = 100,   // create file + stripe objects (via the MDS!)
  kPfsOpen = 101,
  kPfsUnlink = 102,
  kPfsGetAttr = 103,
  kPfsSetSize = 104,
  kPfsLockTry = 105,
  kPfsLockRelease = 106,
  kPfsList = 107,
};

// Every pfs opcode must live inside the pfs protocol family's range so the
// two stacks can never collide on a shared NIC (the core side asserts the
// mirror-image property in core/protocol.h).
static_assert(rpc::kPfsOpcodeRange.Contains(kPfsCreate) &&
                  rpc::kPfsOpcodeRange.Contains(kPfsOpen) &&
                  rpc::kPfsOpcodeRange.Contains(kPfsUnlink) &&
                  rpc::kPfsOpcodeRange.Contains(kPfsGetAttr) &&
                  rpc::kPfsOpcodeRange.Contains(kPfsSetSize) &&
                  rpc::kPfsOpcodeRange.Contains(kPfsLockTry) &&
                  rpc::kPfsOpcodeRange.Contains(kPfsLockRelease) &&
                  rpc::kPfsOpcodeRange.Contains(kPfsList),
              "pfs opcode outside the pfs protocol family's range");

inline void EncodeLayout(Encoder& enc, const Layout& layout) {
  enc.PutU32(layout.stripe_size);
  enc.PutU32(static_cast<std::uint32_t>(layout.stripes.size()));
  for (const StripeTarget& t : layout.stripes) {
    enc.PutU32(t.ost_index);
    enc.PutU64(t.oid.value);
  }
}

inline Result<Layout> DecodeLayout(Decoder& dec) {
  Layout layout;
  auto stripe_size = dec.GetU32();
  auto count = dec.GetU32();
  if (!stripe_size.ok() || !count.ok()) {
    return InvalidArgument("malformed layout");
  }
  layout.stripe_size = *stripe_size;
  // Adversarial counts must not drive allocation: each stripe entry needs
  // 12 wire bytes, so anything beyond remaining()/12 cannot parse anyway.
  if (*count > dec.remaining() / 12) {
    return InvalidArgument("layout stripe count exceeds payload");
  }
  layout.stripes.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto ost = dec.GetU32();
    auto oid = dec.GetU64();
    if (!ost.ok() || !oid.ok()) return InvalidArgument("malformed layout");
    layout.stripes.push_back(StripeTarget{*ost, storage::ObjectId{*oid}});
  }
  return layout;
}

}  // namespace lwfs::pfs

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

}  // namespace lwfs::pfs

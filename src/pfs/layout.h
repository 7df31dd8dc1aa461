// Striping arithmetic for the traditional-PFS baseline.
//
// A file is striped round-robin in `stripe_size` units across N stripe
// objects, one per storage server — the classic Lustre/PVFS layout the
// paper's baseline uses (lwfsfs reuses it).  MapExtent decomposes a byte
// extent into per-stripe-object chunks; it is pure and exhaustively
// property-tested.  StripedIo (striped_io.h) is its one I/O caller.
#pragma once

#include <cstdint>
#include <vector>

#include "storage/ids.h"
#include "util/codec.h"

namespace lwfs::pfs {

/// One stripe object of a file.
struct StripeTarget {
  std::uint32_t server = 0;  // index of the storage server holding it
  storage::ObjectId oid;
  LWFS_CODEC(StripeTarget, server, oid)
};

/// Also lwfsfs's stored inode layout: both encode it through this record.
struct Layout {
  std::uint32_t stripe_size = 1 << 20;
  std::vector<StripeTarget> stripes;
  LWFS_CODEC(Layout, stripe_size, stripes)
};

/// A piece of a file extent that lands in one stripe object.
struct StripeChunk {
  std::uint32_t stripe_index = 0;  // index into Layout::stripes
  std::uint64_t object_offset = 0; // offset within the stripe object
  std::uint64_t file_offset = 0;   // offset within the file
  std::uint64_t length = 0;
};

/// Decompose file extent [offset, offset+length) into stripe chunks, in
/// file order.
std::vector<StripeChunk> MapExtent(std::uint32_t stripe_size,
                                   std::uint32_t stripe_count,
                                   std::uint64_t offset, std::uint64_t length);

}  // namespace lwfs::pfs

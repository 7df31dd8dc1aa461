// Data sieving (references [25-27, 33] of the paper's introduction).
//
// When an application reads many small, strided fragments, issuing one I/O
// per fragment pays per-request overhead hundreds of times.  A sieving
// reader instead reads one spanning window and extracts the fragments,
// trading extra bytes on the wire for far fewer requests — profitable
// whenever the fragments are dense enough.  The density threshold and
// window cap are application policy, which is exactly the kind of knob the
// LWFS "open architecture" keeps out of the core.
#pragma once

#include <cstdint>
#include <span>
#include <utility>

#include "lwfsfs/lwfsfs.h"
#include "util/status.h"

namespace lwfs::io {

struct SieveOptions {
  /// Sieve a window when (needed bytes / window span) >= this.
  double density_threshold = 0.25;
  /// Never read a sieve window larger than this.
  std::uint64_t max_window_bytes = 8ull << 20;
};

struct SieveStats {
  std::uint64_t requests = 0;           // I/O requests issued
  std::uint64_t bytes_transferred = 0;  // bytes moved over the wire
  std::uint64_t bytes_needed = 0;       // bytes the caller asked for
  [[nodiscard]] double overhead() const {
    return bytes_needed > 0
               ? static_cast<double>(bytes_transferred) /
                     static_cast<double>(bytes_needed)
               : 0;
  }
};

/// A fragment to read: (file offset, length).
using Fragment = std::pair<std::uint64_t, std::uint64_t>;

/// Read `fragments` (must be sorted, non-overlapping) into `out`
/// back-to-back, sieving windows where profitable.  Every planned read
/// goes out in one striped list read.
Result<SieveStats> SievedRead(fs::LwfsFs& fs, fs::FileHandle& file,
                              std::span<const Fragment> fragments,
                              MutableByteSpan out,
                              const SieveOptions& options = {});

/// Baseline: one read call per fragment — what the sieving ablation
/// measures against.
Result<SieveStats> DirectRead(fs::LwfsFs& fs, fs::FileHandle& file,
                              std::span<const Fragment> fragments,
                              MutableByteSpan out);

}  // namespace lwfs::io

// Active-storage filters (§6: "I/O libraries that incorporate remote
// processing (e.g., remote filtering)" — the active-disk line of work the
// paper cites as [2, 31]).
//
// A filter runs *at the storage server* against one object's data and ships
// only the result, so a reduction over a large dataset moves kilobytes
// instead of gigabytes.  Filters operate on little-endian float64 arrays —
// the dominant payload of the scientific applications in §1.
//
// The pure filter kernels live here so they are unit-testable without a
// server; the storage server exposes them via kOpObjFilter and the client
// via Client-level helpers (see active.h).
#pragma once

#include <cstdint>
#include <utility>

#include "util/bytes.h"
#include "util/codec.h"
#include "util/status.h"

namespace lwfs::core {

enum class FilterKind : std::uint32_t {
  /// Result: 4 doubles {min, max, sum, count}.
  kMinMaxSumCount = 1,
  /// Result: every `stride`-th element (a subsampled signal).
  kSubsample = 2,
  /// Result: u64 indices of elements strictly greater than `threshold`.
  kSelectGreater = 3,
  /// Result: `bins` doubles — histogram counts over [lo, hi).
  kHistogram = 4,
};

/// Valid FilterKind values, for the codec's range check.
constexpr std::pair<FilterKind, FilterKind> CodecEnumBounds(FilterKind) {
  return {FilterKind::kMinMaxSumCount, FilterKind::kHistogram};
}

struct FilterSpec {
  FilterKind kind = FilterKind::kMinMaxSumCount;
  std::uint64_t stride = 1;   // kSubsample
  double threshold = 0;       // kSelectGreater
  double lo = 0, hi = 1;      // kHistogram range
  std::uint32_t bins = 16;    // kHistogram
  LWFS_CODEC(FilterSpec, kind, stride, threshold, lo, hi, bins)
};

/// Apply `spec` to `data` interpreted as float64 little-endian.  `data`
/// length must be a multiple of 8.  Pure.
Result<Buffer> ApplyFilter(const FilterSpec& spec, ByteSpan data);

}  // namespace lwfs::core

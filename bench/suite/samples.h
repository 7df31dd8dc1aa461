// Latency-sample summaries shared by the workloads, the probes and the
// layer table.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace lwfs::suite {

/// Nearest-rank percentile (p in [0, 1]) of `v`; sorts `v`.  0 when empty.
inline double Percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  // The epsilon keeps p = k/n from rounding up to rank k + 1.
  auto rank = static_cast<std::size_t>(std::ceil(p * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// The tail percentile a sample of `n` supports: the highest one with at
/// least ten samples beyond it, capped at `cap` (the maximum when n <= 10).
inline double TailFraction(std::size_t n, double cap = 0.99) {
  if (n <= 10) return 1.0;
  return std::min(cap, static_cast<double>(n - 10) / static_cast<double>(n));
}

inline double Median(std::vector<double> v) { return Percentile(v, 0.5); }

}  // namespace lwfs::suite

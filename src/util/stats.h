// Summary statistics used by the benchmark harnesses.
//
// The paper reports "the average and standard deviation over a minimum of 5
// trials"; RunningStats provides exactly that (Welford's algorithm).
// Latency distributions are metrics::Histogram's (util/metrics.h).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace lwfs {

/// Single-pass mean/variance accumulator (Welford).  Numerically stable; no
/// storage of samples.
class RunningStats {
 public:
  void Add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = n_ == 1 ? x : std::min(min_, x);
    max_ = n_ == 1 ? x : std::max(max_, x);
  }

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return mean_; }
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

  /// Sample variance (n-1 denominator); 0 for fewer than 2 samples.
  [[nodiscard]] double variance() const {
    return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
  }
  [[nodiscard]] double stddev() const;

  /// Merge another accumulator into this one (parallel reduction).
  void Merge(const RunningStats& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace lwfs

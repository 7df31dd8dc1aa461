#include "util/stats.h"

#include <cmath>

namespace lwfs {

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::Merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n1 = static_cast<double>(n_);
  const auto n2 = static_cast<double>(other.n_);
  const double n = n1 + n2;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  mean_ += delta * n2 / n;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

}  // namespace lwfs

#include "core/filters.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

namespace lwfs::core {

namespace {

double LoadF64(const std::uint8_t* p) {
  double v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void AppendF64(Buffer& out, double v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  out.insert(out.end(), p, p + sizeof(v));
}

void AppendU64(Buffer& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

}  // namespace

Result<Buffer> ApplyFilter(const FilterSpec& spec, ByteSpan data) {
  if (data.size() % sizeof(double) != 0) {
    return InvalidArgument("filter input is not a float64 array");
  }
  const std::uint64_t n = data.size() / sizeof(double);
  Buffer out;

  switch (spec.kind) {
    case FilterKind::kMinMaxSumCount: {
      double mn = std::numeric_limits<double>::infinity();
      double mx = -std::numeric_limits<double>::infinity();
      double sum = 0;
      for (std::uint64_t i = 0; i < n; ++i) {
        const double v = LoadF64(data.data() + i * 8);
        mn = std::min(mn, v);
        mx = std::max(mx, v);
        sum += v;
      }
      if (n == 0) mn = mx = 0;
      AppendF64(out, mn);
      AppendF64(out, mx);
      AppendF64(out, sum);
      AppendF64(out, static_cast<double>(n));
      return out;
    }

    case FilterKind::kSubsample: {
      if (spec.stride == 0) return InvalidArgument("zero subsample stride");
      out.reserve(static_cast<std::size_t>((n / spec.stride + 1) * 8));
      for (std::uint64_t i = 0; i < n; i += spec.stride) {
        AppendF64(out, LoadF64(data.data() + i * 8));
      }
      return out;
    }

    case FilterKind::kSelectGreater: {
      for (std::uint64_t i = 0; i < n; ++i) {
        if (LoadF64(data.data() + i * 8) > spec.threshold) AppendU64(out, i);
      }
      return out;
    }

    case FilterKind::kHistogram: {
      if (spec.bins == 0 || !(spec.hi > spec.lo)) {
        return InvalidArgument("bad histogram parameters");
      }
      std::vector<double> counts(spec.bins, 0.0);
      const double width = (spec.hi - spec.lo) / spec.bins;
      for (std::uint64_t i = 0; i < n; ++i) {
        const double v = LoadF64(data.data() + i * 8);
        if (v < spec.lo || v >= spec.hi) continue;
        auto bin = static_cast<std::size_t>((v - spec.lo) / width);
        if (bin >= spec.bins) bin = spec.bins - 1;  // fp edge
        counts[bin] += 1.0;
      }
      for (double c : counts) AppendF64(out, c);
      return out;
    }
  }
  return InvalidArgument("unknown filter kind");
}

}  // namespace lwfs::core

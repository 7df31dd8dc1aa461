// One metrics registry for every long-lived counter (DESIGN.md §19 names
// every cell).  A component owns a Registry (metrics::Instrumented) and
// resolves its cells once, at construction, so a hot path bumps a handle
// with relaxed atomics and never looks a name up.  Registries nest under
// dotted prefixes (`storage.3.rpc.replica.crc_drops`); a deployment total is
// a query by name over one Snapshot(), never a hand-written aggregator.
// A registry's cells live in 64-byte lines it owns, so cells of two
// components never share a cache line; children are held by shared_ptr, so
// a parent never reads a dangling cell.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lwfs::metrics {

enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

/// Histogram buckets; values of 2^40 and above land in the last one.
inline constexpr std::size_t kHistogramBuckets = 304;
[[nodiscard]] inline std::size_t BucketOf(std::uint64_t value) {
  if (value < 8) return static_cast<std::size_t>(value);
  const int top = std::bit_width(value) - 1;  // 3..63
  if (top > 39) return kHistogramBuckets - 1;
  return static_cast<std::size_t>(top - 2) * 8 + ((value >> (top - 3)) & 7);
}
/// The largest value bucket `index` holds.
[[nodiscard]] std::uint64_t BucketHigh(std::size_t index);

/// A histogram's read-out.  `buckets` is empty or kHistogramBuckets long.
struct Distribution {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::vector<std::uint64_t> buckets;

  /// Nearest-rank quantile, q in [0, 1]: the top of the rank's bucket,
  /// capped at max — at most 1/8 above the exact sample.  0 when empty.
  [[nodiscard]] std::uint64_t Quantile(double q) const;
  void Merge(const Distribution& other);
  friend bool operator==(const Distribution&, const Distribution&) = default;
};

/// One cell's read-out.  Merging adds values, takes the larger high-water
/// mark and merges distributions.
struct Value {
  Kind kind = Kind::kCounter;
  std::uint64_t value = 0;       ///< counter total, gauge value, or count
  std::uint64_t high_water = 0;  ///< gauges
  Distribution dist;             ///< histograms
  void Merge(const Value& other);
};

/// True when dotted `name` matches `pattern`, where a `*` segment matches
/// any one segment and `**` any number of them (zero included).
[[nodiscard]] bool Matches(std::string_view pattern, std::string_view name);

/// A read of a registry tree, ordered by name.
class Snapshot {
 public:
  /// Merge `value` into the cell `name`.
  void Add(std::string name, const Value& value);
  /// Counter, gauge value or histogram count of `name`; 0 when absent.
  [[nodiscard]] std::uint64_t Get(std::string_view name) const;
  /// Every cell matching `pattern`, merged into one.
  [[nodiscard]] Value Total(std::string_view pattern) const;
  [[nodiscard]] std::uint64_t Sum(std::string_view pattern) const {
    return Total(pattern).value;
  }
  /// Counters as numbers, gauges as {value, hwm}, histograms as
  /// {count, sum, max, p50, p99, p999}.
  [[nodiscard]] std::string Json() const;
  /// Not callable on a temporary, whose map would die before a loop ran.
  [[nodiscard]] const std::map<std::string, Value, std::less<>>& cells()
      const& {
    return cells_;
  }
  void cells() && = delete;

 private:
  std::map<std::string, Value, std::less<>> cells_;
};

namespace detail {

struct alignas(64) BucketArray {
  std::atomic<std::uint64_t> n[kHistogramBuckets] = {};
};

/// Every kind's storage: a counter uses `a`; a gauge `a` (value) and `b`
/// (high-water mark); a histogram `a` (count), `b` (sum), `c` (max) and
/// `buckets`, allocated on its first Record so an idle op costs 32 bytes.
struct Cell {
  std::atomic<std::uint64_t> a{0}, b{0}, c{0};
  std::atomic<BucketArray*> buckets{nullptr};
};

inline void RaiseTo(std::atomic<std::uint64_t>& cell, std::uint64_t value) {
  std::uint64_t prev = cell.load(std::memory_order_relaxed);
  while (prev < value && !cell.compare_exchange_weak(
                             prev, value, std::memory_order_relaxed)) {
  }
}

BucketArray& AllocateBuckets(Cell& cell);
inline BucketArray& Buckets(Cell& cell) {
  BucketArray* have = cell.buckets.load(std::memory_order_acquire);
  return have != nullptr ? *have : AllocateBuckets(cell);
}

}  // namespace detail

struct Counter {
  void Add(std::uint64_t n = 1) const {
    cell_->a.fetch_add(n, std::memory_order_relaxed);
  }
  /// Withdraw an optimistic Add whose operation then failed.
  void Sub(std::uint64_t n) const {
    cell_->a.fetch_sub(n, std::memory_order_relaxed);
  }
  /// The running total: a component's own accessor reads the same cell a
  /// Snapshot does.
  [[nodiscard]] std::uint64_t value() const {
    return cell_->a.load(std::memory_order_relaxed);
  }

  detail::Cell* cell_;  // owned by a Registry
};

struct Gauge {
  void Set(std::uint64_t value) const {
    cell_->a.store(value, std::memory_order_relaxed);
    detail::RaiseTo(cell_->b, value);
  }

  detail::Cell* cell_;  // owned by a Registry
};

struct Histogram {
  void Record(std::uint64_t value) const {
    cell_->a.fetch_add(1, std::memory_order_relaxed);
    cell_->b.fetch_add(value, std::memory_order_relaxed);
    detail::RaiseTo(cell_->c, value);
    detail::Buckets(*cell_).n[BucketOf(value)].fetch_add(
        1, std::memory_order_relaxed);
  }

  detail::Cell* cell_;  // owned by a Registry
};

/// Owns one component's cells and mounts its children.  Thread-safe: cells
/// may be resolved, attached, read and reset while handles are bumped.
class Registry {
 public:
  Registry() = default;
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The cell `name`, created on first use.  Resolving one name as two
  /// kinds is a wiring bug and aborts.
  [[nodiscard]] Counter counter(std::string_view name) {
    return Counter{Resolve(name, Kind::kCounter)};
  }
  [[nodiscard]] Gauge gauge(std::string_view name) {
    return Gauge{Resolve(name, Kind::kGauge)};
  }
  [[nodiscard]] Histogram histogram(std::string_view name) {
    return Histogram{Resolve(name, Kind::kHistogram)};
  }

  /// Mount `child`'s tree under `prefix` (empty: at this level).  Equal
  /// names, from one prefix attached twice, read as one merged cell.
  void Attach(std::string prefix, std::shared_ptr<Registry> child);

  [[nodiscard]] metrics::Snapshot Snapshot() const;
  void Reset();

 private:
  static constexpr std::size_t kCellsPerLine = 64 / sizeof(detail::Cell);
  struct alignas(64) Line {
    detail::Cell cells[kCellsPerLine];
  };

  detail::Cell* Resolve(std::string_view name, Kind kind);
  void ReadInto(const std::string& prefix, metrics::Snapshot& out) const;

  mutable std::mutex mu_;
  std::map<std::string, std::pair<Kind, detail::Cell*>, std::less<>> cells_;
  std::vector<std::pair<std::string, std::shared_ptr<Registry>>> children_;
  std::deque<Line> lines_;
  std::size_t line_used_ = kCellsPerLine;
};

/// Base of every component that counts: its registry, resolved into
/// handles by the component's member initializers (DESIGN.md §19 names
/// every cell).
class Instrumented {
 public:
  [[nodiscard]] const std::shared_ptr<Registry>& metrics() const {
    return metrics_;
  }

 protected:
  std::shared_ptr<Registry> metrics_ = std::make_shared<Registry>();
};

}  // namespace lwfs::metrics

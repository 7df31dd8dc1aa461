#include "util/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace lwfs::metrics {

namespace {

/// Split the next dotted segment off `s`.
std::string_view Head(std::string_view& s) {
  const std::size_t dot = s.find('.');
  const std::string_view head = s.substr(0, dot);
  s = dot == std::string_view::npos ? std::string_view() : s.substr(dot + 1);
  return head;
}

std::string U(std::uint64_t v) { return std::to_string(v); }

}  // namespace

std::uint64_t BucketHigh(std::size_t index) {
  if (index < 8) return index;
  const std::size_t shift = index / 8 - 1;
  return ((8 + index % 8 + 1) << shift) - 1;
}

std::uint64_t Distribution::Quantile(double q) const {
  if (count == 0 || buckets.empty()) return 0;
  const auto rank = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count))),
      1, count);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= rank) return std::min(BucketHigh(i), max);
  }
  return max;  // buckets read a moment before count
}

void Distribution::Merge(const Distribution& other) {
  count += other.count;
  sum += other.sum;
  max = std::max(max, other.max);
  if (buckets.empty()) buckets.resize(other.buckets.size());
  for (std::size_t i = 0; i < other.buckets.size(); ++i) {
    buckets[i] += other.buckets[i];
  }
}

void Value::Merge(const Value& other) {
  value += other.value;
  high_water = std::max(high_water, other.high_water);
  dist.Merge(other.dist);
}

bool Matches(std::string_view pattern, std::string_view name) {
  if (pattern.empty()) return name.empty();
  const std::string_view seg = Head(pattern);
  if (seg == "**") {
    for (;; Head(name)) {
      if (Matches(pattern, name)) return true;
      if (name.empty()) return false;
    }
  }
  if (name.empty()) return false;
  const std::string_view have = Head(name);
  return (seg == "*" || seg == have) && Matches(pattern, name);
}

void Snapshot::Add(std::string name, const Value& value) {
  auto [it, inserted] = cells_.try_emplace(std::move(name), value);
  if (!inserted) it->second.Merge(value);
}

std::uint64_t Snapshot::Get(std::string_view name) const {
  auto it = cells_.find(name);
  return it == cells_.end() ? 0 : it->second.value;
}

Value Snapshot::Total(std::string_view pattern) const {
  Value total;
  bool first = true;
  for (const auto& [name, value] : cells_) {
    if (!Matches(pattern, name)) continue;
    if (first) {
      total = value;
    } else {
      total.Merge(value);
    }
    first = false;
  }
  return total;
}

std::string Snapshot::Json() const {
  std::string out = "{";
  for (const auto& [name, v] : cells_) {
    out += (out.size() > 1 ? ",\n  \"" : "\n  \"") + name + "\": ";
    if (v.kind == Kind::kCounter) {
      out += U(v.value);
    } else if (v.kind == Kind::kGauge) {
      out += "{\"value\": " + U(v.value) + ", \"hwm\": " + U(v.high_water) +
             "}";
    } else {
      const Distribution& d = v.dist;
      out += "{\"count\": " + U(d.count) + ", \"sum\": " + U(d.sum) +
             ", \"max\": " + U(d.max) + ", \"p50\": " + U(d.Quantile(0.5)) +
             ", \"p99\": " + U(d.Quantile(0.99)) +
             ", \"p999\": " + U(d.Quantile(0.999)) + "}";
    }
  }
  return out + (cells_.empty() ? "}" : "\n}");
}

detail::BucketArray& detail::AllocateBuckets(Cell& cell) {
  BucketArray* have = nullptr;
  auto* fresh = new BucketArray();
  if (cell.buckets.compare_exchange_strong(have, fresh,
                                           std::memory_order_acq_rel)) {
    return *fresh;
  }
  delete fresh;  // another thread published first
  return *have;
}

Registry::~Registry() {
  for (Line& line : lines_) {
    for (detail::Cell& cell : line.cells) delete cell.buckets.load();
  }
}

detail::Cell* Registry::Resolve(std::string_view name, Kind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cells_.find(name);
  if (it == cells_.end()) {
    if (line_used_ == kCellsPerLine) {
      lines_.emplace_back();
      line_used_ = 0;
    }
    detail::Cell* cell = &lines_.back().cells[line_used_++];
    it = cells_.emplace(std::string(name), std::pair(kind, cell)).first;
  }
  if (it->second.first != kind) {
    std::fprintf(stderr, "metrics: cell '%s' resolved as two kinds\n",
                 it->first.c_str());
    std::abort();
  }
  return it->second.second;
}

void Registry::Attach(std::string prefix, std::shared_ptr<Registry> child) {
  std::lock_guard<std::mutex> lock(mu_);
  children_.emplace_back(std::move(prefix), std::move(child));
}

metrics::Snapshot Registry::Snapshot() const {
  metrics::Snapshot out;
  ReadInto("", out);
  return out;
}

void Registry::ReadInto(const std::string& prefix,
                        metrics::Snapshot& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, entry] : cells_) {
    const detail::Cell& cell = *entry.second;
    Value v;
    v.kind = entry.first;
    v.value = cell.a.load(std::memory_order_relaxed);
    if (v.kind == Kind::kGauge) {
      v.high_water = cell.b.load(std::memory_order_relaxed);
    } else if (v.kind == Kind::kHistogram) {
      v.dist.count = v.value;
      v.dist.sum = cell.b.load(std::memory_order_relaxed);
      v.dist.max = cell.c.load(std::memory_order_relaxed);
      if (const auto* b = cell.buckets.load(std::memory_order_acquire)) {
        for (const auto& n : b->n) {
          v.dist.buckets.push_back(n.load(std::memory_order_relaxed));
        }
      }
    }
    out.Add(prefix.empty() ? name : prefix + "." + name, v);
  }
  for (const auto& [child_prefix, child] : children_) {
    child->ReadInto(prefix.empty() || child_prefix.empty()
                        ? prefix + child_prefix
                        : prefix + "." + child_prefix,
                    out);
  }
}

void Registry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, entry] : cells_) {
    detail::Cell& cell = *entry.second;
    cell.a.store(0);
    cell.b.store(0);
    cell.c.store(0);
    if (detail::BucketArray* b = cell.buckets.load()) {
      for (auto& n : b->n) n.store(0);
    }
  }
  for (const auto& [prefix, child] : children_) child->Reset();
}

}  // namespace lwfs::metrics

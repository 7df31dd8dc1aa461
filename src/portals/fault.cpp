#include "portals/fault.h"

namespace lwfs::portals {

void FaultInjector::Seed(std::uint64_t seed) {
  std::lock_guard<std::mutex> lock(mutex_);
  rng_ = Rng(seed);
}

void FaultInjector::SetDefault(const FaultSpec& spec) {
  std::lock_guard<std::mutex> lock(mutex_);
  default_spec_ = spec;
  has_default_ = spec.any();
  RecomputeEnabledLocked();
}

void FaultInjector::SetLink(Nid src, Nid dst, const FaultSpec& spec) {
  std::lock_guard<std::mutex> lock(mutex_);
  // A clean spec is stored, not erased: "this link is reliable" must be able
  // to override a lossy node/default spec (most specific wins).
  link_specs_[LinkKey(src, dst)] = spec;
  RecomputeEnabledLocked();
}

void FaultInjector::SetNode(Nid node, const FaultSpec& spec) {
  std::lock_guard<std::mutex> lock(mutex_);
  node_specs_[node] = spec;
  RecomputeEnabledLocked();
}

void FaultInjector::ClearFaults() {
  std::lock_guard<std::mutex> lock(mutex_);
  has_default_ = false;
  default_spec_ = FaultSpec{};
  link_specs_.clear();
  node_specs_.clear();
  RecomputeEnabledLocked();
}

void FaultInjector::Partition(Nid a, Nid b, bool partitioned) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (partitioned) {
    partitions_.insert(PairKey(a, b));
  } else {
    partitions_.erase(PairKey(a, b));
  }
  RecomputeEnabledLocked();
}

void FaultInjector::CrashBeforeDelivery(Nid target) {
  std::lock_guard<std::mutex> lock(mutex_);
  crash_before_.insert(target);
  RecomputeEnabledLocked();
}

void FaultInjector::CrashAfterDelivery(Nid target) {
  std::lock_guard<std::mutex> lock(mutex_);
  crash_after_.insert(target);
  RecomputeEnabledLocked();
}

void FaultInjector::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  has_default_ = false;
  default_spec_ = FaultSpec{};
  link_specs_.clear();
  node_specs_.clear();
  partitions_.clear();
  crash_before_.clear();
  crash_after_.clear();
  metrics_->Reset();
  RecomputeEnabledLocked();
}

void FaultInjector::RecomputeEnabledLocked() {
  enabled_.store(has_default_ || !link_specs_.empty() || !node_specs_.empty() ||
                     !partitions_.empty() || !crash_before_.empty() ||
                     !crash_after_.empty(),
                 std::memory_order_relaxed);
}

const FaultSpec* FaultInjector::SpecForLocked(Nid src, Nid dst) const {
  auto link = link_specs_.find(LinkKey(src, dst));
  if (link != link_specs_.end()) return &link->second;
  auto node = node_specs_.find(dst);
  if (node != node_specs_.end()) return &node->second;
  node = node_specs_.find(src);
  if (node != node_specs_.end()) return &node->second;
  if (has_default_) return &default_spec_;
  return nullptr;
}

FaultInjector::Plan FaultInjector::PlanOp(Nid src, Nid dst, bool is_put) {
  if (!enabled_.load(std::memory_order_relaxed)) return {};
  std::lock_guard<std::mutex> lock(mutex_);
  Plan plan;

  // Crash triggers fire regardless of link spec: they model the node dying,
  // not the wire misbehaving.
  if (crash_before_.erase(dst) > 0) {
    plan.crash_before = true;
    crashes_.Add();
    RecomputeEnabledLocked();
    return plan;
  }
  if (crash_after_.erase(dst) > 0) {
    plan.crash_after = true;
    crashes_.Add();
    RecomputeEnabledLocked();
  }

  if (partitions_.contains(PairKey(src, dst))) {
    plan.drop = true;
    partition_drops_.Add();
    return plan;
  }

  const FaultSpec* spec = SpecForLocked(src, dst);
  if (spec == nullptr) return plan;
  if (spec->delay > 0 && rng_.NextDouble() < spec->delay) {
    plan.delay_us = spec->delay_us;
    delays_.Add();
  }
  if (spec->drop > 0 && rng_.NextDouble() < spec->drop) {
    plan.drop = true;
    drops_.Add();
    return plan;  // a lost message can't also be duplicated or corrupted
  }
  if (is_put && spec->duplicate > 0 && rng_.NextDouble() < spec->duplicate) {
    plan.duplicate = true;
    duplicates_.Add();
  }
  if (spec->corrupt > 0 && rng_.NextDouble() < spec->corrupt) {
    plan.corrupt = true;
    corruptions_.Add();
  }
  return plan;
}

void FaultInjector::CorruptSpan(MutableByteSpan data) {
  if (data.empty()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t index = rng_.NextBelow(data.size());
  data[index] ^= static_cast<std::uint8_t>(1 + rng_.NextBelow(255));
}

}  // namespace lwfs::portals

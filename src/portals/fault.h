// Deterministic fault injection for the portals fabric.
//
// The paper's robustness story (§3.2, §3.4) is that LWFS pays for failures
// in *small* messages — resends, two-phase commit, journal replay — instead
// of bulk data.  The FaultInjector makes that story testable: every Put/Get
// crossing the fabric consults it and may be dropped, duplicated, delayed,
// or payload-corrupted with per-link seeded probabilities; links can be
// partitioned outright; and one-shot "crash before/after delivery" triggers
// let tests kill a node at a precise protocol step.
//
// Semantics (chosen to exercise the *recovery* paths, not just fail fast):
//  * a dropped or partitioned Put is SILENT — the initiator sees success and
//    only the RPC reply timeout reveals the loss (lost request, lost reply,
//    and lost bulk push all look like this on a real wire);
//  * a dropped Get returns kTimeout, the retryable "no response" outcome,
//    distinct from the kUnavailable of a known-down node;
//  * corruption flips one byte of the delivered copy; wire/bulk checksums
//    in the RPC layer must turn it into kDataLoss or a retransmit;
//  * crash triggers mark the target down via Fabric::SetNodeDown, so the
//    node stays dead until a Restart() path brings it back.
//
// Default-constructed state is pass-through with zero per-message overhead
// beyond one relaxed atomic load, so the fabric's wire-pin tests see an
// unchanged message stream.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "util/bytes.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace lwfs::portals {

using Nid = std::uint32_t;  // same alias as portals.h (kept include-free)

/// Fault probabilities for one link (or node, or the whole fabric), each
/// rolled independently per message, in [0, 1].
struct FaultSpec {
  double drop = 0;       // message silently lost (Put) / times out (Get)
  double duplicate = 0;  // Put delivered twice (meaningless for Get)
  double corrupt = 0;    // one byte of the delivered payload flipped
  double delay = 0;      // delivery delayed by delay_us
  int delay_us = 200;

  [[nodiscard]] bool any() const {
    return drop > 0 || duplicate > 0 || corrupt > 0 || delay > 0;
  }
};

class FaultInjector : public metrics::Instrumented {
 public:
  FaultInjector() = default;
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Re-seed the fault stream (same seed + same message order => same
  /// fault sequence).
  void Seed(std::uint64_t seed);

  /// Faults for every link without a more specific spec.
  void SetDefault(const FaultSpec& spec);
  /// Faults for the directed link src -> dst (most specific, wins; a clean
  /// spec marks the link explicitly reliable under a lossy node/default).
  void SetLink(Nid src, Nid dst, const FaultSpec& spec);
  /// Faults for every link touching `node` in either direction (used by the
  /// chaos tests to make all *service* traffic lossy while app-internal
  /// communicators stay clean).
  void SetNode(Nid node, const FaultSpec& spec);
  /// Remove every configured spec (partitions and pending crash triggers
  /// stay; counters stay).
  void ClearFaults();

  /// Symmetric partition: while on, nothing crosses between a and b (Puts
  /// vanish silently, Gets time out).
  void Partition(Nid a, Nid b, bool partitioned);

  /// One-shot: the next message addressed to `target` finds it crashed —
  /// the message is lost and the node is marked down (caller restores it
  /// with Fabric::SetNodeDown(nid, false) after a Restart()).
  void CrashBeforeDelivery(Nid target);
  /// One-shot: the next message addressed to `target` is delivered, then
  /// the node crashes.
  void CrashAfterDelivery(Nid target);

  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Back to pass-through: clears specs, partitions, crash triggers, and
  /// counters.
  void Reset();

 private:
  friend class Nic;

  struct Plan {
    bool drop = false;
    bool duplicate = false;
    bool corrupt = false;
    bool crash_before = false;
    bool crash_after = false;
    int delay_us = 0;
  };

  /// Roll the dice for one message on src -> dst.  Cheap no-op while no
  /// fault is configured.
  Plan PlanOp(Nid src, Nid dst, bool is_put);
  /// Flip one seeded byte of `data` (the corruption payload).
  void CorruptSpan(MutableByteSpan data);

  void RecomputeEnabledLocked();
  [[nodiscard]] const FaultSpec* SpecForLocked(Nid src, Nid dst) const;
  static std::uint64_t LinkKey(Nid src, Nid dst) {
    return (static_cast<std::uint64_t>(src) << 32) | dst;
  }
  static std::uint64_t PairKey(Nid a, Nid b) {
    return a < b ? LinkKey(a, b) : LinkKey(b, a);
  }

  mutable std::mutex mutex_;
  std::atomic<bool> enabled_{false};
  Rng rng_{0x1EAF5EEDULL};
  bool has_default_ = false;
  FaultSpec default_spec_;
  std::unordered_map<std::uint64_t, FaultSpec> link_specs_;
  std::unordered_map<Nid, FaultSpec> node_specs_;
  std::unordered_set<std::uint64_t> partitions_;
  std::unordered_set<Nid> crash_before_;
  std::unordered_set<Nid> crash_after_;
  metrics::Counter drops_ = metrics_->counter("drops");
  metrics::Counter duplicates_ = metrics_->counter("duplicates");
  metrics::Counter corruptions_ = metrics_->counter("corruptions");
  metrics::Counter delays_ = metrics_->counter("delays");
  metrics::Counter partition_drops_ = metrics_->counter("partition_drops");
  metrics::Counter crashes_ = metrics_->counter("crashes");
};

}  // namespace lwfs::portals

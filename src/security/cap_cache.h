// Storage-server-side capability cache (§3.1.2).
//
// After the authorization service has verified a capability once, the
// storage server caches the verdict so subsequent requests bearing the same
// capability cost zero extra messages.  Entries are keyed by cap_id but a
// hit requires the *entire* capability (including its tag) to match the
// cached copy — a forged capability reusing a cached id never hits.
// Invalidation arrives from the authorization service through the back
// pointers it keeps (§3.1.4).
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <unordered_map>

#include "security/types.h"
#include "util/metrics.h"

namespace lwfs::security {

/// Its hit and miss tallies are the cells `hits` and `misses` of its
/// registry (the storage server mounts it as `cap_cache`).
class CapCache : public metrics::Instrumented {
 public:
  /// True iff `cap` is byte-identical to a cached, verified capability and
  /// is not expired at `now_us`.  A caller that will look the same
  /// capability up again on a miss (a request deferred to a worker) passes
  /// `count_miss = false`, so that miss is counted once.
  bool Lookup(const Capability& cap, std::int64_t now_us,
              bool count_miss = true);

  /// Record a capability that the authorization service just verified.
  void Insert(const Capability& cap);

  /// Drop entries by cap id (the revocation path).
  void Invalidate(std::span<const std::uint64_t> cap_ids);

  /// Drop everything (server restart / authz instance change).
  void Clear();

  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;
  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, Capability> entries_;
  metrics::Counter hits_ = metrics_->counter("hits");
  metrics::Counter misses_ = metrics_->counter("misses");
};

}  // namespace lwfs::security

// Byte-range read/write locks (§3.4).
//
// Locks are an *optional* LWFS client service: applications that need
// isolation (or a PFS layered above the core that needs POSIX consistency)
// acquire them; the checkpoint case study deliberately does not.  The table
// grants locks FIFO-fair per (container, resource) so writers cannot starve
// behind a stream of readers — the same discipline a Lustre DLM applies to
// extent locks, which is what makes the shared-file baseline serialize.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "storage/ids.h"
#include "util/metrics.h"
#include "util/status.h"

namespace lwfs::txn {

enum class LockMode : std::uint8_t { kShared, kExclusive };

/// A lockable entity: a resource (object, file, ...) within a container.
struct LockKey {
  std::uint64_t container = 0;
  std::uint64_t resource = 0;
  auto operator<=>(const LockKey&) const = default;
};

/// Byte range [start, end); use kWholeResource for full-resource locks.
struct LockRange {
  std::uint64_t start = 0;
  std::uint64_t end = ~0ULL;
};
inline constexpr LockRange kWholeResource{0, ~0ULL};

using LockId = std::uint64_t;
using LockOwner = std::uint64_t;  // client identity (nid or uid)

/// Counts its grants in the registry cell `grants`.
class LockTable : public metrics::Instrumented {
 public:
  /// Grant immediately or fail with kResourceExhausted ("would block").
  /// Fairness: fails when earlier waiters are queued on the same key, even
  /// if the requested range is currently free.
  Result<LockId> TryAcquire(const LockKey& key, const LockRange& range,
                            LockMode mode, LockOwner owner);

  /// Block until granted (in-process callers; RPC callers poll TryAcquire).
  LockId AcquireBlocking(const LockKey& key, const LockRange& range,
                         LockMode mode, LockOwner owner);

  Status Release(LockId id);

  /// Release everything held by `owner` (client death cleanup).
  void ReleaseAllForOwner(LockOwner owner);

  [[nodiscard]] std::size_t held_count() const;
  [[nodiscard]] std::size_t waiting_count() const;
  [[nodiscard]] std::uint64_t grants() const;

 private:
  struct Held {
    LockId id;
    LockRange range;
    LockMode mode;
    LockOwner owner;
  };
  struct Waiter {
    std::uint64_t ticket;
    LockRange range;
    LockMode mode;
    LockOwner owner;
  };
  struct KeyState {
    std::vector<Held> held;
    std::deque<Waiter> waiters;
  };

  /// True if (range, mode, owner) conflicts with a held lock.  A single
  /// owner never conflicts with itself (re-entrant by range).
  static bool ConflictsLocked(const KeyState& state, const LockRange& range,
                              LockMode mode, LockOwner owner);
  static bool Overlaps(const LockRange& a, const LockRange& b) {
    return a.start < b.end && b.start < a.end;
  }

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::uint64_t next_lock_id_ = 1;
  std::uint64_t next_ticket_ = 1;
  metrics::Counter grants_ = metrics_->counter("grants");
  std::map<LockKey, KeyState> keys_;
  std::unordered_map<LockId, LockKey> lock_index_;
};

}  // namespace lwfs::txn

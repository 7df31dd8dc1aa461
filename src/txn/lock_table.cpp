#include "txn/lock_table.h"

#include <algorithm>

namespace lwfs::txn {

bool LockTable::ConflictsLocked(const KeyState& state, const LockRange& range,
                                LockMode mode, LockOwner owner) {
  for (const Held& h : state.held) {
    if (h.owner == owner) continue;
    if (!Overlaps(h.range, range)) continue;
    if (mode == LockMode::kExclusive || h.mode == LockMode::kExclusive) {
      return true;
    }
  }
  return false;
}

Result<LockId> LockTable::TryAcquire(const LockKey& key,
                                     const LockRange& range, LockMode mode,
                                     LockOwner owner) {
  if (range.start >= range.end) return InvalidArgument("empty lock range");
  std::lock_guard<std::mutex> lock(mutex_);
  KeyState& state = keys_[key];
  // Fairness: queued waiters (other owners) go first.
  const bool blocked_by_waiter =
      std::any_of(state.waiters.begin(), state.waiters.end(),
                  [&](const Waiter& w) { return w.owner != owner; });
  if (blocked_by_waiter || ConflictsLocked(state, range, mode, owner)) {
    return ResourceExhausted("lock busy");
  }
  LockId id = next_lock_id_++;
  state.held.push_back(Held{id, range, mode, owner});
  lock_index_[id] = key;
  grants_.Add();
  return id;
}

LockId LockTable::AcquireBlocking(const LockKey& key, const LockRange& range,
                                  LockMode mode, LockOwner owner) {
  std::unique_lock<std::mutex> lock(mutex_);
  KeyState& state = keys_[key];
  const std::uint64_t ticket = next_ticket_++;
  state.waiters.push_back(Waiter{ticket, range, mode, owner});
  cv_.wait(lock, [&] {
    // Grantable when we are the frontmost waiter whose request fits.
    // (Simple FIFO: strictly wait until we are at the front, then until
    // the range is free.)
    KeyState& s = keys_[key];
    return !s.waiters.empty() && s.waiters.front().ticket == ticket &&
           !ConflictsLocked(s, range, mode, owner);
  });
  KeyState& s = keys_[key];
  s.waiters.pop_front();
  LockId id = next_lock_id_++;
  s.held.push_back(Held{id, range, mode, owner});
  lock_index_[id] = key;
  grants_.Add();
  // Another waiter may now be grantable (e.g. a shared reader behind us).
  cv_.notify_all();
  return id;
}

Status LockTable::Release(LockId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto idx = lock_index_.find(id);
  if (idx == lock_index_.end()) return NotFound("no such lock");
  KeyState& state = keys_[idx->second];
  state.held.erase(std::remove_if(state.held.begin(), state.held.end(),
                                  [&](const Held& h) { return h.id == id; }),
                   state.held.end());
  if (state.held.empty() && state.waiters.empty()) keys_.erase(idx->second);
  lock_index_.erase(idx);
  cv_.notify_all();
  return OkStatus();
}

void LockTable::ReleaseAllForOwner(LockOwner owner) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = keys_.begin(); it != keys_.end();) {
    KeyState& state = it->second;
    state.held.erase(
        std::remove_if(state.held.begin(), state.held.end(),
                       [&](const Held& h) {
                         if (h.owner != owner) return false;
                         lock_index_.erase(h.id);
                         return true;
                       }),
        state.held.end());
    state.waiters.erase(
        std::remove_if(state.waiters.begin(), state.waiters.end(),
                       [&](const Waiter& w) { return w.owner == owner; }),
        state.waiters.end());
    if (state.held.empty() && state.waiters.empty()) {
      it = keys_.erase(it);
    } else {
      ++it;
    }
  }
  cv_.notify_all();
}

std::size_t LockTable::held_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lock_index_.size();
}

std::size_t LockTable::waiting_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& [key, state] : keys_) n += state.waiters.size();
  return n;
}

std::uint64_t LockTable::grants() const { return grants_.value(); }

}  // namespace lwfs::txn

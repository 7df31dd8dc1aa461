#include "security/cap_cache.h"

namespace lwfs::security {

bool CapCache::Lookup(const Capability& cap, std::int64_t now_us,
                      bool count_miss) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(cap.cap_id);
  if (it == entries_.end()) {
    if (count_miss) misses_.Add();
    return false;
  }
  const Capability& cached = it->second;
  const bool identical = cached.cap_id == cap.cap_id && cached.cid == cap.cid &&
                         cached.ops == cap.ops && cached.uid == cap.uid &&
                         cached.instance == cap.instance &&
                         cached.expires_us == cap.expires_us &&
                         cached.tag == cap.tag;
  if (!identical || cap.expires_us <= now_us) {
    if (cap.expires_us <= now_us && identical) entries_.erase(it);
    if (count_miss) misses_.Add();
    return false;
  }
  hits_.Add();
  return true;
}

void CapCache::Insert(const Capability& cap) {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_[cap.cap_id] = cap;
}

void CapCache::Invalidate(std::span<const std::uint64_t> cap_ids) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::uint64_t id : cap_ids) entries_.erase(id);
}

void CapCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
}

std::uint64_t CapCache::hits() const { return hits_.value(); }
std::uint64_t CapCache::misses() const { return misses_.value(); }
std::size_t CapCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace lwfs::security

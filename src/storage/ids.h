// Strongly-typed identifiers for the object-storage layer.
//
// Every object belongs to exactly one container; containers are the unit of
// access control in LWFS (§3.1.1).  Strong typedefs keep the two id spaces
// from being mixed up at compile time.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>

#include "util/codec.h"

namespace lwfs::storage {

struct ContainerId {
  std::uint64_t value = 0;
  auto operator<=>(const ContainerId&) const = default;
};

struct ObjectId {
  std::uint64_t value = 0;
  auto operator<=>(const ObjectId&) const = default;
};

inline constexpr ContainerId kInvalidContainer{0};
inline constexpr ObjectId kInvalidObject{0};

/// Replicated objects carry ids allocated by the replica registry instead of
/// a store's local monotonic counter.  The registry sets this bit so the two
/// id spaces can never collide (stores count up from 1 and will never reach
/// bit 62), and so readers can tell from a bare ObjectRef whether a replica
/// chain must be looked up.
inline constexpr std::uint64_t kReplicatedOidBit = 1ULL << 62;

inline constexpr bool IsReplicatedOid(ObjectId oid) {
  return (oid.value & kReplicatedOidBit) != 0;
}

/// Fully-qualified object reference as carried in RPCs and naming entries:
/// the container pins the access-control domain, the server id pins the
/// placement, the object id pins the data.
struct ObjectRef {
  ContainerId cid;
  std::uint32_t server_index = 0;  // which storage server holds the object
  ObjectId oid;
  auto operator<=>(const ObjectRef&) const = default;
  LWFS_CODEC(ObjectRef, cid, server_index, oid)
};

}  // namespace lwfs::storage

namespace std {
template <>
struct hash<lwfs::storage::ContainerId> {
  size_t operator()(const lwfs::storage::ContainerId& c) const noexcept {
    return std::hash<std::uint64_t>{}(c.value);
  }
};
template <>
struct hash<lwfs::storage::ObjectId> {
  size_t operator()(const lwfs::storage::ObjectId& o) const noexcept {
    return std::hash<std::uint64_t>{}(o.value ^ 0x9E3779B97F4A7C15ULL);
  }
};
}  // namespace std

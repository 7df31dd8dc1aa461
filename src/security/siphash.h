// SipHash-2-4: a keyed pseudo-random function.
//
// Credentials and capabilities are "a cryptographically secure random
// number ... that can only be verified by the service that generated it"
// (§3.1.2).  We realize that with SipHash under a key that never leaves the
// issuing service — by construction the storage service cannot mint
// capabilities, which is exactly the trust property LWFS claims over the
// NASD/T10 shared-key scheme.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"
#include "util/codec.h"

namespace lwfs::security {

/// 128-bit key held privately by an issuing service.
struct SipKey {
  std::uint64_t k0 = 0;
  std::uint64_t k1 = 0;
  auto operator<=>(const SipKey&) const = default;
};

/// SipHash-2-4 of `data` under `key`.
std::uint64_t SipHash24(const SipKey& key, ByteSpan data);

/// 128-bit tag: two SipHash passes under domain-separated keys.  Tags of
/// this form are what travels inside credentials and capabilities.
struct Tag128 {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  auto operator<=>(const Tag128&) const = default;
  LWFS_CODEC(Tag128, lo, hi)
};

Tag128 SipTag(const SipKey& key, ByteSpan data);

}  // namespace lwfs::security

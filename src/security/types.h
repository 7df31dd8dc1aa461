// Credentials and capabilities (§3.1.2).
//
// A credential is proof of authentication: it names a principal, is issued
// by the authentication service, is fully transferable (any process holding
// the bytes may use it), and can only be *verified* by its issuer.
//
// A capability is proof of authorization: it entitles its holder to perform
// one class of operation on one container of objects.  Capabilities are
// opaque, fully transferable, bounded by issuer instance and expiry, and —
// unlike NASD/T10 capabilities — verifiable only by the authorization
// service that minted them (storage servers *cache* verify results instead
// of holding the signing key).
#pragma once

#include <cstdint>
#include <string>

#include "security/siphash.h"
#include "storage/ids.h"
#include "util/codec.h"
#include "util/status.h"

namespace lwfs::security {

/// Principal (user) identity as established by the external authenticator.
using Uid = std::uint64_t;
inline constexpr Uid kInvalidUid = 0;

/// Operation classes subject to access control on a container.
enum OpMask : std::uint32_t {
  kOpNone = 0,
  kOpRead = 1u << 0,    // read object data / attributes
  kOpWrite = 1u << 1,   // write object data
  kOpCreate = 1u << 2,  // create objects in the container
  kOpRemove = 1u << 3,  // remove objects from the container
  kOpManage = 1u << 4,  // change the container's access policy
  kOpAll = kOpRead | kOpWrite | kOpCreate | kOpRemove | kOpManage,
};

/// Printable form like "RW-C-" for diagnostics.
std::string OpMaskToString(std::uint32_t ops);

/// Proof of authentication.  The tag binds every visible field under the
/// authentication service's private key.
struct Credential {
  std::uint64_t cred_id = 0;   // unique per issuance
  Uid uid = kInvalidUid;       // authenticated principal
  std::uint64_t instance = 0;  // issuing service instance (epoch)
  std::int64_t expires_us = 0; // absolute expiry, microseconds
  Tag128 tag;  // last: SignedBytes() is the encoding without it

  /// The bytes covered by the tag (everything except the tag itself).
  [[nodiscard]] Buffer SignedBytes() const;
  LWFS_CODEC(Credential, cred_id, uid, instance, expires_us, tag)
};

/// Proof of authorization for `ops` on container `cid`.
struct Capability {
  std::uint64_t cap_id = 0;
  storage::ContainerId cid;
  std::uint32_t ops = kOpNone;
  Uid uid = kInvalidUid;       // principal it was issued to (informational)
  std::uint64_t instance = 0;  // issuing authorization-service instance
  std::int64_t expires_us = 0;
  Tag128 tag;  // last: SignedBytes() is the encoding without it

  [[nodiscard]] Buffer SignedBytes() const;
  LWFS_CODEC(Capability, cap_id, cid, ops, uid, instance, expires_us, tag)
};

}  // namespace lwfs::security

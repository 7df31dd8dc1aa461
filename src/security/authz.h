// Authorization service (§3.1).
//
// Manages container access-control policy, mints capabilities, verifies
// them for storage servers, and drives revocation.  Key properties from the
// paper:
//
//  * capabilities can only be verified here — storage servers never hold
//    the signing key (contrast with NASD/T10 shared-secret schemes);
//  * verify results may be cached by storage servers; this service records
//    *back pointers* (cap_id -> caching servers) so a policy change can
//    invalidate exactly the affected cache entries (§3.1.4);
//  * revocation is partial: removing write access invalidates write
//    capabilities on the container while read capabilities stay live.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "security/authn.h"
#include "security/types.h"
#include "storage/ids.h"
#include "util/metrics.h"
#include "util/status.h"

namespace lwfs::security {

/// Identifies a capability-caching entity (a storage server) for back
/// pointers and invalidation callbacks.
using ServerId = std::uint32_t;

/// The channel through which the authorization service tells a caching
/// server to drop entries.  The service runtime wires this to an RPC; tests
/// wire it to the cache object directly.
class RevocationSink {
 public:
  virtual ~RevocationSink() = default;
  virtual void InvalidateCaps(ServerId server,
                              const std::vector<std::uint64_t>& cap_ids) = 0;
};

struct AuthzOptions {
  std::int64_t capability_ttl_us = 3600LL * 1000 * 1000;
  NowFn now = SystemNowUs;
};

/// Access policy for one container: an owner plus per-uid operation grants.
struct ContainerPolicy {
  Uid owner = kInvalidUid;
  std::unordered_map<Uid, std::uint32_t> grants;
};

class AuthzService : public metrics::Instrumented {
 public:
  /// `authn` is consulted to verify credentials (and the result cached, so
  /// one authentication round trip amortizes over many getcap calls).
  AuthzService(AuthnService* authn, SipKey key, AuthzOptions options = {});

  void SetRevocationSink(RevocationSink* sink);

  // ---- Container policy --------------------------------------------------

  /// Create a container owned by the credential's principal, who receives a
  /// full grant.
  Result<storage::ContainerId> CreateContainer(const Credential& cred);

  /// Set (replace) the ops granted to `grantee` on `cid`.  Requires
  /// kOpManage.  Shrinking a grant revokes every outstanding capability
  /// whose ops are no longer covered — the "chmod" path of §3.1.4.
  Status SetGrant(const Credential& cred, storage::ContainerId cid,
                  Uid grantee, std::uint32_t ops);

  Result<ContainerPolicy> GetPolicy(const Credential& cred,
                                    storage::ContainerId cid);

  // ---- Capabilities ------------------------------------------------------

  /// Mint a capability for `ops` on `cid` (ops must be covered by the
  /// caller's grant).
  Result<Capability> GetCap(const Credential& cred, storage::ContainerId cid,
                            std::uint32_t ops);

  /// Re-issue an expired (but not revoked) capability if policy still
  /// allows — the refresh behaviour the paper faults NASD for lacking (§5).
  Result<Capability> RefreshCap(const Credential& cred, const Capability& cap);

  /// Verification entry point for storage servers.  On success the service
  /// records a back pointer (server caches the cap).
  Status VerifyForServer(ServerId server, const Capability& cap);

  /// Revoke a single capability immediately.
  Status RevokeCap(const Credential& cred, std::uint64_t cap_id);

  /// Drop a cached credential verification (wired to
  /// AuthnService::SetRevocationObserver).
  void ForgetCredential(std::uint64_t cred_id);

  // ---- Introspection (tests/benches) -------------------------------------
  [[nodiscard]] std::uint64_t instance() const { return instance_; }

 private:
  /// Verify `cred`, using the verified-credential cache (lock held).
  Result<Uid> CheckCredLocked(const Credential& cred);

  struct IssuedCap {
    storage::ContainerId cid;
    std::uint32_t ops;
    Uid uid;
    std::unordered_set<ServerId> cached_on;  // back pointers (§3.1.4)
  };

  /// Invalidate `cap_ids` everywhere they are cached.  Must be called with
  /// the lock held; the sink is invoked after releasing it.
  void RevokeLocked(std::vector<std::uint64_t> cap_ids,
                    std::vector<std::pair<ServerId, std::vector<std::uint64_t>>>*
                        notifications);

  AuthnService* const authn_;
  const SipKey key_;
  const AuthzOptions options_;
  const std::uint64_t instance_;

  mutable std::mutex mutex_;
  RevocationSink* sink_ = nullptr;
  std::uint64_t next_container_id_ = 1;
  std::uint64_t next_cap_id_ = 1;
  metrics::Counter verify_count_ = metrics_->counter("verifies");
  metrics::Counter authn_roundtrips_ = metrics_->counter("authn_roundtrips");
  metrics::Counter caps_issued_ = metrics_->counter("caps_issued");
  metrics::Counter caps_revoked_ = metrics_->counter("caps_revoked");
  std::unordered_map<storage::ContainerId, ContainerPolicy> containers_;
  std::unordered_map<std::uint64_t, IssuedCap> issued_;  // live caps
  std::unordered_set<std::uint64_t> revoked_caps_;
  std::unordered_map<std::uint64_t, Uid> verified_creds_;  // cred_id -> uid
};

}  // namespace lwfs::security

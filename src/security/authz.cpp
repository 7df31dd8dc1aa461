#include "security/authz.h"

#include <atomic>

namespace lwfs::security {

namespace {
std::uint64_t NextInstanceId() {
  static std::atomic<std::uint64_t> counter{1000};
  return counter.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

AuthzService::AuthzService(AuthnService* authn, SipKey key,
                           AuthzOptions options)
    : authn_(authn),
      key_(key),
      options_(std::move(options)),
      instance_(NextInstanceId()) {}

void AuthzService::SetRevocationSink(RevocationSink* sink) {
  std::lock_guard<std::mutex> lock(mutex_);
  sink_ = sink;
}

Result<Uid> AuthzService::CheckCredLocked(const Credential& cred) {
  auto it = verified_creds_.find(cred.cred_id);
  if (it != verified_creds_.end()) {
    // Cached verification: expiry still needs a local check.
    if (cred.expires_us <= options_.now()) {
      verified_creds_.erase(it);
      return Unauthenticated("credential expired");
    }
    if (it->second != cred.uid) return Unauthenticated("credential mismatch");
    return it->second;
  }
  // First sighting: one round trip to the authentication service (§3.1.2,
  // Figure 4-a step 2).
  authn_roundtrips_.Add();
  auto uid = authn_->Verify(cred);
  if (!uid.ok()) return uid.status();
  verified_creds_[cred.cred_id] = *uid;
  return *uid;
}

Result<storage::ContainerId> AuthzService::CreateContainer(
    const Credential& cred) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto uid = CheckCredLocked(cred);
  if (!uid.ok()) return uid.status();
  storage::ContainerId cid{next_container_id_++};
  ContainerPolicy policy;
  policy.owner = *uid;
  policy.grants[*uid] = kOpAll;
  containers_.emplace(cid, std::move(policy));
  return cid;
}

Status AuthzService::SetGrant(const Credential& cred, storage::ContainerId cid,
                              Uid grantee, std::uint32_t ops) {
  std::vector<std::pair<ServerId, std::vector<std::uint64_t>>> notifications;
  RevocationSink* sink = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto uid = CheckCredLocked(cred);
    if (!uid.ok()) return uid.status();
    auto it = containers_.find(cid);
    if (it == containers_.end()) return NotFound("no such container");
    ContainerPolicy& policy = it->second;
    auto caller_grant = policy.grants.find(*uid);
    if (caller_grant == policy.grants.end() ||
        (caller_grant->second & kOpManage) == 0) {
      return PermissionDenied("caller lacks manage rights on container");
    }
    if (ops == kOpNone) {
      policy.grants.erase(grantee);
    } else {
      policy.grants[grantee] = ops;
    }

    // Revoke outstanding capabilities of `grantee` on this container whose
    // ops are no longer fully covered by the new grant.  This is partial:
    // a read cap survives a write-only revocation.
    std::vector<std::uint64_t> victims;
    for (const auto& [cap_id, issued] : issued_) {
      if (issued.cid == cid && issued.uid == grantee &&
          (issued.ops & ~ops) != 0) {
        victims.push_back(cap_id);
      }
    }
    RevokeLocked(std::move(victims), &notifications);
    sink = sink_;
  }
  // Notify caching servers outside the lock (RPC-bound in production).
  if (sink != nullptr) {
    for (auto& [server, ids] : notifications) sink->InvalidateCaps(server, ids);
  }
  return OkStatus();
}

Result<ContainerPolicy> AuthzService::GetPolicy(const Credential& cred,
                                                storage::ContainerId cid) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto uid = CheckCredLocked(cred);
  if (!uid.ok()) return uid.status();
  auto it = containers_.find(cid);
  if (it == containers_.end()) return NotFound("no such container");
  const auto grant = it->second.grants.find(*uid);
  if (grant == it->second.grants.end()) {
    return PermissionDenied("no grant on container");
  }
  return it->second;
}

Result<Capability> AuthzService::GetCap(const Credential& cred,
                                        storage::ContainerId cid,
                                        std::uint32_t ops) {
  if (ops == kOpNone || (ops & ~kOpAll) != 0) {
    return InvalidArgument("bad op mask");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  auto uid = CheckCredLocked(cred);
  if (!uid.ok()) return uid.status();
  auto it = containers_.find(cid);
  if (it == containers_.end()) return NotFound("no such container");
  auto grant = it->second.grants.find(*uid);
  if (grant == it->second.grants.end() || (ops & ~grant->second) != 0) {
    return PermissionDenied("requested ops exceed grant");
  }

  Capability cap;
  cap.cap_id = next_cap_id_++;
  cap.cid = cid;
  cap.ops = ops;
  cap.uid = *uid;
  cap.instance = instance_;
  cap.expires_us = options_.now() + options_.capability_ttl_us;
  cap.tag = SipTag(key_, ByteSpan(cap.SignedBytes()));
  issued_.emplace(cap.cap_id, IssuedCap{cid, ops, *uid, {}});
  caps_issued_.Add();
  return cap;
}

Result<Capability> AuthzService::RefreshCap(const Credential& cred,
                                            const Capability& cap) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Integrity first: a forged capability cannot be refreshed.
    if (cap.instance != instance_) {
      return PermissionDenied("capability from another instance");
    }
    if (cap.tag != SipTag(key_, ByteSpan(cap.SignedBytes()))) {
      return PermissionDenied("capability signature mismatch");
    }
    if (revoked_caps_.contains(cap.cap_id)) {
      return PermissionDenied("capability revoked");
    }
  }
  // Re-issuance runs the full policy check, so a refresh after a policy
  // change yields exactly what the new policy allows (or a denial).
  return GetCap(cred, cap.cid, cap.ops);
}

Status AuthzService::VerifyForServer(ServerId server, const Capability& cap) {
  std::lock_guard<std::mutex> lock(mutex_);
  verify_count_.Add();
  if (cap.instance != instance_) {
    return PermissionDenied("capability from another instance");
  }
  if (cap.tag != SipTag(key_, ByteSpan(cap.SignedBytes()))) {
    return PermissionDenied("capability signature mismatch");
  }
  if (cap.expires_us <= options_.now()) {
    return PermissionDenied("capability expired");
  }
  if (revoked_caps_.contains(cap.cap_id)) {
    return PermissionDenied("capability revoked");
  }
  auto it = issued_.find(cap.cap_id);
  if (it == issued_.end()) return PermissionDenied("unknown capability");
  // Record the back pointer: `server` is about to cache this verdict.
  it->second.cached_on.insert(server);
  return OkStatus();
}

Status AuthzService::RevokeCap(const Credential& cred, std::uint64_t cap_id) {
  std::vector<std::pair<ServerId, std::vector<std::uint64_t>>> notifications;
  RevocationSink* sink = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto uid = CheckCredLocked(cred);
    if (!uid.ok()) return uid.status();
    auto it = issued_.find(cap_id);
    if (it == issued_.end()) return NotFound("no such capability");
    auto container = containers_.find(it->second.cid);
    const bool is_owner = container != containers_.end() &&
                          container->second.owner == *uid;
    if (it->second.uid != *uid && !is_owner) {
      return PermissionDenied("not the capability holder or container owner");
    }
    RevokeLocked({cap_id}, &notifications);
    sink = sink_;
  }
  if (sink != nullptr) {
    for (auto& [server, ids] : notifications) sink->InvalidateCaps(server, ids);
  }
  return OkStatus();
}

void AuthzService::RevokeLocked(
    std::vector<std::uint64_t> cap_ids,
    std::vector<std::pair<ServerId, std::vector<std::uint64_t>>>*
        notifications) {
  std::unordered_map<ServerId, std::vector<std::uint64_t>> by_server;
  for (std::uint64_t cap_id : cap_ids) {
    auto it = issued_.find(cap_id);
    if (it == issued_.end()) continue;
    for (ServerId server : it->second.cached_on) {
      by_server[server].push_back(cap_id);
    }
    issued_.erase(it);
    revoked_caps_.insert(cap_id);
    caps_revoked_.Add();
  }
  for (auto& [server, ids] : by_server) {
    notifications->emplace_back(server, std::move(ids));
  }
}

void AuthzService::ForgetCredential(std::uint64_t cred_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  verified_creds_.erase(cred_id);
}

}  // namespace lwfs::security

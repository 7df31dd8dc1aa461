#include "security/authn.h"

#include <atomic>

#include "util/clock.h"

namespace lwfs::security {

std::int64_t SystemNowUs() {
  // Monotonic microseconds on an explicit Unix epoch (RealClock anchors
  // steady readings to wall time at process start), so credential
  // issue/expiry stamps are meaningful across restarts — unlike the raw
  // steady_clock epoch this used to read, which is unspecified per boot.
  return util::RealClockInstance()->NowUs();
}

void TableAuthenticator::AddPrincipal(const std::string& name,
                                      const std::string& secret, Uid uid) {
  std::lock_guard<std::mutex> lock(mutex_);
  table_[name] = Entry{secret, uid};
}

Result<Uid> TableAuthenticator::Authenticate(const std::string& principal,
                                             const std::string& secret) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = table_.find(principal);
  if (it == table_.end() || it->second.secret != secret) {
    return Unauthenticated("unknown principal or bad secret");
  }
  return it->second.uid;
}

namespace {
std::uint64_t NextInstanceId() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

AuthnService::AuthnService(ExternalAuthenticator* external, SipKey key,
                           AuthnOptions options)
    : external_(external),
      key_(key),
      options_(std::move(options)),
      instance_(NextInstanceId()) {}

Result<Credential> AuthnService::Login(const std::string& principal,
                                       const std::string& secret) {
  auto uid = external_->Authenticate(principal, secret);
  if (!uid.ok()) return uid.status();

  Credential cred;
  cred.uid = *uid;
  cred.instance = instance_;
  cred.expires_us = options_.now() + options_.credential_ttl_us;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    cred.cred_id = next_cred_id_++;
    live_[cred.cred_id] = cred.uid;
  }
  cred.tag = SipTag(key_, ByteSpan(cred.SignedBytes()));
  return cred;
}

Result<Uid> AuthnService::Verify(const Credential& cred) {
  verify_count_.Add();
  if (cred.instance != instance_) {
    return Unauthenticated("credential from a different service instance");
  }
  if (cred.tag != SipTag(key_, ByteSpan(cred.SignedBytes()))) {
    return Unauthenticated("credential signature mismatch");
  }
  if (cred.expires_us <= options_.now()) {
    return Unauthenticated("credential expired");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (revoked_.contains(cred.cred_id)) {
    return Unauthenticated("credential revoked");
  }
  if (!live_.contains(cred.cred_id)) {
    return Unauthenticated("unknown credential");
  }
  return cred.uid;
}

Status AuthnService::Revoke(std::uint64_t cred_id) {
  std::function<void(std::uint64_t)> observer;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = live_.find(cred_id);
    if (it == live_.end()) return NotFound("no such credential");
    live_.erase(it);
    revoked_.insert(cred_id);
    observer = revocation_observer_;
  }
  if (observer) observer(cred_id);
  return OkStatus();
}

void AuthnService::RevokeAllForUid(Uid uid) {
  std::vector<std::uint64_t> victims;
  std::function<void(std::uint64_t)> observer;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = live_.begin(); it != live_.end();) {
      if (it->second == uid) {
        victims.push_back(it->first);
        revoked_.insert(it->first);
        it = live_.erase(it);
      } else {
        ++it;
      }
    }
    observer = revocation_observer_;
  }
  if (observer) {
    for (std::uint64_t id : victims) observer(id);
  }
}

void AuthnService::SetRevocationObserver(
    std::function<void(std::uint64_t)> observer) {
  std::lock_guard<std::mutex> lock(mutex_);
  revocation_observer_ = std::move(observer);
}

std::uint64_t AuthnService::verify_count() const {
  return verify_count_.value();
}

}  // namespace lwfs::security

// Authentication service (§3.1, Figure 3).
//
// Interfaces with an *external* authentication mechanism (the paper names
// Kerberos/GSS-API/SASL; we provide a pluggable interface with a
// deterministic table-backed mock) and issues transferable credentials that
// only this service can verify.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "security/types.h"
#include "util/metrics.h"
#include "util/status.h"

namespace lwfs::security {

/// Time source, injectable so tests control expiry.
using NowFn = std::function<std::int64_t()>;

/// Wall-clock microseconds (the default NowFn).
std::int64_t SystemNowUs();

/// The external mechanism the authentication server fronts (the "Kerberos"
/// box in Figure 3).
class ExternalAuthenticator {
 public:
  virtual ~ExternalAuthenticator() = default;
  /// Map (principal, secret) to a uid, or kUnauthenticated.
  virtual Result<Uid> Authenticate(const std::string& principal,
                                   const std::string& secret) = 0;
};

/// Table-backed mock of the external mechanism.
class TableAuthenticator final : public ExternalAuthenticator {
 public:
  void AddPrincipal(const std::string& name, const std::string& secret,
                    Uid uid);
  Result<Uid> Authenticate(const std::string& principal,
                           const std::string& secret) override;

 private:
  struct Entry {
    std::string secret;
    Uid uid;
  };
  std::mutex mutex_;
  std::unordered_map<std::string, Entry> table_;
};

struct AuthnOptions {
  /// Credential lifetime.
  std::int64_t credential_ttl_us = 3600LL * 1000 * 1000;
  NowFn now = SystemNowUs;
};

/// Issues and verifies credentials.  Thread-safe.  Counts its verifies
/// in the registry cell `verifies`.
class AuthnService : public metrics::Instrumented {
 public:
  AuthnService(ExternalAuthenticator* external, SipKey key,
               AuthnOptions options = {});

  /// Authenticate against the external mechanism and mint a credential.
  Result<Credential> Login(const std::string& principal,
                           const std::string& secret);

  /// Verify a credential: signature, instance, expiry, revocation.  Returns
  /// the authenticated uid.
  Result<Uid> Verify(const Credential& cred);

  /// Immediately revoke one credential (application exit, compromise).
  Status Revoke(std::uint64_t cred_id);

  /// Revoke every live credential of a principal.
  void RevokeAllForUid(Uid uid);

  /// Observer invoked with each revoked cred_id (the authorization service
  /// uses this to drop its verified-credential cache entries).
  void SetRevocationObserver(std::function<void(std::uint64_t)> observer);

  [[nodiscard]] std::uint64_t instance() const { return instance_; }
  [[nodiscard]] std::uint64_t verify_count() const;

 private:
  ExternalAuthenticator* const external_;
  const SipKey key_;
  const AuthnOptions options_;
  const std::uint64_t instance_;

  mutable std::mutex mutex_;
  std::uint64_t next_cred_id_ = 1;
  metrics::Counter verify_count_ = metrics_->counter("verifies");
  std::unordered_map<std::uint64_t, Uid> live_;  // cred_id -> uid
  std::unordered_set<std::uint64_t> revoked_;
  std::function<void(std::uint64_t)> revocation_observer_;
};

}  // namespace lwfs::security

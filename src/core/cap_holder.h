// Auto-refreshing capability holder.
//
// §5 contrasts LWFS with NASD on expiry: "NASD does not automatically
// refresh expired capabilities ... for operations like a checkpoint, with
// large gaps between file accesses, the cost of re-acquiring expired
// capabilities is still a problem."  CapHolder keeps a capability usable
// across arbitrary gaps: `Get()` returns the current capability, renewing
// it through the authorization service shortly before it expires.  A
// refresh re-runs policy, so revoked rights do not silently survive.  A
// holder given a login function also renews the credential the refresh
// presents, so a long-lived service principal outlives the credential TTL.
#pragma once

#include <functional>
#include <mutex>

#include "core/client.h"
#include "security/authn.h"
#include "security/types.h"
#include "util/metrics.h"

namespace lwfs::core {

class CapHolder : public metrics::Instrumented {
 public:
  /// Logs the holder's principal in again (on the holder's client).
  using LoginFn = std::function<Result<security::Credential>(Client&)>;

  /// `login`: renews the credential once less than `refresh_margin_us` of
  /// its lifetime remains; without one the credential is used until it
  /// expires.  `refresh_margin_us`: renew when less than this much
  /// lifetime remains.
  CapHolder(Client* client, security::Credential cred,
            security::Capability cap, security::NowFn now,
            LoginFn login = nullptr,
            std::int64_t refresh_margin_us = 5LL * 1000 * 1000)
      : client_(client),
        cred_(std::move(cred)),
        cap_(std::move(cap)),
        now_(std::move(now)),
        login_(std::move(login)),
        margin_us_(refresh_margin_us) {}

  /// Current capability, refreshed if close to expiry.  Fails if the
  /// re-login or the refresh is denied (policy changed) — callers see the
  /// denial instead of a stale capability.
  Result<security::Capability> Get() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (login_ && cred_.expires_us - now_() <= margin_us_) {
      auto cred = login_(*client_);
      if (!cred.ok()) return cred.status();
      cred_ = *cred;
      relogins_.Add();
    }
    if (cap_.expires_us - now_() > margin_us_) return cap_;
    auto fresh = client_->RefreshCap(cred_, cap_);
    if (!fresh.ok()) return fresh.status();
    cap_ = *fresh;
    refreshes_.Add();
    return cap_;
  }

 private:
  Client* client_;
  security::Credential cred_;
  security::Capability cap_;
  security::NowFn now_;
  LoginFn login_;
  std::int64_t margin_us_;
  std::mutex mutex_;
  metrics::Counter refreshes_ = metrics_->counter("refreshes");
  metrics::Counter relogins_ = metrics_->counter("relogins");
};

}  // namespace lwfs::core

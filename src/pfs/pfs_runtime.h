// In-process deployment of the traditional-PFS baseline: an MDS (plus an
// optional warm standby) layered over an LWFS core deployment, whose
// storage servers hold every stripe object.
#pragma once

#include <memory>

#include "core/runtime.h"
#include "pfs/client.h"
#include "pfs/mds_server.h"

namespace lwfs::pfs {

struct PfsRuntimeOptions {
  /// Start a warm-standby MDS next to the primary.  The pair shares a
  /// commit-before-ack MdsLog; the standby replays it and claims the
  /// namespace when a failed-over client first reaches it.
  bool mds_standby = false;
  MdsOptions mds;
  /// RPC server options of the MDS endpoints (clock defaults to the
  /// core's).
  rpc::ServerOptions mds_rpc;
};

class PfsRuntime {
 public:
  /// Start the MDS on `core`'s fabric.  The core's storage servers are the
  /// stripe targets; server count, clock and client options all come from
  /// it.  At start the MDS logs in as its own principal, creates one
  /// container and takes one kOpAll capability over it.  Primary and
  /// standby each renew that capability, and log in again, before either
  /// expires.  `core` must outlive the runtime.
  static Result<std::unique_ptr<PfsRuntime>> Start(core::ServiceRuntime* core,
                                                   PfsRuntimeOptions options);

  ~PfsRuntime();
  PfsRuntime(const PfsRuntime&) = delete;
  PfsRuntime& operator=(const PfsRuntime&) = delete;

  std::unique_ptr<PfsClient> MakeClient(
      ConsistencyMode mode = ConsistencyMode::kPosixLocking);

  [[nodiscard]] const PfsDeployment& deployment() const { return deployment_; }
  [[nodiscard]] util::Clock* clock() const { return core_->clock(); }
  [[nodiscard]] MdsService& mds() { return mds_server_->service(); }
  [[nodiscard]] MdsServer& mds_server() { return *mds_server_; }
  /// nullptr unless started with mds_standby.
  [[nodiscard]] MdsServer* mds_standby_server() {
    return mds_standby_server_.get();
  }

 private:
  PfsRuntime() = default;

  core::ServiceRuntime* core_ = nullptr;
  PfsDeployment deployment_;
  std::unique_ptr<MdsLog> mds_log_;  // shared primary -> standby
  std::unique_ptr<MdsServer> mds_server_;
  std::unique_ptr<MdsServer> mds_standby_server_;
};

}  // namespace lwfs::pfs

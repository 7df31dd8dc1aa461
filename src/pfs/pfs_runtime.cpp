#include "pfs/pfs_runtime.h"

namespace lwfs::pfs {

namespace {

// The MDS's own principal in the core's authentication service.
constexpr char kMdsPrincipal[] = "pfs-mds";
constexpr char kMdsSecret[] = "pfs-mds-secret";
constexpr security::Uid kMdsUid = 0x70667300;  // "pfs\0"

}  // namespace

Result<std::unique_ptr<PfsRuntime>> PfsRuntime::Start(
    core::ServiceRuntime* core, PfsRuntimeOptions options) {
  auto rt = std::unique_ptr<PfsRuntime>(new PfsRuntime());
  rt->core_ = core;
  if (options.mds_rpc.clock == nullptr) options.mds_rpc.clock = core->clock();

  // The MDS's access to the stripe objects: one container, one capability
  // (each MDS server renews its own copy).
  core->AddUser(kMdsPrincipal, kMdsSecret, kMdsUid);
  auto storage = core->MakeClient();
  auto cred = storage->Login(kMdsPrincipal, kMdsSecret);
  if (!cred.ok()) return cred.status();
  auto cid = storage->CreateContainer(*cred);
  if (!cid.ok()) return cid.status();
  auto cap = storage->GetCap(*cred, *cid, security::kOpAll);
  if (!cap.ok()) return cap.status();

  MdsStandbyConfig primary_cfg;
  MdsOptions primary_options = options.mds;
  if (options.mds_standby) {
    rt->mds_log_ = std::make_unique<MdsLog>();
    primary_options.oplog = rt->mds_log_.get();
    primary_cfg.active = std::make_shared<std::atomic<int>>(0);
    primary_cfg.self = 0;
  }
  const security::NowFn authz_now = core->options().authz.now;
  const core::CapHolder::LoginFn login = [](core::Client& client) {
    return client.Login(kMdsPrincipal, kMdsSecret);
  };
  rt->mds_server_ = std::make_unique<MdsServer>(
      core->fabric().CreateNic(), std::move(storage), *cred, *cap, authz_now,
      login, primary_options, options.mds_rpc, primary_cfg);
  LWFS_RETURN_IF_ERROR(rt->mds_server_->Start());

  if (options.mds_standby) {
    // The standby owns no log (nothing tails it) and replays the primary's
    // at takeover; until then every request it receives runs the takeover
    // path, so only failed-over clients can wake it.
    MdsStandbyConfig standby_cfg;
    standby_cfg.standby = true;
    standby_cfg.log = rt->mds_log_.get();
    standby_cfg.active = primary_cfg.active;
    standby_cfg.self = 1;
    rt->mds_standby_server_ = std::make_unique<MdsServer>(
        core->fabric().CreateNic(), core->MakeClient(), *cred, *cap,
        authz_now, login, options.mds, options.mds_rpc, standby_cfg);
    LWFS_RETURN_IF_ERROR(rt->mds_standby_server_->Start());
    rt->deployment_.mds_standby = rt->mds_standby_server_->nid();
  }

  rt->deployment_.mds = rt->mds_server_->nid();
  return rt;
}

PfsRuntime::~PfsRuntime() {
  if (mds_standby_server_) mds_standby_server_->Stop();
  if (mds_server_) mds_server_->Stop();
}

std::unique_ptr<PfsClient> PfsRuntime::MakeClient(ConsistencyMode mode) {
  return std::make_unique<PfsClient>(core_->MakeClient(), deployment_, mode);
}

}  // namespace lwfs::pfs

#include "core/wire.h"

namespace lwfs::core::wire {
namespace {

security::Credential SampleCredential() {
  security::Credential cred;
  cred.cred_id = 0x1122334455667788ull;
  cred.uid = 4242;
  cred.instance = 7;
  cred.expires_us = 1700000000000000;
  cred.tag.lo = 0xdeadbeefcafef00dull;
  cred.tag.hi = 0x0123456789abcdefull;
  return cred;
}

security::Capability SampleCapability() {
  security::Capability cap;
  cap.cap_id = 0x99aabbccddeeff00ull;
  cap.cid = storage::ContainerId{31337};
  cap.ops = security::kOpRead | security::kOpWrite;
  cap.uid = 4242;
  cap.instance = 3;
  cap.expires_us = 1700000000000001;
  cap.tag.lo = 0xfeedfacefeedfaceull;
  cap.tag.hi = 0x5a5a5a5a5a5a5a5aull;
  return cap;
}

storage::ObjectRef SampleRef() {
  return storage::ObjectRef{storage::ContainerId{11}, 2,
                            storage::ObjectId{907}};
}

}  // namespace

std::vector<rpc::CodecCase> CoreWireCases() {
  const security::Credential cred = SampleCredential();
  const security::Capability cap = SampleCapability();

  FilterSpec spec;
  spec.kind = FilterKind::kHistogram;
  spec.stride = 4;
  spec.threshold = 0.5;
  spec.lo = -1.0;
  spec.hi = 1.0;
  spec.bins = 32;

  ListNamesRep list_names;
  list_names.entries.push_back(naming::DirEntry{"dir", true, std::nullopt});
  list_names.entries.push_back(naming::DirEntry{"file", false, SampleRef()});

  std::vector<rpc::CodecCase> cases;
  // Authentication.
  cases.push_back(rpc::MakeCodecCase("login_req", LoginReq{"alice", "s3cret"}));
  cases.push_back(rpc::MakeCodecCase("credential_rep", CredentialRep{cred}));
  cases.push_back(
      rpc::MakeCodecCase("revoke_cred_req", RevokeCredReq{cred.cred_id}));
  // Authorization.
  cases.push_back(
      rpc::MakeCodecCase("create_container_req", CreateContainerReq{cred}));
  cases.push_back(
      rpc::MakeCodecCase("create_container_rep", CreateContainerRep{77}));
  cases.push_back(rpc::MakeCodecCase(
      "get_cap_req", GetCapReq{cred, 77, security::kOpAll}));
  cases.push_back(rpc::MakeCodecCase("capability_rep", CapabilityRep{cap}));
  cases.push_back(
      rpc::MakeCodecCase("verify_cap_req", VerifyCapReq{9, cap}));
  cases.push_back(rpc::MakeCodecCase(
      "set_grant_req", SetGrantReq{cred, 77, 5151, security::kOpRead}));
  cases.push_back(
      rpc::MakeCodecCase("revoke_cap_req", RevokeCapReq{cred, cap.cap_id}));
  cases.push_back(
      rpc::MakeCodecCase("refresh_cap_req", RefreshCapReq{cred, cap}));
  // Storage data plane.
  cases.push_back(rpc::MakeCodecCase("obj_create_req", ObjCreateReq{cap, 12}));
  cases.push_back(rpc::MakeCodecCase("obj_create_rep", ObjCreateRep{907}));
  cases.push_back(rpc::MakeCodecCase(
      "obj_write_req",
      ObjWriteReq{cap, 907, 4096, {0xDEADBEEF, 0x01020304}}));
  cases.push_back(rpc::MakeCodecCase("io_moved_rep", IoMovedRep{65536}));
  cases.push_back(
      rpc::MakeCodecCase("obj_read_req", ObjReadReq{cap, 907, 0, 65536}));
  cases.push_back(
      rpc::MakeCodecCase("obj_remove_req", ObjRemoveReq{cap, 907, 0}));
  cases.push_back(
      rpc::MakeCodecCase("obj_getattr_req", ObjGetAttrReq{cap, 907}));
  cases.push_back(rpc::MakeCodecCase(
      "obj_attr_rep",
      ObjAttrRep{storage::ObjAttr{storage::ContainerId{31337}, 65536, 3}}));
  cases.push_back(rpc::MakeCodecCase("obj_list_req", ObjListReq{cap}));
  cases.push_back(
      rpc::MakeCodecCase("obj_list_rep", ObjListRep{{1, 2, 3, 907}}));
  cases.push_back(rpc::MakeCodecCase(
      "obj_filter_req", ObjFilterReq{cap, 907, 0, 65536, spec}));
  cases.push_back(
      rpc::MakeCodecCase("obj_filter_rep", ObjFilterRep{256, 65536}));
  cases.push_back(
      rpc::MakeCodecCase("obj_truncate_req", ObjTruncateReq{cap, 907, 1024}));
  // Replication (data plane).
  cases.push_back(rpc::MakeCodecCase(
      "obj_create_at_req",
      ObjCreateAtReq{cap, storage::kReplicatedOidBit | 17, 555}));
  cases.push_back(rpc::MakeCodecCase(
      "replica_write_req",
      ReplicaWriteReq{cap, storage::kReplicatedOidBit | 17, 4096,
                      {ReplicaHop{1, 0x1001}, ReplicaHop{2, 0x1002}}}));
  cases.push_back(rpc::MakeCodecCase("replica_write_rep",
                                     ReplicaWriteRep{{0, 1, 2}, 9}));
  // Transactions.
  cases.push_back(rpc::MakeCodecCase("txn_req", TxnReq{555}));
  cases.push_back(rpc::MakeCodecCase("txn_vote_rep", TxnVoteRep{true}));
  // Control plane.
  cases.push_back(rpc::MakeCodecCase("invalidate_caps_req",
                                     InvalidateCapsReq{{cap.cap_id, 1, 2}}));
  // Repair plane.
  cases.push_back(rpc::MakeCodecCase(
      "repair_probe_req",
      RepairProbeReq{{storage::kReplicatedOidBit | 17,
                      storage::kReplicatedOidBit | 18}}));
  cases.push_back(rpc::MakeCodecCase(
      "repair_probe_rep",
      RepairProbeRep{{ReplicaProbe{storage::kReplicatedOidBit | 17, true, 4,
                                   65536},
                      ReplicaProbe{storage::kReplicatedOidBit | 18, false, 0,
                                   0}}}));
  cases.push_back(rpc::MakeCodecCase(
      "repair_read_req",
      RepairReadReq{storage::kReplicatedOidBit | 17, 0, 65536}));
  cases.push_back(rpc::MakeCodecCase("repair_read_rep",
                                     RepairReadRep{65536, 4, 131072}));
  cases.push_back(rpc::MakeCodecCase(
      "repair_write_req",
      RepairWriteReq{storage::kReplicatedOidBit | 17, 31337, 65536, 4}));
  cases.push_back(rpc::MakeCodecCase("repair_write_rep", RepairWriteRep{5}));
  // Naming.
  cases.push_back(
      rpc::MakeCodecCase("mkdir_req", MkdirReq{"/a/b/c", true}));
  cases.push_back(
      rpc::MakeCodecCase("link_req", LinkReq{"/a/b/file", SampleRef()}));
  cases.push_back(rpc::MakeCodecCase(
      "stage_link_req", StageLinkReq{555, "/a/b/file", SampleRef()}));
  cases.push_back(rpc::MakeCodecCase("path_req", PathReq{"/a/b/file"}));
  cases.push_back(
      rpc::MakeCodecCase("object_ref_rep", ObjectRefRep{SampleRef()}));
  cases.push_back(
      rpc::MakeCodecCase("rename_req", RenameReq{"/a/b/file", "/a/c"}));
  cases.push_back(rpc::MakeCodecCase("list_names_rep", list_names));
  cases.push_back(rpc::MakeCodecCase("stage_unlink_req",
                                     StageUnlinkReq{555, "/a/b/file"}));
  ShardMapRep shard_map;
  shard_map.epoch = 9;
  shard_map.shards = {{3, 7}, {4, 8}, {5, 0}, {6, 0}};
  cases.push_back(rpc::MakeCodecCase("shard_map_rep", shard_map));
  // Replica registry.
  cases.push_back(
      rpc::MakeCodecCase("replica_place_req", ReplicaPlaceReq{31337, 1, 3}));
  cases.push_back(rpc::MakeCodecCase(
      "replica_chain_rep",
      ReplicaChainRep{storage::kReplicatedOidBit | 17, 31337, {1, 2, 0}}));
  cases.push_back(rpc::MakeCodecCase(
      "replica_lookup_req", ReplicaLookupReq{storage::kReplicatedOidBit | 17}));
  cases.push_back(rpc::MakeCodecCase(
      "replica_report_req",
      ReplicaReportReq{storage::kReplicatedOidBit | 17, 4, {2}}));
  cases.push_back(
      rpc::MakeCodecCase("replica_audit_rep", ReplicaAuditRep{8, 6, 2, 3}));
  // Locks.
  cases.push_back(rpc::MakeCodecCase(
      "lock_try_req", LockTryReq{11, 907, 0, 4096, true}));
  cases.push_back(rpc::MakeCodecCase("lock_id_rep", LockIdRep{66}));
  cases.push_back(
      rpc::MakeCodecCase("lock_release_req", LockReleaseReq{66}));
  return cases;
}

}  // namespace lwfs::core::wire

#include "pfs/wire.h"

namespace lwfs::pfs::wire {

std::vector<rpc::CodecCase> PfsWireCases() {
  Layout layout;
  layout.stripe_size = 1 << 16;
  layout.stripes.push_back(StripeTarget{0, storage::ObjectId{11}});
  layout.stripes.push_back(StripeTarget{1, storage::ObjectId{12}});

  FileAttrRep attr;
  attr.attr.ino = 9001;
  attr.attr.size = 1 << 20;
  attr.attr.layout = layout;
  attr.cap.cap_id = 7;
  attr.cap.cid = storage::ContainerId{3};
  attr.cap.ops = security::kOpAll;
  attr.cap.uid = 42;
  attr.cap.expires_us = 1 << 30;

  std::vector<rpc::CodecCase> cases;
  // Metadata server.
  cases.push_back(
      rpc::MakeCodecCase("pfs_create_req", PfsCreateReq{"/data/run1", 2}));
  cases.push_back(rpc::MakeCodecCase("pfs_path_req", PfsPathReq{"/data/run1"}));
  cases.push_back(rpc::MakeCodecCase("file_attr_rep", attr));
  cases.push_back(rpc::MakeCodecCase("pfs_set_size_req",
                                     PfsSetSizeReq{"/data/run1", 1 << 20}));
  cases.push_back(rpc::MakeCodecCase("pfs_list_rep",
                                     PfsListRep{{"run1", "run2", "ckpt"}}));
  cases.push_back(rpc::MakeCodecCase(
      "pfs_lock_try_req", PfsLockTryReq{9001, 0, 65536, true}));
  cases.push_back(rpc::MakeCodecCase("pfs_lock_id_rep", PfsLockIdRep{41}));
  cases.push_back(
      rpc::MakeCodecCase("pfs_lock_release_req", PfsLockReleaseReq{41}));
  return cases;
}

}  // namespace lwfs::pfs::wire

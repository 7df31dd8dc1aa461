#include "lwfsfs/lwfsfs.h"

#include <algorithm>
#include <optional>
#include <set>

#include "core/protocol.h"

namespace lwfs::fs {

namespace {

txn::LockKey FileLockKey(const security::Capability& cap,
                         const storage::ObjectRef& inode) {
  return txn::LockKey{cap.cid.value, inode.oid.value};
}

/// Bytes of the file extent [0, size) that land in stripe `i` of
/// `stripe_count` stripes of `stripe_size` — i.e. the stripe object's size
/// implied by a file size.
std::uint64_t StripeObjectSize(std::uint64_t size, std::uint32_t stripe_size,
                               std::uint32_t stripe_count, std::uint32_t i) {
  const std::uint64_t row_bytes =
      static_cast<std::uint64_t>(stripe_size) * stripe_count;
  const std::uint64_t full_rows = size / row_bytes;
  const std::uint64_t rem = size % row_bytes;
  const std::uint64_t stripe_start = static_cast<std::uint64_t>(i) * stripe_size;
  std::uint64_t extra = 0;
  if (rem > stripe_start) {
    extra = std::min<std::uint64_t>(rem - stripe_start, stripe_size);
  }
  return full_rows * stripe_size + extra;
}

}  // namespace

Result<std::unique_ptr<LwfsFs>> LwfsFs::Mount(core::Client* client,
                                              security::Capability cap,
                                              std::string root,
                                              FsOptions options) {
  if (root.empty() || root.front() != '/') {
    return InvalidArgument("root must be an absolute naming path");
  }
  if (options.stripe_size == 0) return InvalidArgument("zero stripe size");
  auto fs = std::unique_ptr<LwfsFs>(
      new LwfsFs(client, std::move(cap), std::move(root), options));
  Status mkdir = client->Mkdir(fs->root_, /*recursive=*/true);
  if (!mkdir.ok() && mkdir.code() != ErrorCode::kAlreadyExists) return mkdir;
  return fs;
}

std::string LwfsFs::Absolute(const std::string& path) const {
  return root_ + path;
}

Status LwfsFs::Mkdir(const std::string& path) {
  return client_->Mkdir(Absolute(path));
}

Result<std::vector<std::string>> LwfsFs::Readdir(const std::string& path) {
  auto entries = client_->ListNames(Absolute(path));
  if (!entries.ok()) return entries.status();
  std::vector<std::string> names;
  names.reserve(entries->size());
  for (const naming::DirEntry& e : *entries) names.push_back(e.name);
  return names;
}

Status LwfsFs::Rename(const std::string& from, const std::string& to) {
  return client_->RenameName(Absolute(from), Absolute(to));
}

bool LwfsFs::Exists(const std::string& path) {
  return client_->LookupName(Absolute(path)).ok();
}

Status LwfsFs::WriteInode(const FileHandle& file) {
  const Buffer inode = codec::Encode(Inode{
      kInodeMagic, pfs::Layout{file.stripe_size, file.stripes}, file.size});
  return client_->WriteObject(file.inode.server_index, cap_, file.inode.oid,
                              0, ByteSpan(inode));
}

Result<FileHandle> LwfsFs::DecodeInode(const std::string& path,
                                       const storage::ObjectRef& ref) {
  auto attr = client_->GetAttr(ref.server_index, cap_, ref.oid);
  if (!attr.ok()) return attr.status();
  auto raw = core::Await(client_->ReadObjectAsync(ref.server_index, cap_,
                                                  ref.oid, {{0, attr->size}}));
  if (!raw.ok()) return raw.status();
  Decoder dec(raw->slices.front().span());
  auto inode = Inode::Decode(dec);
  if (!inode.ok()) return DataLoss("corrupt inode for " + path);
  if (inode->magic != kInodeMagic) {
    return DataLoss("bad inode magic for " + path);
  }
  FileHandle file;
  file.path = path;
  file.inode = ref;
  file.stripe_size = inode->layout.stripe_size;
  file.stripes = std::move(inode->layout.stripes);
  file.size = inode->size;
  return file;
}

Result<FileHandle> LwfsFs::Create(const std::string& path,
                                  std::uint32_t stripe_count) {
  const auto nservers =
      static_cast<std::uint32_t>(client_->storage_server_count());
  if (stripe_count == 0) stripe_count = options_.default_stripe_count;
  if (stripe_count == 0 || stripe_count > nservers) stripe_count = nservers;
  // Default policy: round-robin starting at a path-hash offset.
  const std::uint32_t base =
      static_cast<std::uint32_t>(std::hash<std::string>{}(path) % nservers);
  std::vector<std::uint32_t> servers(stripe_count);
  for (std::uint32_t i = 0; i < stripe_count; ++i) {
    servers[i] = (base + i) % nservers;
  }
  return CreateWithPlacement(path, servers);
}

Result<FileHandle> LwfsFs::CreateWithPlacement(
    const std::string& path, std::span<const std::uint32_t> servers) {
  const auto nservers =
      static_cast<std::uint32_t>(client_->storage_server_count());
  if (servers.empty()) return InvalidArgument("empty placement");
  for (std::uint32_t s : servers) {
    if (s >= nservers) return InvalidArgument("placement names unknown server");
  }

  FileHandle file;
  file.path = path;
  file.stripe_size = options_.stripe_size;
  file.size = 0;

  // Stripe objects are created directly on the storage servers — no
  // metadata server anywhere on this path.
  auto cleanup = [&] {
    for (const pfs::StripeTarget& t : file.stripes) {
      (void)client_->RemoveObject(t.server, cap_, t.oid);
    }
    if (file.inode.oid != storage::kInvalidObject) {
      (void)client_->RemoveObject(file.inode.server_index, cap_,
                                  file.inode.oid);
    }
  };
  for (std::uint32_t server : servers) {
    auto oid = client_->CreateObject(server, cap_);
    if (!oid.ok()) {
      cleanup();
      return oid.status();
    }
    file.stripes.push_back(pfs::StripeTarget{server, *oid});
  }

  const std::uint32_t inode_server = servers[0];
  auto inode_oid = client_->CreateObject(inode_server, cap_);
  if (!inode_oid.ok()) {
    cleanup();
    return inode_oid.status();
  }
  file.inode = storage::ObjectRef{cap_.cid, inode_server, *inode_oid};
  Status wrote = WriteInode(file);
  if (!wrote.ok()) {
    cleanup();
    return wrote;
  }
  Status linked = client_->LinkName(Absolute(path), file.inode);
  if (!linked.ok()) {
    cleanup();
    return linked;
  }
  return file;
}

Result<FileHandle> LwfsFs::Open(const std::string& path) {
  auto ref = client_->LookupName(Absolute(path));
  if (!ref.ok()) return ref.status();
  return DecodeInode(path, *ref);
}

Status LwfsFs::Remove(const std::string& path) {
  auto file = Open(path);
  if (!file.ok()) return file.status();
  LWFS_RETURN_IF_ERROR(client_->UnlinkName(Absolute(path)));
  for (const pfs::StripeTarget& t : file->stripes) {
    (void)client_->RemoveObject(t.server, cap_, t.oid);
  }
  return client_->RemoveObject(file->inode.server_index, cap_,
                               file->inode.oid);
}

pfs::StripedFile LwfsFs::Striped(const FileHandle& file) const {
  return pfs::StripedFile{client_, cap_, file.stripe_size, file.stripes};
}

pfs::StripedPolicy LwfsFs::Policy(FileHandle& file, bool is_read) {
  pfs::StripedPolicy policy;
  if (options_.consistency == FsConsistency::kPosix) {
    const auto mode =
        is_read ? txn::LockMode::kShared : txn::LockMode::kExclusive;
    policy.lock = [this, &file, mode](std::uint64_t start, std::uint64_t end) {
      return client_->LockBlocking(FileLockKey(cap_, file.inode), {start, end},
                                   mode);
    };
    policy.unlock = [this](txn::LockId id) { return client_->Unlock(id); };
  }
  if (is_read) {
    // Reads end at the file size (observed under the shared lock in
    // kPosix); a short chunk inside that extent is a hole.
    policy.size = [this, &file] { return Size(file); };
  } else {
    policy.written = [&file](std::uint64_t end) {
      file.size = std::max(file.size, end);
    };
  }
  return policy;
}

Result<FileIo> LwfsFs::WriteAsync(FileHandle& file,
                                  std::vector<core::WritePiece> pieces) {
  return pfs::StripedIo::Write(Striped(file), std::move(pieces),
                               Policy(file, false));
}

Result<FileIo> LwfsFs::ReadAsync(FileHandle& file,
                                 std::vector<core::ReadExtent> extents) {
  return pfs::StripedIo::Read(Striped(file), std::move(extents),
                              Policy(file, true));
}

Status LwfsFs::Truncate(FileHandle& file, std::uint64_t size) {
  std::optional<txn::LockId> lock;
  if (options_.consistency == FsConsistency::kPosix) {
    auto id = client_->LockBlocking(FileLockKey(cap_, file.inode),
                                    txn::kWholeResource,
                                    txn::LockMode::kExclusive);
    if (!id.ok()) return id.status();
    lock = *id;
  }
  Status result = OkStatus();
  const auto count = static_cast<std::uint32_t>(file.stripes.size());
  for (std::uint32_t i = 0; i < count && result.ok(); ++i) {
    result = client_->TruncateObject(
        file.stripes[i].server, cap_, file.stripes[i].oid,
        StripeObjectSize(size, file.stripe_size, count, i));
  }
  if (result.ok()) {
    file.size = size;
    result = WriteInode(file);
  }
  if (lock) {
    Status unlocked = client_->Unlock(*lock);
    if (result.ok()) result = unlocked;
  }
  return result;
}

Status LwfsFs::Flush(FileHandle& file) {
  if (options_.consistency == FsConsistency::kPosix) {
    auto id = client_->LockBlocking(FileLockKey(cap_, file.inode),
                                    txn::kWholeResource,
                                    txn::LockMode::kExclusive);
    if (!id.ok()) return id.status();
    // Merge with any size another writer already published.
    auto current = DecodeInode(file.path, file.inode);
    if (current.ok()) file.size = std::max(file.size, current->size);
    Status wrote = WriteInode(file);
    Status unlocked = client_->Unlock(*id);
    return wrote.ok() ? unlocked : wrote;
  }
  return WriteInode(file);
}

Result<std::uint64_t> LwfsFs::DerivedSize(const FileHandle& file) {
  const auto count = static_cast<std::uint32_t>(file.stripes.size());
  std::uint64_t size = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    auto attr = client_->GetAttr(file.stripes[i].server, cap_,
                                 file.stripes[i].oid);
    if (!attr.ok()) return attr.status();
    if (attr->size == 0) continue;
    const std::uint64_t last = attr->size - 1;  // last byte in stripe object
    const std::uint64_t row = last / file.stripe_size;
    const std::uint64_t in_stripe = last % file.stripe_size;
    const std::uint64_t file_offset =
        (row * count + i) * file.stripe_size + in_stripe;
    size = std::max(size, file_offset + 1);
  }
  return size;
}

Result<LwfsFs::FsckReport> LwfsFs::Fsck(bool remove_orphans) {
  FsckReport report;
  // Reachable set: (server, oid) of every inode and stripe object named
  // under the mount root.
  std::set<std::pair<std::uint32_t, std::uint64_t>> reachable;

  // Iterative namespace walk.
  std::vector<std::string> pending = {""};  // paths relative to root_
  while (!pending.empty()) {
    const std::string dir = std::move(pending.back());
    pending.pop_back();
    auto entries = client_->ListNames(root_ + dir);
    if (!entries.ok()) return entries.status();
    ++report.directories;
    for (const naming::DirEntry& entry : *entries) {
      const std::string path = dir + "/" + entry.name;
      if (entry.is_directory) {
        pending.push_back(path);
        continue;
      }
      if (!entry.ref) continue;
      auto file = DecodeInode(path, *entry.ref);
      if (!file.ok()) {
        report.broken_files.push_back(path);
        continue;
      }
      ++report.files;
      reachable.emplace(entry.ref->server_index, entry.ref->oid.value);
      for (const pfs::StripeTarget& t : file->stripes) {
        reachable.emplace(t.server, t.oid.value);
      }
    }
  }
  report.reachable_objects = reachable.size();

  // Container sweep on every storage server.
  const auto nservers =
      static_cast<std::uint32_t>(client_->storage_server_count());
  for (std::uint32_t s = 0; s < nservers; ++s) {
    auto ids = client_->ListObjects(s, cap_);
    if (!ids.ok()) return ids.status();
    for (storage::ObjectId oid : *ids) {
      if (!reachable.contains({s, oid.value})) {
        report.orphans.push_back(storage::ObjectRef{cap_.cid, s, oid});
      }
    }
  }

  if (remove_orphans) {
    for (const storage::ObjectRef& orphan : report.orphans) {
      LWFS_RETURN_IF_ERROR(
          client_->RemoveObject(orphan.server_index, cap_, orphan.oid));
    }
  }
  return report;
}

Result<std::uint64_t> LwfsFs::Size(const FileHandle& file) {
  if (options_.consistency == FsConsistency::kPosix) {
    // The inode is authoritative, but a handle that has written past it
    // sees its own writes.
    auto inode = DecodeInode(file.path, file.inode);
    if (!inode.ok()) return inode.status();
    return std::max(inode->size, file.size);
  }
  auto derived = DerivedSize(file);
  if (!derived.ok()) return derived.status();
  return std::max(*derived, file.size);
}

}  // namespace lwfs::fs

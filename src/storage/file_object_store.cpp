#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "storage/object_store.h"
#include "util/logging.h"

namespace lwfs::storage {

namespace fs = std::filesystem;

FileObjectStore::FileObjectStore(std::string directory)
    : dir_(std::move(directory)) {}

Result<std::unique_ptr<FileObjectStore>> FileObjectStore::Open(
    const std::string& directory) {
  std::error_code ec;
  fs::create_directories(directory, ec);
  if (ec) return Internal("cannot create store directory: " + ec.message());
  auto store = std::unique_ptr<FileObjectStore>(new FileObjectStore(directory));
  LWFS_RETURN_IF_ERROR(store->LoadExisting());
  return store;
}

std::string FileObjectStore::DataPath(ObjectId oid) const {
  return dir_ + "/" + std::to_string(oid.value) + ".obj";
}
std::string FileObjectStore::MetaPath(ObjectId oid) const {
  return dir_ + "/" + std::to_string(oid.value) + ".meta";
}

Status FileObjectStore::LoadExisting() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (entry.path().extension() != ".meta") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    Buffer raw((std::istreambuf_iterator<char>(in)),
               std::istreambuf_iterator<char>());
    Decoder dec(raw);
    auto meta = ObjectMeta::Decode(dec);
    if (!meta.ok()) {
      LWFS_WARN << "skipping corrupt meta file " << entry.path().string();
      continue;
    }
    attrs_[meta->oid] = meta->attr;
    next_id_ = std::max(next_id_, meta->oid.value + 1);
  }
  if (ec) return Internal("cannot scan store directory: " + ec.message());
  return OkStatus();
}

Status FileObjectStore::WriteMetaLocked(ObjectId oid, const ObjAttr& attr) {
  const Buffer meta = codec::Encode(ObjectMeta{oid, attr});
  std::ofstream out(MetaPath(oid), std::ios::binary | std::ios::trunc);
  if (!out) return Internal("cannot write meta file");
  out.write(reinterpret_cast<const char*>(meta.data()),
            static_cast<std::streamsize>(meta.size()));
  return out ? OkStatus() : Internal("meta write failed");
}

Result<ObjectId> FileObjectStore::Create(ContainerId cid) {
  if (cid == kInvalidContainer) return InvalidArgument("invalid container");
  std::lock_guard<std::mutex> lock(mutex_);
  ObjectId oid{next_id_++};
  ObjAttr attr{cid, 0, 0};
  LWFS_RETURN_IF_ERROR(WriteMetaLocked(oid, attr));
  std::ofstream(DataPath(oid), std::ios::binary | std::ios::trunc);
  attrs_[oid] = attr;
  return oid;
}

Status FileObjectStore::CreateWithId(ContainerId cid, ObjectId oid) {
  if (cid == kInvalidContainer) return InvalidArgument("invalid container");
  if (oid == kInvalidObject) return InvalidArgument("invalid object id");
  std::lock_guard<std::mutex> lock(mutex_);
  if (attrs_.contains(oid)) return AlreadyExists("object exists");
  // Replicated (bit-62) ids must not drag the local counter into their
  // id space — see MemObjectStore::CreateWithId.
  if (!IsReplicatedOid(oid)) next_id_ = std::max(next_id_, oid.value + 1);
  ObjAttr attr{cid, 0, 0};
  LWFS_RETURN_IF_ERROR(WriteMetaLocked(oid, attr));
  std::ofstream(DataPath(oid), std::ios::binary | std::ios::trunc);
  attrs_[oid] = attr;
  return OkStatus();
}

Status FileObjectStore::Remove(ObjectId oid) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = attrs_.find(oid);
  if (it == attrs_.end()) return NotFound("no such object");
  std::error_code ec;
  fs::remove(DataPath(oid), ec);
  fs::remove(MetaPath(oid), ec);
  attrs_.erase(it);
  return OkStatus();
}

Status FileObjectStore::Write(ObjectId oid, std::uint64_t offset,
                              ByteSpan data) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = attrs_.find(oid);
  if (it == attrs_.end()) return NotFound("no such object");
  std::fstream f(DataPath(oid),
                 std::ios::binary | std::ios::in | std::ios::out);
  if (!f) return Internal("cannot open object file");
  // Extend with zeros up to `offset` if writing past EOF.
  if (offset > it->second.size) {
    f.seekp(0, std::ios::end);
    Buffer zeros(offset - it->second.size, 0);
    f.write(reinterpret_cast<const char*>(zeros.data()),
            static_cast<std::streamsize>(zeros.size()));
  }
  f.seekp(static_cast<std::streamoff>(offset));
  // The store-medium copy: the write path's one budgeted copy.
  LWFS_COUNT_COPY(util::CopyKind::kStore, data.size());
  f.write(reinterpret_cast<const char*>(data.data()),
          static_cast<std::streamsize>(data.size()));
  if (!f) return Internal("object write failed");
  f.close();
  it->second.size = std::max(it->second.size, offset + data.size());
  ++it->second.version;
  return WriteMetaLocked(oid, it->second);
}

Result<Buffer> FileObjectStore::Read(ObjectId oid, std::uint64_t offset,
                                     std::uint64_t length) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = attrs_.find(oid);
  if (it == attrs_.end()) return NotFound("no such object");
  if (offset >= it->second.size) return Buffer{};
  const std::uint64_t n = std::min(length, it->second.size - offset);
  std::ifstream f(DataPath(oid), std::ios::binary);
  if (!f) return Internal("cannot open object file");
  f.seekg(static_cast<std::streamoff>(offset));
  // Medium -> host buffer: the read path's one budgeted copy.
  LWFS_COUNT_COPY(util::CopyKind::kStore, n);
  Buffer out(n, 0);
  f.read(reinterpret_cast<char*>(out.data()), static_cast<std::streamsize>(n));
  out.resize(static_cast<std::size_t>(f.gcount()));
  return out;
}

Status FileObjectStore::Truncate(ObjectId oid, std::uint64_t size) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = attrs_.find(oid);
  if (it == attrs_.end()) return NotFound("no such object");
  std::error_code ec;
  fs::resize_file(DataPath(oid), size, ec);
  if (ec) return Internal("truncate failed: " + ec.message());
  it->second.size = size;
  ++it->second.version;
  return WriteMetaLocked(oid, it->second);
}

Result<ObjAttr> FileObjectStore::GetAttr(ObjectId oid) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = attrs_.find(oid);
  if (it == attrs_.end()) return NotFound("no such object");
  return it->second;
}

Status FileObjectStore::SetVersion(ObjectId oid, std::uint64_t version) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = attrs_.find(oid);
  if (it == attrs_.end()) return NotFound("no such object");
  if (version <= it->second.version) return OkStatus();
  ObjAttr attr = it->second;
  attr.version = version;
  LWFS_RETURN_IF_ERROR(WriteMetaLocked(oid, attr));
  it->second = attr;
  return OkStatus();
}

Result<std::vector<ObjectId>> FileObjectStore::List(ContainerId cid) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ObjectId> out;
  for (const auto& [oid, attr] : attrs_) {
    if (attr.cid == cid) out.push_back(oid);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<std::vector<ObjectId>> FileObjectStore::ListAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ObjectId> out;
  out.reserve(attrs_.size());
  for (const auto& [oid, attr] : attrs_) out.push_back(oid);
  std::sort(out.begin(), out.end());
  return out;
}

Status FileObjectStore::Sync() {
  // Streams are closed per-operation; nothing buffered at this layer.
  return OkStatus();
}

std::uint64_t FileObjectStore::ObjectCount() {
  std::lock_guard<std::mutex> lock(mutex_);
  return attrs_.size();
}

}  // namespace lwfs::storage

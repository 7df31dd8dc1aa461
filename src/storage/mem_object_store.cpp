#include <algorithm>
#include <cstring>

#include "storage/object_store.h"
#include "util/buffer_pool.h"
#include "util/crc32.h"

namespace lwfs::storage {

namespace {

// What holes and undefined extent tails read as: gathers point those ranges
// here instead of materializing zeros.  Never written, so its pages stay the
// kernel's shared zero page.
const std::uint8_t* ZeroExtent() {
  alignas(64) static std::uint8_t zeros[MemObjectStore::kExtentBytes];
  return zeros;
}

}  // namespace

MemObjectStore::MemObjectStore()
    : read_pool_(util::ReadBufferPool::Create()) {}

Result<ObjectId> MemObjectStore::Create(ContainerId cid) {
  if (cid == kInvalidContainer) return InvalidArgument("invalid container");
  std::lock_guard<std::mutex> lock(mutex_);
  ObjectId oid{next_id_++};
  objects_.emplace(oid, Object{cid, 0, 0, {}});
  return oid;
}

Status MemObjectStore::CreateWithId(ContainerId cid, ObjectId oid) {
  if (cid == kInvalidContainer) return InvalidArgument("invalid container");
  if (oid == kInvalidObject) return InvalidArgument("invalid object id");
  std::lock_guard<std::mutex> lock(mutex_);
  if (objects_.contains(oid)) return AlreadyExists("object exists");
  // Registry-allocated replicated ids live in their own (bit-62) id space;
  // letting one drag next_id_ past the bit would make plain Create() mint
  // ids that *look* replicated.
  if (!IsReplicatedOid(oid)) next_id_ = std::max(next_id_, oid.value + 1);
  objects_.emplace(oid, Object{cid, 0, 0, {}});
  return OkStatus();
}

Status MemObjectStore::Remove(ObjectId oid) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = objects_.find(oid);
  if (it == objects_.end()) return NotFound("no such object");
  ReleaseExtentsLocked(it->second, 0);
  objects_.erase(it);
  return OkStatus();
}

MemObjectStore::ExtentMem MemObjectStore::TakeExtentLocked() {
  if (free_extents_.empty()) {
    // Uninitialized on purpose: only an extent's defined prefix is read.
    return ExtentMem(new std::uint8_t[kExtentBytes]);
  }
  ExtentMem mem = std::move(free_extents_.back());
  free_extents_.pop_back();
  return mem;
}

void MemObjectStore::RetireExtentLocked(ExtentMem mem) {
  if (mem && free_extents_.size() < kMaxFreeExtents) {
    free_extents_.push_back(std::move(mem));
  }
}

void MemObjectStore::ReleaseExtentsLocked(Object& obj, std::size_t first) {
  for (std::size_t i = first; i < obj.extents.size(); ++i) {
    RetireExtentLocked(std::move(obj.extents[i].mem));
  }
  if (first < obj.extents.size()) obj.extents.resize(first);
}

void MemObjectStore::CopyIntoLocked(ExtentSlot& ext, std::size_t lo,
                                    const std::uint8_t* src, std::size_t len) {
  if (!ext.mem) ext.mem = TakeExtentLocked();
  // A gap between the defined prefix and this write must read as zero.
  if (lo > ext.valid) std::memset(ext.mem.get() + ext.valid, 0, lo - ext.valid);
  std::memcpy(ext.mem.get() + lo, src, len);
  ext.valid = std::max(ext.valid, lo + len);
}

std::vector<ByteSpan> MemObjectStore::GatherLocked(const Object& obj,
                                                   std::uint64_t offset,
                                                   std::uint64_t n) {
  std::vector<ByteSpan> parts;
  parts.reserve(static_cast<std::size_t>(2 * (n / kExtentBytes) + 4));
  for (std::uint64_t pos = offset, end = offset + n; pos < end;) {
    const auto idx = static_cast<std::size_t>(pos / kExtentBytes);
    const auto lo = static_cast<std::size_t>(pos % kExtentBytes);
    const auto len = static_cast<std::size_t>(
        std::min<std::uint64_t>(kExtentBytes - lo, end - pos));
    std::size_t defined = 0;
    if (idx < obj.extents.size() && obj.extents[idx].mem) {
      const ExtentSlot& ext = obj.extents[idx];
      defined = ext.valid > lo ? std::min(len, ext.valid - lo) : 0;
      if (defined > 0) parts.emplace_back(ext.mem.get() + lo, defined);
    }
    if (defined < len) parts.emplace_back(ZeroExtent(), len - defined);
    pos += len;
  }
  return parts;
}

Status MemObjectStore::Write(ObjectId oid, std::uint64_t offset,
                             ByteSpan data) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = objects_.find(oid);
  if (it == objects_.end()) return NotFound("no such object");
  Object& obj = it->second;
  const std::uint64_t end = offset + data.size();
  if (!data.empty()) {
    const auto last = static_cast<std::size_t>((end - 1) / kExtentBytes);
    if (obj.extents.size() <= last) obj.extents.resize(last + 1);
    // The store-medium copy: the write path's one budgeted copy.
    LWFS_COUNT_COPY(util::CopyKind::kStore, data.size());
    const std::uint8_t* src = data.data();
    for (std::uint64_t pos = offset; pos < end;) {
      const auto len = static_cast<std::size_t>(PieceLength(pos, end));
      CopyIntoLocked(obj.extents[static_cast<std::size_t>(pos / kExtentBytes)],
                     static_cast<std::size_t>(pos % kExtentBytes), src, len);
      src += len;
      pos += len;
    }
  }
  obj.size = std::max(obj.size, end);
  ++obj.version;
  return OkStatus();
}

Result<StagedWrite> MemObjectStore::Stage(
    ObjectId oid, std::uint64_t offset, const util::SharedSlice& data,
    std::span<const std::uint32_t> crcs) {
  LWFS_RETURN_IF_ERROR(detail::CheckPieceCrcs(offset, data.size(), crcs));
  StagedWrite staged{oid, offset, data, {}};
  const std::uint64_t end = offset + data.size();
  // Whole-extent pieces: one extent each, taken up front.
  std::size_t whole = 0;
  for (std::uint64_t pos = offset; pos < end;) {
    const std::uint64_t len = PieceLength(pos, end);
    if (len == kExtentBytes) ++whole;
    pos += len;
  }
  if (whole > 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < whole; ++i) {
      staged.extents.push_back(TakeExtentLocked());
    }
  }

  // Outside the lock, one pass per byte: a whole extent is copied into its
  // unpublished extent with the CRC fused into the copy; a partial piece
  // is only checksummed here, and Publish copies it in place.
  std::vector<std::uint32_t> have;
  have.reserve(PieceCount(offset, data.size()));
  const std::uint8_t* src = data.data();
  std::size_t next = 0;
  for (std::uint64_t pos = offset; pos < end;) {
    const auto len = static_cast<std::size_t>(PieceLength(pos, end));
    if (len == kExtentBytes) {
      have.push_back(Crc32Final(Crc32CopyUpdate(
          Crc32Init(), staged.extents[next++].get(), src, len)));
    } else {
      LWFS_COUNT_CRC(util::CrcSide::kServer, len);
      have.push_back(Crc32(ByteSpan(src, len)));
    }
    src += len;
    pos += len;
  }
  Status verified = detail::MatchPieceCrcs(offset, data.size(), have, crcs);
  if (!verified.ok()) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (ExtentMem& mem : staged.extents) RetireExtentLocked(std::move(mem));
    return verified;
  }
  return staged;
}

Status MemObjectStore::Publish(StagedWrite staged) {
  if (staged.data.empty()) return Write(staged.oid, staged.offset, {});
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = objects_.find(staged.oid);
  if (it == objects_.end()) {
    for (ExtentMem& mem : staged.extents) RetireExtentLocked(std::move(mem));
    return NotFound("no such object");
  }
  Object& obj = it->second;
  const std::uint64_t end = staged.offset + staged.data.size();
  const auto last = static_cast<std::size_t>((end - 1) / kExtentBytes);
  if (obj.extents.size() <= last) obj.extents.resize(last + 1);
  // The store-medium copy: the write path's one budgeted copy (for whole
  // extents it ran in Stage, fused with the check).
  LWFS_COUNT_COPY(util::CopyKind::kStore, staged.data.size());
  const std::uint8_t* src = staged.data.data();
  std::size_t next = 0;
  for (std::uint64_t pos = staged.offset; pos < end;) {
    const auto len = static_cast<std::size_t>(PieceLength(pos, end));
    ExtentSlot& ext = obj.extents[static_cast<std::size_t>(pos / kExtentBytes)];
    if (len == kExtentBytes) {
      RetireExtentLocked(std::move(ext.mem));
      ext.mem = std::move(staged.extents[next++]);
      ext.valid = kExtentBytes;
    } else {
      CopyIntoLocked(ext, static_cast<std::size_t>(pos % kExtentBytes), src,
                     len);
    }
    src += len;
    pos += len;
  }
  obj.size = std::max(obj.size, end);
  ++obj.version;
  return OkStatus();
}

Result<Buffer> MemObjectStore::Read(ObjectId oid, std::uint64_t offset,
                                    std::uint64_t length) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = objects_.find(oid);
  if (it == objects_.end()) return NotFound("no such object");
  const Object& obj = it->second;
  if (offset >= obj.size) return Buffer{};
  const std::uint64_t n = std::min<std::uint64_t>(length, obj.size - offset);
  // Medium -> host buffer: the read path's one budgeted copy.
  LWFS_COUNT_COPY(util::CopyKind::kStore, n);
  Buffer out;
  out.reserve(static_cast<std::size_t>(n));
  for (ByteSpan part : GatherLocked(obj, offset, n)) {
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

Result<util::SharedSlice> MemObjectStore::ReadSlice(ObjectId oid,
                                                    std::uint64_t offset,
                                                    std::uint64_t length) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = objects_.find(oid);
  if (it == objects_.end()) return NotFound("no such object");
  const Object& obj = it->second;
  const std::uint64_t n =
      offset < obj.size ? std::min<std::uint64_t>(length, obj.size - offset)
                        : 0;
  if (n == 0) return util::SharedSlice::FromBuffer(Buffer{});
  // Medium -> pooled host buffer: the read path's one budgeted copy.
  return read_pool_->CopyOut(GatherLocked(obj, offset, n),
                             util::CopyKind::kStore);
}

Status MemObjectStore::Truncate(ObjectId oid, std::uint64_t size) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = objects_.find(oid);
  if (it == objects_.end()) return NotFound("no such object");
  Object& obj = it->second;
  if (size < obj.size) {
    const auto keep =
        static_cast<std::size_t>((size + kExtentBytes - 1) / kExtentBytes);
    ReleaseExtentsLocked(obj, keep);
    // The cut extent's bytes past the new size leave its defined prefix, so
    // a later grow reads zeros there.
    if (keep > 0 && keep <= obj.extents.size()) {
      ExtentSlot& cut = obj.extents[keep - 1];
      cut.valid = std::min(
          cut.valid, static_cast<std::size_t>(size - (keep - 1) * kExtentBytes));
    }
  }
  obj.size = size;
  ++obj.version;
  return OkStatus();
}

Result<ObjAttr> MemObjectStore::GetAttr(ObjectId oid) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = objects_.find(oid);
  if (it == objects_.end()) return NotFound("no such object");
  return ObjAttr{it->second.cid, it->second.size, it->second.version};
}

Status MemObjectStore::SetVersion(ObjectId oid, std::uint64_t version) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = objects_.find(oid);
  if (it == objects_.end()) return NotFound("no such object");
  it->second.version = std::max(it->second.version, version);
  return OkStatus();
}

Result<std::vector<ObjectId>> MemObjectStore::List(ContainerId cid) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ObjectId> out;
  for (const auto& [oid, obj] : objects_) {
    if (obj.cid == cid) out.push_back(oid);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<std::vector<ObjectId>> MemObjectStore::ListAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ObjectId> out;
  out.reserve(objects_.size());
  for (const auto& [oid, obj] : objects_) out.push_back(oid);
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t MemObjectStore::ObjectCount() {
  std::lock_guard<std::mutex> lock(mutex_);
  return objects_.size();
}

std::size_t MemObjectStore::FreeExtents() {
  std::lock_guard<std::mutex> lock(mutex_);
  return free_extents_.size();
}

}  // namespace lwfs::storage

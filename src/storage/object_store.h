// Object store: the mechanism half of an object-based storage device.
//
// The store knows nothing about users or policy — authorization is enforced
// one layer up by the LWFS storage *server* (src/core/storage_server.h),
// which checks capabilities before touching the store.  This split is the
// "policy decisions vs. policy enforcement" separation of Figure 7.
//
// Three backends:
//  * MemObjectStore    — fixed-size extents in memory, recycled across
//                        objects (tests, benches).
//  * BlockObjectStore  — objects mapped onto a flat block device through
//                        BlockAllocator; block-layout decisions live here,
//                        exactly where §3.3 says an OBD makes them.
//  * FileObjectStore   — one file per object under a directory; durable
//                        across process restarts (checkpoint/restart demo).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/block_allocator.h"
#include "storage/ids.h"
#include "util/bytes.h"
#include "util/codec.h"
#include "util/shared_buffer.h"
#include "util/status.h"

namespace lwfs::util {
class ReadBufferPool;
}  // namespace lwfs::util

namespace lwfs::storage {

/// Largest object a storage server accepts: no write, read or truncate may
/// reach past this offset.  Backends size per-object tables by the highest
/// offset touched, so one tiny request far past EOF must not get to them.
inline constexpr std::uint64_t kMaxObjectBytes = 1ull << 40;  // 1 TiB

/// Most bytes one read request may ask a storage server for: the server
/// materializes a read whole before it replies, so a longer request is
/// refused and the client splits long reads into requests of this size.
inline constexpr std::uint64_t kMaxReadBytes = 64ull << 20;  // 64 MiB

/// Write-integrity granularity, and MemObjectStore's extent size.  A write
/// payload is checked in *pieces*, cut wherever the object offset crosses
/// a multiple of kExtentBytes: the client sends one CRC per piece
/// (PieceCrcs), and a store's verified write lands no byte of a payload
/// whose pieces do not match (ObjectStore::Stage).
inline constexpr std::size_t kExtentBytes = 1u << 20;

/// Length of the piece that starts at object offset `pos` of a payload
/// ending at `end` (pos < end).
inline std::uint64_t PieceLength(std::uint64_t pos, std::uint64_t end) {
  return std::min<std::uint64_t>(kExtentBytes - pos % kExtentBytes,
                                 end - pos);
}

/// Number of pieces of a `length`-byte payload written at `offset`.
[[nodiscard]] std::size_t PieceCount(std::uint64_t offset,
                                     std::uint64_t length);

/// One CRC32 per piece of `data` written at `offset`, in one pass over the
/// bytes.
[[nodiscard]] std::vector<std::uint32_t> PieceCrcs(std::uint64_t offset,
                                                   ByteSpan data);

/// The CRC32 of a whole payload folded from its piece CRCs with
/// Crc32Combine — no pass over the bytes.  `crcs` holds one per piece.
[[nodiscard]] std::uint32_t CombinePieceCrcs(
    std::uint64_t offset, std::uint64_t length,
    std::span<const std::uint32_t> crcs);

namespace detail {
/// `want` holds one CRC per piece of a `length`-byte payload at `offset`,
/// or one CRC of all of it (kInvalidArgument otherwise).
Status CheckPieceCrcs(std::uint64_t offset, std::uint64_t length,
                      std::span<const std::uint32_t> want);
/// The verified-write check: the payload whose piece CRCs are `have`
/// matches `want` (as CheckPieceCrcs accepted it), else kDataLoss.
Status MatchPieceCrcs(std::uint64_t offset, std::uint64_t length,
                      std::span<const std::uint32_t> have,
                      std::span<const std::uint32_t> want);
}  // namespace detail

/// A write payload that ObjectStore::Stage checked and staged, and that
/// Publish lands.  Move-only; dropping it lands nothing.
struct StagedWrite {
  ObjectId oid;
  std::uint64_t offset = 0;
  util::SharedSlice data;
  /// MemObjectStore: the payload's whole-extent pieces, already copied
  /// into extents no reader can see, in offset order.
  std::vector<std::unique_ptr<std::uint8_t[]>> extents;
};

/// Per-object attributes.
struct ObjAttr {
  ContainerId cid;
  std::uint64_t size = 0;     // highest byte written + 1
  std::uint64_t version = 0;  // bumped on every write/truncate
  LWFS_CODEC(ObjAttr, cid, size, version)
};

/// Abstract object store.  All implementations are thread-safe.
class ObjectStore {
 public:
  virtual ~ObjectStore() = default;

  /// Create an empty object in `cid`; the store assigns the id.
  virtual Result<ObjectId> Create(ContainerId cid) = 0;

  /// Create an object with a caller-chosen id (used on recovery replay).
  virtual Status CreateWithId(ContainerId cid, ObjectId oid) = 0;

  /// Remove an object and release its storage.
  virtual Status Remove(ObjectId oid) = 0;

  /// Write `data` at `offset`, extending the object as needed.
  virtual Status Write(ObjectId oid, std::uint64_t offset, ByteSpan data) = 0;

  /// Slice write — the zero-copy path's terminal call.  The store's copy
  /// of the payload into its own medium (counted as CopyKind::kStore) is
  /// the write path's single budgeted copy; NullObjectStore performs none.
  /// The default forwards to Write().
  virtual Status WriteSlice(ObjectId oid, std::uint64_t offset,
                            const util::SharedSlice& data) {
    return Write(oid, offset, data.span());
  }

  /// Verified write, first half — the storage server's path for payload
  /// bytes a client writes or a repair sends.  `crcs` holds one CRC per
  /// piece of `data` (PieceCrcs), or a single CRC of all of it (what a
  /// chain hop or a repair carries).  Checks every byte and stages the
  /// payload; a mismatch fails with kDataLoss and stages nothing, so a
  /// corrupt payload never becomes readable.  Runs outside the server's
  /// medium order (no lock held across the pass over the bytes).  The
  /// default checks each piece with a standalone CRC pass;
  /// MemObjectStore fuses the check into its store copy.
  virtual Result<StagedWrite> Stage(ObjectId oid, std::uint64_t offset,
                                    const util::SharedSlice& data,
                                    std::span<const std::uint32_t> crcs);

  /// Verified write, second half: land a staged payload as one write (one
  /// version bump).  The default is WriteSlice; MemObjectStore swaps in
  /// the staged extents and copies partial pieces in place.
  virtual Status Publish(StagedWrite staged);

  /// Stage then Publish.
  Status WriteVerified(ObjectId oid, std::uint64_t offset,
                       const util::SharedSlice& data,
                       std::span<const std::uint32_t> crcs);

  /// Read up to `length` bytes from `offset`.  Reads beyond EOF return a
  /// short (possibly empty) buffer; holes read as zero.
  virtual Result<Buffer> Read(ObjectId oid, std::uint64_t offset,
                              std::uint64_t length) = 0;

  /// Slice read — the zero-copy read path's origin.  Returns a ref-counted
  /// slice backed by store memory; the store's copy out of its own medium
  /// (counted as CopyKind::kStore) is the read path's single budgeted copy,
  /// and every layer above hands the same bytes along by reference.  Reads
  /// beyond EOF return a short (possibly empty) slice; holes read as zero.
  /// The default forwards to Read() and adopts the buffer without a second
  /// copy.
  virtual Result<util::SharedSlice> ReadSlice(ObjectId oid,
                                              std::uint64_t offset,
                                              std::uint64_t length) {
    auto data = Read(oid, offset, length);
    if (!data.ok()) return data.status();
    return util::SharedSlice::FromBuffer(std::move(*data));
  }

  /// Truncate the object to `size` bytes (grow fills with zeros).
  virtual Status Truncate(ObjectId oid, std::uint64_t size) = 0;

  virtual Result<ObjAttr> GetAttr(ObjectId oid) = 0;

  /// Raise the object's version to `version` (no-op if already past it).
  /// Versions count applied writes, so two replicas that saw the same
  /// write sequence agree — but a repair rebuilds a member with fewer,
  /// larger writes, and the final repair chunk uses this to bring the
  /// member's version up to its source's.  Data bytes are untouched.
  virtual Status SetVersion(ObjectId oid, std::uint64_t version) = 0;

  /// Ids of all live objects in a container (unspecified order).
  virtual Result<std::vector<ObjectId>> List(ContainerId cid) = 0;

  /// Ids of all live objects across every container, ascending.  Restart
  /// re-registration walks this to report surviving replicated objects to
  /// the replica registry.  Backends that cannot enumerate report failure.
  virtual Result<std::vector<ObjectId>> ListAll() {
    return FailedPrecondition("store cannot enumerate objects");
  }

  /// Flush to stable storage where the backend supports it.
  virtual Status Sync() { return OkStatus(); }

  /// Number of live objects (all containers).
  virtual std::uint64_t ObjectCount() = 0;
};

/// In-memory store: each object is a table of fixed-size extents, and a
/// null extent is a hole that reads as zero.  Writing never moves bytes
/// already stored (no regrow-and-copy) and never zero-fills a range it is
/// about to overwrite.  Extents released by Remove/Truncate go to a bounded
/// per-store free list, so steady-state writes (a checkpoint replacing the
/// last one) land on pages that are already faulted in.
///
/// Each extent records the length of its defined prefix; bytes past it read
/// as zero.  So a recycled extent never shows its previous owner's bytes, a
/// shrinking Truncate only lowers the mark, and a small object touches only
/// the pages it wrote.
///
/// A verified write of a whole extent is *published on verify*: Stage
/// copies its piece into a fresh or recycled extent no reader can see, with
/// the CRC fused into that copy, and Publish swaps the extent into the
/// object's slot.  Partial-extent pieces are checked by Stage and copied in
/// place by Publish.
class MemObjectStore final : public ObjectStore {
 public:
  static constexpr std::size_t kExtentBytes = storage::kExtentBytes;
  /// Free-list bound: as much retired memory as the read pool keeps.
  static constexpr std::size_t kMaxFreeExtents = (64u << 20) / kExtentBytes;

  MemObjectStore();

  Result<ObjectId> Create(ContainerId cid) override;
  Status CreateWithId(ContainerId cid, ObjectId oid) override;
  Status Remove(ObjectId oid) override;
  Status Write(ObjectId oid, std::uint64_t offset, ByteSpan data) override;
  /// One pass per byte: whole extents are copied and checked together,
  /// then published (see the class comment).
  Result<StagedWrite> Stage(ObjectId oid, std::uint64_t offset,
                            const util::SharedSlice& data,
                            std::span<const std::uint32_t> crcs) override;
  Status Publish(StagedWrite staged) override;
  Result<Buffer> Read(ObjectId oid, std::uint64_t offset,
                      std::uint64_t length) override;
  /// Overrides the adopt-a-Read default: gathers the extents into a pooled
  /// block so steady-state slice reads land on warm pages (see
  /// util/buffer_pool.h) instead of paying a fresh multi-megabyte
  /// allocation per read.  Still exactly one budgeted kStore copy.
  Result<util::SharedSlice> ReadSlice(ObjectId oid, std::uint64_t offset,
                                      std::uint64_t length) override;
  Status Truncate(ObjectId oid, std::uint64_t size) override;
  Result<ObjAttr> GetAttr(ObjectId oid) override;
  Status SetVersion(ObjectId oid, std::uint64_t version) override;
  Result<std::vector<ObjectId>> List(ContainerId cid) override;
  Result<std::vector<ObjectId>> ListAll() override;
  std::uint64_t ObjectCount() override;

  /// Extents on the free list — test/introspection hook.
  [[nodiscard]] std::size_t FreeExtents();

 private:
  using ExtentMem = std::unique_ptr<std::uint8_t[]>;

  struct ExtentSlot {
    ExtentMem mem;          // null: a hole
    std::size_t valid = 0;  // bytes [0, valid) are defined; the rest read 0
  };

  struct Object {
    ContainerId cid;
    std::uint64_t size = 0;
    std::uint64_t version = 0;
    std::vector<ExtentSlot> extents;  // slot i: bytes [i, i+1) * kExtentBytes
  };

  /// Views of [offset, offset + n) of `obj` (n within its size), in order;
  /// holes and undefined extent tails view a shared zero extent.
  static std::vector<ByteSpan> GatherLocked(const Object& obj,
                                            std::uint64_t offset,
                                            std::uint64_t n);
  /// A fresh or recycled extent; its contents are unspecified.
  ExtentMem TakeExtentLocked();
  /// Retire `mem` to the free list, or free it when the list is full.
  void RetireExtentLocked(ExtentMem mem);
  /// Copy `len` bytes into `ext` at `lo`, zero-filling any gap after its
  /// defined prefix.
  void CopyIntoLocked(ExtentSlot& ext, std::size_t lo, const std::uint8_t* src,
                      std::size_t len);
  /// Drop `obj`'s extents from index `first` on, retiring them to the free
  /// list until it is full and freeing the rest.
  void ReleaseExtentsLocked(Object& obj, std::size_t first);

  std::mutex mutex_;
  std::uint64_t next_id_ = 1;
  std::unordered_map<ObjectId, Object> objects_;
  std::vector<ExtentMem> free_extents_;  // at most kMaxFreeExtents
  std::shared_ptr<util::ReadBufferPool> read_pool_;
};

/// Attribute-only store: tracks per-object metadata (container, size,
/// version) but discards the data bytes; reads return zeros.  For
/// million-object scale harnesses (bench/petascale) where what matters is
/// the modeled control/data path, not the payload contents — per-object
/// cost is a map entry instead of a buffer.
class NullObjectStore final : public ObjectStore {
 public:
  NullObjectStore() = default;

  Result<ObjectId> Create(ContainerId cid) override;
  Status CreateWithId(ContainerId cid, ObjectId oid) override;
  Status Remove(ObjectId oid) override;
  Status Write(ObjectId oid, std::uint64_t offset, ByteSpan data) override;
  Result<Buffer> Read(ObjectId oid, std::uint64_t offset,
                      std::uint64_t length) override;
  Status Truncate(ObjectId oid, std::uint64_t size) override;
  Result<ObjAttr> GetAttr(ObjectId oid) override;
  Status SetVersion(ObjectId oid, std::uint64_t version) override;
  Result<std::vector<ObjectId>> List(ContainerId cid) override;
  Result<std::vector<ObjectId>> ListAll() override;
  std::uint64_t ObjectCount() override;

 private:
  std::mutex mutex_;
  std::uint64_t next_id_ = 1;
  std::unordered_map<ObjectId, ObjAttr> objects_;
};

/// Block-device-backed store: object bytes live in fixed-size blocks
/// allocated from a flat device image; each object keeps an ordered extent
/// list.  Demonstrates device-side block-layout decisions.
class BlockObjectStore final : public ObjectStore {
 public:
  /// Device of `total_blocks` blocks of `block_size` bytes each.
  BlockObjectStore(std::uint64_t total_blocks, std::uint32_t block_size);

  Result<ObjectId> Create(ContainerId cid) override;
  Status CreateWithId(ContainerId cid, ObjectId oid) override;
  Status Remove(ObjectId oid) override;
  Status Write(ObjectId oid, std::uint64_t offset, ByteSpan data) override;
  Result<Buffer> Read(ObjectId oid, std::uint64_t offset,
                      std::uint64_t length) override;
  Status Truncate(ObjectId oid, std::uint64_t size) override;
  Result<ObjAttr> GetAttr(ObjectId oid) override;
  Status SetVersion(ObjectId oid, std::uint64_t version) override;
  Result<std::vector<ObjectId>> List(ContainerId cid) override;
  Result<std::vector<ObjectId>> ListAll() override;
  std::uint64_t ObjectCount() override;

  [[nodiscard]] std::uint32_t block_size() const { return block_size_; }
  /// Free blocks remaining on the device.
  [[nodiscard]] std::uint64_t FreeBlocks();
  /// Allocator invariants hold and no block belongs to two objects.
  [[nodiscard]] bool CheckInvariants();

 private:
  struct Object {
    ContainerId cid;
    std::uint64_t size = 0;
    std::uint64_t version = 0;
    std::vector<Extent> extents;  // logical block i -> physical via walk
  };

  /// Physical byte address of logical block `lbn` of `obj`, or nullopt if
  /// the block is not allocated (hole).
  std::optional<std::uint64_t> PhysicalOffsetLocked(const Object& obj,
                                                    std::uint64_t lbn) const;
  /// Ensure the object has blocks covering logical bytes [0, size).
  Status EnsureBlocksLocked(Object& obj, std::uint64_t size);

  std::mutex mutex_;
  const std::uint32_t block_size_;
  BlockAllocator allocator_;
  Buffer device_;  // the flat device image
  std::uint64_t next_id_ = 1;
  std::unordered_map<ObjectId, Object> objects_;
};

/// The record a FileObjectStore keeps in each <oid>.meta file.
struct ObjectMeta {
  ObjectId oid;
  ObjAttr attr;
  LWFS_CODEC(ObjectMeta, oid, attr)
};

/// Directory-backed store: object <oid>.obj holds data, <oid>.meta holds
/// attributes.  Survives process restart; Sync() is a real fsync-like flush.
class FileObjectStore final : public ObjectStore {
 public:
  /// Opens (and on first use creates) the store rooted at `directory`.
  /// Existing objects are picked up from disk.
  static Result<std::unique_ptr<FileObjectStore>> Open(
      const std::string& directory);

  Result<ObjectId> Create(ContainerId cid) override;
  Status CreateWithId(ContainerId cid, ObjectId oid) override;
  Status Remove(ObjectId oid) override;
  Status Write(ObjectId oid, std::uint64_t offset, ByteSpan data) override;
  Result<Buffer> Read(ObjectId oid, std::uint64_t offset,
                      std::uint64_t length) override;
  Status Truncate(ObjectId oid, std::uint64_t size) override;
  Result<ObjAttr> GetAttr(ObjectId oid) override;
  Status SetVersion(ObjectId oid, std::uint64_t version) override;
  Result<std::vector<ObjectId>> List(ContainerId cid) override;
  Result<std::vector<ObjectId>> ListAll() override;
  Status Sync() override;
  std::uint64_t ObjectCount() override;

 private:
  explicit FileObjectStore(std::string directory);
  Status LoadExisting();
  [[nodiscard]] std::string DataPath(ObjectId oid) const;
  [[nodiscard]] std::string MetaPath(ObjectId oid) const;
  Status WriteMetaLocked(ObjectId oid, const ObjAttr& attr);

  std::mutex mutex_;
  std::string dir_;
  std::uint64_t next_id_ = 1;
  std::unordered_map<ObjectId, ObjAttr> attrs_;
};

}  // namespace lwfs::storage

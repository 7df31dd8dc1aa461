// Ref-counted immutable byte buffers and scatter-gather frames — the
// zero-copy data path.
//
// A `SharedSlice` is a view (pointer + length) into an immutable byte array
// kept alive by a shared owner.  Sub-slicing is O(1) and shares the owner,
// so a payload pulled off the wire can be carved up, queued behind an I/O
// scheduler, cached for retransmission, and handed to an object store
// without ever being copied: the last reference frees the bytes.
//
// `FrameBuilder` assembles a wire frame from small encoded header segments
// plus payload slices *without flattening*: the frame travels as a part
// list and is gathered exactly once — by the fabric, at delivery — which is
// the wire transfer itself, not an extra host copy.
//
// `CopyStats` counts every payload memcpy the process performs, by
// category, so tests can assert the paper's "at most one copy" budget and
// the bench-regression smoke can fail when a copy sneaks back in.  Beside
// the copies it counts the payload bytes streamed through a *standalone*
// CRC — a checksum pass not fused into a copy, which reads the bytes from
// memory once more — by the side of the transfer that ran it.  Call
// sites compile to nothing unless LWFS_COUNT_COPIES is defined (the default
// build defines it; see the top-level CMakeLists option).
#pragma once

#include <atomic>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "util/bytes.h"
#include "util/crc32.h"
#include "util/status.h"

namespace lwfs::util {

// ---------------------------------------------------------------------------
// CopyStats
// ---------------------------------------------------------------------------

/// Why a payload byte got memcpy'd.  The bulk-path budget (both directions)
/// charges kStage + kStore: a write stages into server memory and lands in
/// the medium, a read leaves the medium and (legacy path only) stages into
/// a push buffer.  kEncode/kDeliver cover (small) frame assembly and
/// message-mode delivery; kInjected copies exist only so the fault injector
/// can corrupt a delivery without mutating the sender's shared bytes.
enum class CopyKind : int {
  kEncode = 0,   // flattening parts into a contiguous frame
  kDeliver = 1,  // message-mode delivery / multi-part gather at the NIC
  kStage = 2,    // bulk payload staged into an intermediate server buffer
  kStore = 3,    // to or from an object store's own medium
  kInjected = 4, // copy-on-write clone made to corrupt a delivery
};
inline constexpr int kCopyKinds = 5;

/// Which end of a bulk transfer ran a standalone payload CRC: the client
/// (the side that registered the payload or the read region) or the
/// server (the side that pulls, stores or pushes it).
enum class CrcSide : int {
  kClient = 0,
  kServer = 1,
};
inline constexpr int kCrcSides = 2;

/// Snapshot of the process-global copy counters.
struct CopySnapshot {
  std::uint64_t copies[kCopyKinds] = {};
  std::uint64_t bytes[kCopyKinds] = {};
  /// Payload bytes streamed through a standalone CRC, per side.
  std::uint64_t crc_bytes[kCrcSides] = {};

  [[nodiscard]] std::uint64_t copies_of(CopyKind k) const {
    return copies[static_cast<int>(k)];
  }
  [[nodiscard]] std::uint64_t bytes_of(CopyKind k) const {
    return bytes[static_cast<int>(k)];
  }
  [[nodiscard]] std::uint64_t crc_bytes_of(CrcSide side) const {
    return crc_bytes[static_cast<int>(side)];
  }
  /// Bytes charged against the bulk-path copy budget: staging + store
  /// copies.  (Encode/deliver cover small control frames; injected copies
  /// are deliberate fault-injection clones.)
  [[nodiscard]] std::uint64_t budget_bytes() const {
    return bytes_of(CopyKind::kStage) + bytes_of(CopyKind::kStore);
  }
  /// Difference since `base` (counter-wise).
  [[nodiscard]] CopySnapshot Since(const CopySnapshot& base) const {
    CopySnapshot d;
    for (int i = 0; i < kCopyKinds; ++i) {
      d.copies[i] = copies[i] - base.copies[i];
      d.bytes[i] = bytes[i] - base.bytes[i];
    }
    for (int i = 0; i < kCrcSides; ++i) {
      d.crc_bytes[i] = crc_bytes[i] - base.crc_bytes[i];
    }
    return d;
  }
};

/// Process-global relaxed counters; cheap enough to leave on everywhere the
/// build enables them.
class CopyStats {
 public:
  static void Count(CopyKind kind, std::size_t bytes) {
    auto& s = Instance();
    s.copies_[static_cast<int>(kind)].fetch_add(1, std::memory_order_relaxed);
    s.bytes_[static_cast<int>(kind)].fetch_add(bytes,
                                               std::memory_order_relaxed);
  }

  static void CountCrc(CrcSide side, std::size_t bytes) {
    Instance().crc_bytes_[static_cast<int>(side)].fetch_add(
        bytes, std::memory_order_relaxed);
  }

  [[nodiscard]] static CopySnapshot Snapshot() {
    auto& s = Instance();
    CopySnapshot out;
    for (int i = 0; i < kCopyKinds; ++i) {
      out.copies[i] = s.copies_[i].load(std::memory_order_relaxed);
      out.bytes[i] = s.bytes_[i].load(std::memory_order_relaxed);
    }
    for (int i = 0; i < kCrcSides; ++i) {
      out.crc_bytes[i] = s.crc_bytes_[i].load(std::memory_order_relaxed);
    }
    return out;
  }

  static void Reset() {
    auto& s = Instance();
    for (int i = 0; i < kCopyKinds; ++i) {
      s.copies_[i].store(0, std::memory_order_relaxed);
      s.bytes_[i].store(0, std::memory_order_relaxed);
    }
    for (int i = 0; i < kCrcSides; ++i) {
      s.crc_bytes_[i].store(0, std::memory_order_relaxed);
    }
  }

  /// True when the build counts copies (LWFS_COUNT_COPIES).
  [[nodiscard]] static constexpr bool Enabled() {
#ifdef LWFS_COUNT_COPIES
    return true;
#else
    return false;
#endif
  }

 private:
  static CopyStats& Instance();
  std::atomic<std::uint64_t> copies_[kCopyKinds] = {};
  std::atomic<std::uint64_t> bytes_[kCopyKinds] = {};
  std::atomic<std::uint64_t> crc_bytes_[kCrcSides] = {};
};

#ifdef LWFS_COUNT_COPIES
#define LWFS_COUNT_COPY(kind, n) ::lwfs::util::CopyStats::Count((kind), (n))
#define LWFS_COUNT_CRC(side, n) ::lwfs::util::CopyStats::CountCrc((side), (n))
#else
#define LWFS_COUNT_COPY(kind, n) \
  do {                           \
  } while (false)
#define LWFS_COUNT_CRC(side, n) \
  do {                          \
  } while (false)
#endif

// ---------------------------------------------------------------------------
// SharedBuffer / SharedSlice
// ---------------------------------------------------------------------------

/// The immutable ref-counted byte array slices point into.  Held by
/// shared_ptr; never mutated after construction.
class SharedBuffer {
 public:
  explicit SharedBuffer(Buffer data) : data_(std::move(data)) {}
  SharedBuffer(const SharedBuffer&) = delete;
  SharedBuffer& operator=(const SharedBuffer&) = delete;

  [[nodiscard]] ByteSpan span() const { return ByteSpan(data_); }
  [[nodiscard]] std::size_t size() const { return data_.size(); }

 private:
  Buffer data_;
};

/// An immutable view into ref-counted bytes.  Copying a slice bumps a
/// refcount; Slice() shares the owner.  A slice may also be *external*
/// (owner == nullptr): a borrowed view whose lifetime the caller manages,
/// used to funnel legacy ByteSpan paths through the same plumbing.  The
/// fabric never delivers an external slice by reference — it copies, like
/// the old Buffer path did — so only owned slices get zero-copy treatment.
class SharedSlice {
 public:
  SharedSlice() = default;

  /// Adopt `data` (no copy): the buffer moves into a fresh SharedBuffer.
  static SharedSlice FromBuffer(Buffer&& data) {
    auto owner = std::make_shared<SharedBuffer>(std::move(data));
    ByteSpan s = owner->span();
    return SharedSlice(std::move(owner), s);
  }

  /// Copy `data` into a fresh owned buffer, charging `kind`.
  static SharedSlice Copy(ByteSpan data, CopyKind kind) {
    (void)kind;
    LWFS_COUNT_COPY(kind, data.size());
    return FromBuffer(Buffer(data.begin(), data.end()));
  }

  /// View into memory kept alive by `owner` (e.g. a sub-object).
  static SharedSlice Wrap(ByteSpan data, std::shared_ptr<const void> owner) {
    return SharedSlice(std::move(owner), data);
  }

  /// Borrowed, non-owning view; see the class comment for the contract.
  static SharedSlice External(ByteSpan data) {
    return SharedSlice(nullptr, data);
  }

  /// O(1) sub-slice sharing the owner; bounds are clamped to the slice.
  [[nodiscard]] SharedSlice Slice(std::size_t offset,
                                  std::size_t length) const {
    if (offset > size_) offset = size_;
    if (length > size_ - offset) length = size_ - offset;
    SharedSlice out(owner_, ByteSpan(data_ + offset, length));
    // A full-range sub-slice is the same bytes, so the cached CRC (if
    // any) stays valid; a proper sub-range drops it.
    if (offset == 0 && length == size_ && has_cached_crc_) {
      out.SetCachedCrc(cached_crc_);
    }
    return out;
  }

  [[nodiscard]] const std::uint8_t* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] ByteSpan span() const { return ByteSpan(data_, size_); }
  /// True when the slice keeps its bytes alive (safe to hold indefinitely).
  [[nodiscard]] bool owned() const { return owner_ != nullptr; }
  [[nodiscard]] const std::shared_ptr<const void>& owner() const {
    return owner_;
  }
  [[nodiscard]] long use_count() const { return owner_.use_count(); }

  /// Producer-attached CRC32 of exactly this slice's bytes.  Frame
  /// checksums Crc32Combine() a cached value instead of re-streaming the
  /// payload, which is safe because slices are immutable — and because
  /// every path that rewrites delivered bytes (the fault injector's
  /// corruption clone, gather copies) builds a *new* slice that carries no
  /// cached CRC, so tampered bytes always get re-checksummed for real.
  /// Sub-slices drop the cache: it covers the full range only.
  [[nodiscard]] bool has_cached_crc() const { return has_cached_crc_; }
  [[nodiscard]] std::uint32_t cached_crc() const { return cached_crc_; }
  void SetCachedCrc(std::uint32_t crc) {
    cached_crc_ = crc;
    has_cached_crc_ = true;
  }

  /// Materialize as an owned Buffer (counted as `kind`).
  [[nodiscard]] Buffer ToBuffer(CopyKind kind) const {
    (void)kind;
    LWFS_COUNT_COPY(kind, size_);
    return Buffer(data_, data_ + size_);
  }

 private:
  SharedSlice(std::shared_ptr<const void> owner, ByteSpan view)
      : owner_(std::move(owner)), data_(view.data()), size_(view.size()) {}

  std::shared_ptr<const void> owner_;
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::uint32_t cached_crc_ = 0;
  bool has_cached_crc_ = false;
};

// ---------------------------------------------------------------------------
// Frame / FrameBuilder
// ---------------------------------------------------------------------------

/// A wire frame as an ordered part list.  Semantically the concatenation of
/// the parts; physically never flattened on the send side.
struct Frame {
  std::vector<SharedSlice> parts;
  std::size_t total_bytes = 0;

  [[nodiscard]] bool empty() const { return total_bytes == 0; }

  /// CRC32 of the concatenated parts (no flatten).  Parts carrying a
  /// producer-cached CRC are folded in with Crc32Combine — O(log n) per
  /// part instead of a second full pass over a bulk payload.
  [[nodiscard]] std::uint32_t Crc() const {
    std::uint32_t crc = 0;  // CRC32 of the empty prefix
    for (const SharedSlice& p : parts) {
      crc = Crc32Combine(
          crc, p.has_cached_crc() ? p.cached_crc() : lwfs::Crc32(p.span()),
          p.size());
    }
    return crc;
  }

  /// Materialize the concatenation (one counted encode copy) — tests and
  /// the rare consumer that needs contiguous bytes.
  [[nodiscard]] Buffer Flatten() const {
    LWFS_COUNT_COPY(CopyKind::kEncode, total_bytes);
    Buffer out;
    out.reserve(total_bytes);
    for (const SharedSlice& p : parts) {
      out.insert(out.end(), p.data(), p.data() + p.size());
    }
    return out;
  }
};

/// Builds a Frame by interleaving encoded header segments with payload
/// slices.  header() hands out the current segment's Encoder; appending a
/// payload slice seals the segment.  Small header bytes are copied (they
/// are built here anyway); payload slices ride by reference.
class FrameBuilder {
 public:
  /// Encoder for the current header segment (sealed by the next Append).
  [[nodiscard]] Encoder& header() { return cur_; }

  /// Append a payload slice by reference (zero-copy).
  void Append(SharedSlice payload) {
    SealCurrent();
    if (!payload.empty()) {
      frame_.total_bytes += payload.size();
      frame_.parts.push_back(std::move(payload));
    }
  }

  /// Seal the trailing segment, optionally append a 4-byte CRC32 trailer
  /// computed across every part, and return the finished frame.  The
  /// builder is left empty.
  [[nodiscard]] Frame Build(bool with_crc_trailer = false) {
    SealCurrent();
    if (with_crc_trailer) {
      const std::uint32_t crc = frame_.Crc();
      Buffer trailer(4);
      trailer[0] = static_cast<std::uint8_t>(crc & 0xFFu);
      trailer[1] = static_cast<std::uint8_t>((crc >> 8) & 0xFFu);
      trailer[2] = static_cast<std::uint8_t>((crc >> 16) & 0xFFu);
      trailer[3] = static_cast<std::uint8_t>((crc >> 24) & 0xFFu);
      frame_.total_bytes += trailer.size();
      frame_.parts.push_back(SharedSlice::FromBuffer(std::move(trailer)));
    }
    Frame out = std::move(frame_);
    frame_ = Frame{};
    return out;
  }

 private:
  void SealCurrent() {
    if (cur_.size() == 0) return;
    Buffer seg = std::move(cur_).Take();
    cur_ = Encoder{};
    frame_.total_bytes += seg.size();
    frame_.parts.push_back(SharedSlice::FromBuffer(std::move(seg)));
  }

  Encoder cur_;
  Frame frame_;
};

}  // namespace lwfs::util

namespace lwfs {

// Out-of-line slice hooks declared in util/bytes.h — defined here so
// bytes.h needs only a forward declaration of SharedSlice.

inline void Encoder::PutSlice(const util::SharedSlice& s) {
  PutU32(static_cast<std::uint32_t>(s.size()));
  Reserve(s.size());
  buf_.insert(buf_.end(), s.data(), s.data() + s.size());
}

inline Decoder::Decoder(const util::SharedSlice& s)
    : data_(s.span()), owner_(s.owner()) {}

inline Result<util::SharedSlice> Decoder::TakeSlice() {
  auto len = GetU32();
  if (!len.ok()) return len.status();
  if (remaining() < *len) return InvalidArgument("truncated byte slice");
  ByteSpan view = data_.subspan(pos_, *len);
  pos_ += *len;
  if (owner_ != nullptr) {
    // Zero-copy: the returned slice shares the decoded frame's owner and
    // may outlive this Decoder.
    return util::SharedSlice::Wrap(view, owner_);
  }
  // Un-owned input (plain span): fall back to one counted copy so the
  // result is still safe to hold.
  return util::SharedSlice::Copy(view, util::CopyKind::kDeliver);
}

}  // namespace lwfs

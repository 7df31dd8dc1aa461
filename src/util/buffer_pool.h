// Recycled destination buffers for slice reads.
//
// A store-owned read slice is allocated fresh per read and freed on
// whatever thread drops the last client reference.  At checkpoint-restore
// payload sizes that means a steady stream of multi-megabyte allocations
// whose pages are faulted in, written once, and unmapped — the fresh-page
// cost shows up as a full extra pass over the payload and erases most of
// what the zero-copy reply saves.  ReadBufferPool keeps a bounded set of
// retired blocks and hands them back out, so steady-state reads memcpy
// onto warm, already-faulted pages.
//
// Blocks return to the pool from the *releasing* thread (usually a client
// dropping its slice) via the owner deleter, which also keeps the pool
// itself alive until the last outstanding slice dies.
#pragma once

#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "util/bytes.h"
#include "util/crc32.h"
#include "util/shared_buffer.h"

namespace lwfs::util {

class ReadBufferPool : public std::enable_shared_from_this<ReadBufferPool> {
 public:
  /// `max_retained_bytes` bounds how much retired memory the pool holds;
  /// blocks released beyond the bound are simply freed.
  static std::shared_ptr<ReadBufferPool> Create(
      std::size_t max_retained_bytes = 64u << 20) {
    return std::shared_ptr<ReadBufferPool>(
        new ReadBufferPool(max_retained_bytes));
  }

  /// Copy `src` into pooled storage and return an owned slice, charging the
  /// copy as `kind`.  When the last reference drops — on any thread — the
  /// block returns to the pool.
  ///
  /// The copy is fused with a CRC pass (Crc32CopyUpdate): the checksum
  /// reads bytes the memcpy just wrote while they are still warm, and the
  /// result is attached to the slice (SetCachedCrc) so the reply frame's
  /// trailer can Crc32Combine it instead of re-streaming the payload from
  /// DRAM — the read path then touches each payload byte exactly once on
  /// the server.
  [[nodiscard]] SharedSlice CopyOut(ByteSpan src, CopyKind kind) {
    return CopyOut(std::span<const ByteSpan>(&src, 1), kind);
  }

  /// Gather form: one slice holding the concatenation of `parts` (a store's
  /// extents), filled by the same fused copy+CRC pass and charged as one
  /// `kind` copy of the total.
  [[nodiscard]] SharedSlice CopyOut(std::span<const ByteSpan> parts,
                                    CopyKind kind) {
    (void)kind;
    std::size_t total = 0;
    for (ByteSpan part : parts) total += part.size();
    Block blk = Take(total);
    std::uint8_t* dst = blk.mem.get();
    std::uint32_t crc = Crc32Init();
    for (ByteSpan part : parts) {
      crc = Crc32CopyUpdate(crc, dst, part.data(), part.size());
      dst += part.size();
    }
    LWFS_COUNT_COPY(kind, total);
    const std::uint8_t* data = blk.mem.get();
    auto carrier = std::make_shared<Block>(std::move(blk));
    std::shared_ptr<const void> owner(
        static_cast<const void*>(data),
        [self = shared_from_this(), carrier](const void*) {
          self->Put(std::move(*carrier));
        });
    SharedSlice out = SharedSlice::Wrap(ByteSpan(data, total), std::move(owner));
    out.SetCachedCrc(Crc32Final(crc));
    return out;
  }

  /// Bytes currently retained (free blocks only) — test/introspection hook.
  [[nodiscard]] std::size_t retained_bytes() {
    std::lock_guard<std::mutex> lock(mutex_);
    return retained_;
  }

 private:
  struct Block {
    std::unique_ptr<std::uint8_t[]> mem;
    std::size_t cap = 0;
  };

  explicit ReadBufferPool(std::size_t max_retained_bytes)
      : max_retained_(max_retained_bytes) {}

  Block Take(std::size_t n) {
    if (n > 0) {
      std::lock_guard<std::mutex> lock(mutex_);
      // Smallest retained block that fits and is at most twice the
      // request: a small read never takes a block sized for a bulk read,
      // which its slice could then pin (in a reply cache, say) while the
      // next bulk read has to fault in fresh pages.
      std::size_t best = free_.size();
      for (std::size_t i = 0; i < free_.size(); ++i) {
        if (free_[i].cap >= n && free_[i].cap / 2 <= n &&
            (best == free_.size() || free_[i].cap < free_[best].cap)) {
          best = i;
        }
      }
      if (best != free_.size()) {
        Block out = std::move(free_[best]);
        free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(best));
        retained_ -= out.cap;
        return out;
      }
    }
    Block out;
    out.cap = n;
    // Uninitialized on purpose: CopyOut overwrites the first n bytes.
    if (n > 0) out.mem.reset(new std::uint8_t[n]);
    return out;
  }

  void Put(Block blk) {
    if (blk.cap == 0 || blk.cap > max_retained_) return;
    std::lock_guard<std::mutex> lock(mutex_);
    // Over the bound, a block makes room by evicting smaller retained
    // blocks, oldest first: small blocks are cheap to allocate again, a
    // bulk read's pages are not.  Otherwise it is freed.
    for (std::size_t i = 0;
         retained_ + blk.cap > max_retained_ && i < free_.size();) {
      if (free_[i].cap < blk.cap) {
        retained_ -= free_[i].cap;
        free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
    if (retained_ + blk.cap > max_retained_) return;
    retained_ += blk.cap;
    free_.push_back(std::move(blk));
  }

  const std::size_t max_retained_;
  std::mutex mutex_;
  std::size_t retained_ = 0;
  std::vector<Block> free_;
};

}  // namespace lwfs::util

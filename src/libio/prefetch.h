// Sequential read-ahead (references [20, 29] of the paper's introduction).
//
// "Tailoring prefetching and caching policies to match an application's
// access patterns" is one of the application-specific optimizations the
// paper argues belong above the core.  PrefetchReader detects sequential
// access on one file handle and keeps a read-ahead window cached, so a
// scan of small reads costs one I/O per window instead of one per read.
#pragma once

#include <cstdint>

#include "lwfsfs/lwfsfs.h"
#include "util/status.h"

namespace lwfs::io {

struct PrefetchOptions {
  std::uint64_t window_bytes = 4ull << 20;
  /// Reads are "sequential" when they start within this many bytes past
  /// the previous read's end (allows small seeks/holes).
  std::uint64_t sequential_slack = 4096;
};

struct PrefetchStats {
  std::uint64_t reads = 0;             // caller reads served
  std::uint64_t hits = 0;              // served fully from the window
  std::uint64_t fetches = 0;           // I/O requests whose data was used
  std::uint64_t bytes_fetched = 0;
  std::uint64_t bytes_served = 0;
  std::uint64_t readaheads = 0;        // async read-aheads adopted
};

/// Not thread-safe: one PrefetchReader per reading thread, like a stdio
/// stream.
class PrefetchReader {
 public:
  PrefetchReader(fs::LwfsFs* fs, fs::FileHandle file,
                 PrefetchOptions options = {})
      : fs_(fs), file_(std::move(file)), options_(options) {}

  /// Read into `out`; returns the bytes read (short at EOF), like a span
  /// extent of LwfsFs::ReadAsync.
  Result<std::uint64_t> Read(std::uint64_t offset, MutableByteSpan out);

  [[nodiscard]] const PrefetchStats& stats() const { return stats_; }
  [[nodiscard]] fs::FileHandle& file() { return file_; }

 private:
  /// Fill the window starting at `offset` — adopting the pending async
  /// read-ahead when it matches, fetching synchronously otherwise.
  Status Fill(std::uint64_t offset);
  /// Start fetching the window after the current one in the background.
  void StartReadAhead();

  fs::LwfsFs* fs_;
  fs::FileHandle file_;
  PrefetchOptions options_;
  PrefetchStats stats_;

  Buffer window_;
  std::uint64_t window_offset_ = 0;
  std::uint64_t window_len_ = 0;   // valid bytes in window_
  std::uint64_t last_end_ = 0;     // end of the previous caller read
  bool sequential_ = false;

  // Pending read-ahead.  `ahead_` is declared after the buffer it reads
  // into so its destructor (which drains the I/O) runs first.
  Buffer ahead_buf_;
  std::uint64_t ahead_offset_ = 0;
  fs::FileIo ahead_;
};

}  // namespace lwfs::io

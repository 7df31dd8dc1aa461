#include "libio/prefetch.h"

#include <algorithm>
#include <cstring>

namespace lwfs::io {

Status PrefetchReader::Fill(std::uint64_t offset) {
  window_.resize(static_cast<std::size_t>(options_.window_bytes));
  std::uint64_t got = 0;
  if (ahead_.valid() && ahead_offset_ == offset &&
      ahead_buf_.size() == window_.size()) {
    // The read-ahead issued while the caller consumed the previous window
    // is exactly what is needed: adopt it.
    fs::FileIo io = std::move(ahead_);
    auto n = io.Await();
    if (!n.ok()) return n.status();
    window_.swap(ahead_buf_);
    got = n->bytes;
    ++stats_.readaheads;
  } else {
    if (ahead_.valid()) {
      // Stale read-ahead (the caller seeked): drain and discard.
      fs::FileIo io = std::move(ahead_);
      (void)io.Await();
    }
    auto n = core::Await(fs_->ReadAsync(
        file_, {{offset, window_.size(), MutableByteSpan(window_)}}));
    if (!n.ok()) return n.status();
    got = n->bytes;
  }
  window_offset_ = offset;
  window_len_ = got;
  ++stats_.fetches;
  stats_.bytes_fetched += got;
  // A full window under sequential access predicts the next one: start
  // fetching it while the caller consumes this one.
  if (sequential_ && window_len_ == window_.size()) StartReadAhead();
  return OkStatus();
}

void PrefetchReader::StartReadAhead() {
  ahead_offset_ = window_offset_ + window_len_;
  ahead_buf_.resize(window_.size());
  auto io = fs_->ReadAsync(
      file_, {{ahead_offset_, ahead_buf_.size(), MutableByteSpan(ahead_buf_)}});
  if (io.ok()) ahead_ = std::move(*io);  // best effort: failure just means no read-ahead
}

Result<std::uint64_t> PrefetchReader::Read(std::uint64_t offset,
                                           MutableByteSpan out) {
  ++stats_.reads;

  // Sequentiality detection: this read starts at (or just past) the end of
  // the previous one.
  sequential_ = stats_.reads > 1 && offset >= last_end_ &&
                offset - last_end_ <= options_.sequential_slack;

  std::uint64_t served = 0;
  while (served < out.size()) {
    const std::uint64_t pos = offset + served;
    const bool in_window =
        window_len_ > 0 && pos >= window_offset_ &&
        pos < window_offset_ + window_len_;
    if (in_window) {
      const std::uint64_t avail = window_offset_ + window_len_ - pos;
      const std::uint64_t n =
          std::min<std::uint64_t>(avail, out.size() - served);
      std::memcpy(out.data() + served,
                  window_.data() + (pos - window_offset_),
                  static_cast<std::size_t>(n));
      served += n;
      stats_.bytes_served += n;
      continue;
    }
    // Miss.  For sequential (or large) access, fetch a whole read-ahead
    // window; for random small reads, bypass the cache entirely so we
    // never fetch more than asked.
    if (sequential_ || out.size() >= options_.window_bytes / 4) {
      LWFS_RETURN_IF_ERROR(Fill(pos));
      if (window_len_ == 0) break;  // EOF
    } else {
      auto span = out.subspan(static_cast<std::size_t>(served));
      auto n = core::Await(fs_->ReadAsync(file_, {{pos, span.size(), span}}));
      if (!n.ok()) return n.status();
      ++stats_.fetches;
      stats_.bytes_fetched += n->bytes;
      stats_.bytes_served += n->bytes;
      served += n->bytes;
      break;  // direct reads never loop (short read = EOF)
    }
  }

  if (served == out.size() && stats_.reads > 1 && sequential_) ++stats_.hits;
  last_end_ = offset + served;
  return served;
}

}  // namespace lwfs::io

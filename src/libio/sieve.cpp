#include "libio/sieve.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <vector>

namespace lwfs::io {

namespace {

Status ValidateFragments(std::span<const Fragment> fragments,
                         MutableByteSpan out) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < fragments.size(); ++i) {
    if (fragments[i].second == 0) return InvalidArgument("empty fragment");
    if (i > 0 && fragments[i - 1].first + fragments[i - 1].second >
                     fragments[i].first) {
      return InvalidArgument("fragments must be sorted and disjoint");
    }
    total += fragments[i].second;
  }
  if (total != out.size()) {
    return InvalidArgument("output buffer does not match fragment total");
  }
  return OkStatus();
}

/// One planned read: either a sieve window spanning fragments [first,last)
/// or a lone fragment read straight into `out`.
struct Run {
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::size_t first = 0;
  std::size_t last = 0;
  std::uint64_t out_pos = 0;
  [[nodiscard]] bool sieved() const { return last - first > 1; }
};

}  // namespace

Result<SieveStats> SievedRead(fs::LwfsFs& fs, fs::FileHandle& file,
                              std::span<const Fragment> fragments,
                              MutableByteSpan out,
                              const SieveOptions& options) {
  LWFS_RETURN_IF_ERROR(ValidateFragments(fragments, out));
  SieveStats stats;

  // Plan: grow each candidate window while it stays under the cap and
  // dense enough.
  std::vector<Run> runs;
  std::size_t i = 0;
  std::uint64_t out_pos = 0;
  while (i < fragments.size()) {
    std::size_t j = i + 1;
    std::uint64_t needed = fragments[i].second;
    std::uint64_t span_end = fragments[i].first + fragments[i].second;
    while (j < fragments.size()) {
      const std::uint64_t new_end = fragments[j].first + fragments[j].second;
      const std::uint64_t new_span = new_end - fragments[i].first;
      const std::uint64_t new_needed = needed + fragments[j].second;
      if (new_span > options.max_window_bytes) break;
      if (static_cast<double>(new_needed) / static_cast<double>(new_span) <
          options.density_threshold) {
        break;
      }
      needed = new_needed;
      span_end = new_end;
      ++j;
    }
    Run run;
    run.offset = fragments[i].first;
    run.length = span_end - fragments[i].first;
    run.first = i;
    run.last = j;
    run.out_pos = out_pos;
    runs.push_back(run);
    stats.bytes_needed += needed;
    out_pos += needed;
    i = j;
  }

  // One list read: a sieve window lands in its own buffer and is
  // extracted afterwards, a lone fragment lands straight in place.
  std::vector<Buffer> windows(runs.size());
  std::vector<core::ReadExtent> extents;
  extents.reserve(runs.size());
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const Run& run = runs[r];
    MutableByteSpan into;
    if (run.sieved()) {
      windows[r].resize(static_cast<std::size_t>(run.length));
      into = MutableByteSpan(windows[r]);
    } else {
      into = out.subspan(static_cast<std::size_t>(run.out_pos),
                         static_cast<std::size_t>(run.length));
    }
    extents.push_back({run.offset, run.length, into});
    ++stats.requests;
    stats.bytes_transferred += run.length;
  }
  LWFS_RETURN_IF_ERROR(
      core::Await(fs.ReadAsync(file, std::move(extents))).status());
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const Run& run = runs[r];
    if (!run.sieved()) continue;
    std::uint64_t pos = run.out_pos;
    for (std::size_t k = run.first; k < run.last; ++k) {
      const std::uint64_t rel = fragments[k].first - run.offset;
      std::memcpy(out.data() + pos, windows[r].data() + rel,
                  static_cast<std::size_t>(fragments[k].second));
      pos += fragments[k].second;
    }
  }
  return stats;
}

Result<SieveStats> DirectRead(fs::LwfsFs& fs, fs::FileHandle& file,
                              std::span<const Fragment> fragments,
                              MutableByteSpan out) {
  LWFS_RETURN_IF_ERROR(ValidateFragments(fragments, out));
  SieveStats stats;
  constexpr std::size_t kWindow = 8;
  std::deque<fs::FileIo> inflight;
  auto retire = [&]() -> Status {
    auto n = inflight.front().Await();
    inflight.pop_front();
    return n.ok() ? OkStatus() : n.status();
  };
  std::uint64_t out_pos = 0;
  for (const Fragment& frag : fragments) {
    while (inflight.size() >= kWindow) LWFS_RETURN_IF_ERROR(retire());
    auto io = fs.ReadAsync(
        file, {{frag.first, frag.second,
                out.subspan(static_cast<std::size_t>(out_pos),
                            static_cast<std::size_t>(frag.second))}});
    if (!io.ok()) return io.status();
    inflight.push_back(std::move(*io));
    ++stats.requests;
    stats.bytes_transferred += frag.second;
    stats.bytes_needed += frag.second;
    out_pos += frag.second;
  }
  while (!inflight.empty()) LWFS_RETURN_IF_ERROR(retire());
  return stats;
}

}  // namespace lwfs::io

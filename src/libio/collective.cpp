#include "libio/collective.h"

#include <algorithm>
#include <utility>

namespace lwfs::io {

namespace {

struct Placed {
  std::uint64_t offset;
  ByteSpan data;
  bool operator<(const Placed& other) const { return offset < other.offset; }
};

}  // namespace

Result<CollectiveStats> CollectiveWrite(
    fs::LwfsFs& fs, fs::FileHandle& file,
    std::vector<std::vector<WriteFragment>> per_rank,
    const CollectiveOptions& options) {
  if (options.aggregators == 0 || options.cb_buffer_bytes == 0) {
    return InvalidArgument("bad collective options");
  }
  CollectiveStats stats;

  // Phase 0: flatten and sort by offset (the "exchange": every fragment is
  // routed to the aggregator owning its file domain).
  std::vector<Placed> all;
  for (const auto& rank : per_rank) {
    for (const WriteFragment& frag : rank) {
      if (frag.data.empty()) continue;
      all.push_back(Placed{frag.offset, ByteSpan(frag.data)});
      ++stats.fragments_in;
      stats.bytes += frag.data.size();
    }
  }
  if (all.empty()) return stats;
  std::sort(all.begin(), all.end());
  for (std::size_t i = 1; i < all.size(); ++i) {
    if (all[i - 1].offset + all[i - 1].data.size() > all[i].offset) {
      return InvalidArgument("overlapping collective fragments");
    }
  }

  // Phase 1: partition file space into aggregator domains.
  const std::uint64_t lo = all.front().offset;
  const std::uint64_t hi = all.back().offset + all.back().data.size();
  const std::uint64_t domain =
      std::max<std::uint64_t>(1, (hi - lo + options.aggregators - 1) /
                                     options.aggregators);

  // Phase 2: per domain, coalesce adjacent fragments into runs bounded by
  // the collective buffer; every run goes out in one striped list write,
  // so the aggregators' flushes overlap instead of taking turns.
  std::vector<core::WritePiece> runs;
  std::size_t i = 0;
  while (i < all.size()) {
    const std::uint64_t domain_end =
        lo + ((all[i].offset - lo) / domain + 1) * domain;
    Buffer cb;
    std::uint64_t run_start = all[i].offset;
    std::uint64_t run_end = run_start;
    auto flush = [&] {
      if (cb.empty()) return;
      runs.push_back({run_start, util::SharedSlice::FromBuffer(std::move(cb))});
      ++stats.writes_issued;
      cb = Buffer{};
    };
    while (i < all.size() && all[i].offset < domain_end) {
      const Placed& frag = all[i];
      const bool adjacent = cb.empty() || frag.offset == run_end;
      const bool fits = cb.size() + frag.data.size() <= options.cb_buffer_bytes;
      if (!adjacent || !fits) {
        flush();
        run_start = frag.offset;
        run_end = frag.offset;
      }
      cb.insert(cb.end(), frag.data.begin(), frag.data.end());
      run_end = frag.offset + frag.data.size();
      ++i;
    }
    flush();
  }
  LWFS_RETURN_IF_ERROR(core::Await(fs.WriteAsync(file,
                                                 std::move(runs))).status());
  return stats;
}

Result<CollectiveStats> IndependentWrite(
    fs::LwfsFs& fs, fs::FileHandle& file,
    const std::vector<std::vector<WriteFragment>>& per_rank) {
  CollectiveStats stats;
  for (const auto& rank : per_rank) {
    for (const WriteFragment& frag : rank) {
      if (frag.data.empty()) continue;
      LWFS_RETURN_IF_ERROR(
          core::Await(fs.WriteAsync(
                          file, {{frag.offset,
                                  util::SharedSlice::External(frag.data)}}))
              .status());
      ++stats.fragments_in;
      ++stats.writes_issued;
      stats.bytes += frag.data.size();
    }
  }
  return stats;
}

}  // namespace lwfs::io

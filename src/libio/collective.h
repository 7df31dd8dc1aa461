// Two-phase collective write (references [12] and [37] of the paper).
//
// When n ranks each hold many small, interleaved fragments of one file,
// writing them independently floods the storage servers with tiny requests.
// Two-phase I/O first *exchanges* fragments so that each of a small number
// of aggregators owns a contiguous file domain, then each aggregator issues
// few large writes.  On an MPP the exchange is an MPI all-to-all over the
// fast interconnect; here it is an in-memory shuffle, which preserves the
// property under study (requests issued against the I/O system).
#pragma once

#include <cstdint>
#include <vector>

#include "lwfsfs/lwfsfs.h"
#include "util/status.h"

namespace lwfs::io {

/// One fragment a rank wants written.
struct WriteFragment {
  std::uint64_t offset = 0;
  Buffer data;
};

struct CollectiveOptions {
  /// Number of aggregator "ranks" (file domains).
  std::uint32_t aggregators = 4;
  /// Cap on a single coalesced write (collective buffer size).
  std::uint64_t cb_buffer_bytes = 16ull << 20;
};

struct CollectiveStats {
  std::uint64_t fragments_in = 0;   // total fragments from all ranks
  std::uint64_t writes_issued = 0;  // coalesced writes sent to the FS
  std::uint64_t bytes = 0;
};

/// Collectively write all ranks' fragments to `file`.  Overlapping
/// fragments are invalid (collective writes are non-overlapping by MPI-IO
/// semantics) and rejected.
Result<CollectiveStats> CollectiveWrite(
    fs::LwfsFs& fs, fs::FileHandle& file,
    std::vector<std::vector<WriteFragment>> per_rank,
    const CollectiveOptions& options = {});

/// Baseline for the ablation: every rank writes its fragments one by one,
/// one write call per fragment.
Result<CollectiveStats> IndependentWrite(
    fs::LwfsFs& fs, fs::FileHandle& file,
    const std::vector<std::vector<WriteFragment>>& per_rank);

}  // namespace lwfs::io

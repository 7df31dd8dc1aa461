// Checkpoint case study (§4, Figure 8).
//
// Three functionally equivalent checkpoint implementations:
//
//  * LwfsCheckpoint       — the paper's lightweight checkpoint: each rank
//                           creates and dumps its own object, rank 0
//                           gathers metadata into a metadata object and
//                           names it, all inside one distributed
//                           transaction (Figure 8 pseudocode, line for
//                           line).  Each rank's create+dump runs as a
//                           WritePipeline state machine on the driver
//                           engine — a bounded window of asynchronous
//                           calls, not one OS thread per rank.
//  * PfsFilePerProcess    — one PFS file per rank: dump bandwidth scales,
//                           but every create funnels through the MDS.
//  * PfsSharedFile        — one striped PFS file, rank r writes its
//                           disjoint slice; POSIX extent locking serializes.
//
// Each returns CheckpointStats and can be restored and verified, which is
// how the tests prove the three produce identical application state.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/client.h"
#include "core/runtime.h"
#include "pfs/client.h"
#include "pfs/pfs_runtime.h"
#include "util/bytes.h"
#include "util/codec.h"
#include "util/shared_buffer.h"
#include "util/status.h"

namespace lwfs::checkpoint {

struct CheckpointStats {
  double seconds = 0;          // wall time of the whole checkpoint
  double create_seconds = 0;   // file/object creation phase only
  double dump_seconds = 0;     // data dump phase only
  std::uint64_t bytes = 0;     // application bytes written
  std::uint64_t creates = 0;   // files/objects created
  /// LWFS checkpoints only: threads that drove the ranks, and the most
  /// rank requests (creates and writes) that were in flight at once.
  std::uint32_t carriers = 0;
  std::uint64_t peak_requests = 0;
  [[nodiscard]] double throughput_mb_s() const {
    return seconds > 0 ? static_cast<double>(bytes) / 1e6 / seconds : 0;
  }
};

// ---------------------------------------------------------------------------
// LWFS lightweight checkpoint
// ---------------------------------------------------------------------------

/// One rank's entry in an LWFS checkpoint's metadata object: where its
/// state object lives and how many bytes it holds.
struct CheckpointEntry {
  storage::ObjectRef ref;
  std::uint64_t size = 0;
  LWFS_CODEC(CheckpointEntry, ref, size)
};

/// The metadata object rank 0 writes and names: one entry per rank, in
/// rank order.
struct CheckpointMetadata {
  std::vector<CheckpointEntry> entries;
  LWFS_CODEC(CheckpointMetadata, entries)
};

class LwfsCheckpoint {
 public:
  struct Config {
    std::string path;               // name registered for the checkpoint
    storage::ContainerId cid;       // checkpoint container (MAIN line 2)
    security::Capability cap;       // caps for create+write (MAIN line 3)
    std::uint32_t journal_server = 0;
    std::uint32_t window = 8;       // outstanding async creates/writes
    /// >= 2 checkpoints into N-way replicated objects (DESIGN.md §15):
    /// every rank's state and the metadata object live on a replica chain,
    /// and the distributed transaction is skipped — redundancy replaces
    /// 2PC, and the single LinkName publishing the metadata object is the
    /// commit point.  0 or 1 keeps the transactional single-copy path.
    std::uint32_t replication_factor = 0;
  };

  /// Run the CHECKPOINT() operation of Figure 8; `states[r]` is rank r's
  /// process state.  Each rank places its object on storage server r % m
  /// (application-chosen distribution policy).  Creates and dumps are
  /// pipelined through a window of `config.window` outstanding requests.
  static Result<CheckpointStats> Run(core::ServiceRuntime& runtime,
                                     const Config& config,
                                     const std::vector<Buffer>& states);
  /// Zero-copy variant: owned() slices are registered for the servers'
  /// pulls by reference, so each rank's state crosses the stack without a
  /// staging copy (the store-medium copy is the only one).  Non-owned
  /// (External) slices take the legacy staged path, like the Buffer
  /// overload — which wraps its spans this way and delegates here.
  static Result<CheckpointStats> Run(
      core::ServiceRuntime& runtime, const Config& config,
      const std::vector<util::SharedSlice>& states);

  /// Restore: look up `path`, read the metadata object, read every state
  /// object through a windowed async batch.  Delegates to RestoreSlices
  /// and copies each rank's slice into a caller-owned Buffer.
  static Result<std::vector<Buffer>> Restore(core::ServiceRuntime& runtime,
                                             const security::Capability& cap,
                                             const std::string& path);
  /// Zero-copy restore: each rank's state comes back as the store-owned
  /// slice the reply frame carried — no landing buffer anywhere on the
  /// client, so a full restore holds exactly one payload per rank.
  static Result<std::vector<util::SharedSlice>> RestoreSlices(
      core::ServiceRuntime& runtime, const security::Capability& cap,
      const std::string& path);
};

// ---------------------------------------------------------------------------
// Traditional-PFS checkpoints
// ---------------------------------------------------------------------------

class PfsFilePerProcess {
 public:
  struct Config {
    std::string base_path;  // rank r writes <base_path>.<r>
    std::uint32_t stripes_per_file = 1;
  };

  static Result<CheckpointStats> Run(pfs::PfsRuntime& runtime,
                                     const Config& config,
                                     const std::vector<Buffer>& states);

  static Result<std::vector<Buffer>> Restore(pfs::PfsRuntime& runtime,
                                             const Config& config,
                                             std::uint32_t nranks);
};

class PfsSharedFile {
 public:
  struct Config {
    std::string path;
    std::uint32_t stripe_count = 0;  // 0 = stripe over all storage servers
    pfs::ConsistencyMode mode = pfs::ConsistencyMode::kPosixLocking;
  };

  /// Rank r writes states[r] at offset sum(sizes[0..r)).
  static Result<CheckpointStats> Run(pfs::PfsRuntime& runtime,
                                     const Config& config,
                                     const std::vector<Buffer>& states);

  static Result<std::vector<Buffer>> Restore(pfs::PfsRuntime& runtime,
                                             const Config& config,
                                             const std::vector<std::uint64_t>&
                                                 sizes);
};

}  // namespace lwfs::checkpoint

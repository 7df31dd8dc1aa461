// The benchmark suite's workloads and layer probes.
//
// Every workload runs closed-loop against an in-process core::ServiceRuntime
// with the shipped defaults (4 storage servers, memory backend, I/O
// scheduler on, unmodeled medium, real clock): each client thread waits for
// a reply before it sends its next request, the way application ranks do.
// Load comes from one process with at most kClients client threads, one
// client each.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/runtime.h"
#include "util/bytes.h"
#include "util/status.h"

namespace lwfs::suite {

/// Input sizes.  The smoke sizes keep the harness compiling and correct in
/// a second or two; the full sizes are what the benchmark measures.
struct Sizes {
  // ckpt_dump
  std::uint32_t ckpt_ranks = 4;
  std::size_t ckpt_rank_bytes = 64u << 20;
  // small_io
  std::uint32_t small_objects = 64;
  std::size_t small_object_bytes = 1u << 20;
  std::size_t small_io_bytes = 64u << 10;
  // meta_churn
  std::uint32_t meta_live_names = 8192;  // split evenly among the clients
  // replicated_io
  std::uint32_t repl_objects = 32;
  std::size_t repl_object_bytes = 4u << 20;
  std::size_t repl_io_bytes = 1u << 20;

  static Sizes Smoke();
};

/// One timed call: when it completed and how long it took.
struct Sample {
  std::int64_t end_ns = 0;
  double us = 0;
};

/// What one client thread saw during a timed phase.
struct ThreadTally {
  std::vector<Sample> writes;
  std::vector<Sample> reads;
  std::vector<std::int64_t> op_ends;  // completions that count toward ops_s
  std::uint64_t attempted = 0;        // workload operations started
  std::uint64_t failed = 0;           // ... that returned an error
  /// Untimed housekeeping inside the loop (checkpoint verify and cleanup),
  /// left out of the single-threaded workload's ops_s.
  double untimed_s = 0;

  void AddWrite(std::int64_t t0, std::int64_t t1, bool counts = true) {
    writes.push_back(Sample{t1, static_cast<double>(t1 - t0) / 1e3});
    if (counts) op_ends.push_back(t1);
  }
  void AddRead(std::int64_t t0, std::int64_t t1, bool counts = true) {
    reads.push_back(Sample{t1, static_cast<double>(t1 - t0) / 1e3});
    if (counts) op_ends.push_back(t1);
  }
};

/// One deployment plus the workload's clients and the capability they use.
struct Env {
  std::unique_ptr<core::ServiceRuntime> runtime;
  std::vector<std::unique_ptr<core::Client>> clients;
  storage::ContainerId cid;
  security::Capability cap;
};

/// The first output mismatch of the run.  Client loops stop once one is
/// recorded, and the run exits nonzero naming it.
class Verdict {
 public:
  static void Mismatch(const std::string& what);
  [[nodiscard]] static bool ok();
  [[nodiscard]] static std::string message();
};

/// Probe name -> value (units in the names: _us, _ns, _gbps).
using ProbeResults = std::map<std::string, double>;

/// Client threads of the multi-client workloads.  Two, not four: each call
/// wakes server threads too, and with four clients on 4 vCPUs the runnable
/// threads outnumber the cores, so latencies measured the scheduler and
/// swung with load from other work on the machine.
inline constexpr int kClients = 2;

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual core::RuntimeOptions Options() const { return {}; }
  [[nodiscard]] virtual int threads() const { return kClients; }
  /// Preload and warm up a fresh deployment; timed as set-up.  Resets the
  /// workload's own state, so the timed phase after it replays from the
  /// seed.
  virtual Status Prepare(Env& env) = 0;
  /// One closed-loop iteration on client thread `t`.
  virtual void Iterate(Env& env, int t, ThreadTally& tally) = 0;
  /// Write / read p50 minus the isolated cost of the layers that op crosses,
  /// as measured by the probes.
  [[nodiscard]] virtual double UnexplainedWriteUs(const ProbeResults& p,
                                                  double write_p50_us) const = 0;
  [[nodiscard]] virtual double UnexplainedReadUs(const ProbeResults& p,
                                                 double read_p50_us) const = 0;
};

inline constexpr std::string_view kWorkloads[] = {"ckpt_dump", "small_io",
                                                  "meta_churn", "replicated_io"};

/// nullptr for an unknown name.  Builds the workload's inputs from `seed`.
std::unique_ptr<Workload> MakeWorkload(std::string_view name,
                                       std::uint64_t seed, const Sizes& sizes);

/// Isolated per-layer costs on private instances.  Each probe repeats its
/// call for at least `min_seconds` (and a minimum call count).
Result<ProbeResults> RunProbes(const Sizes& sizes, double min_seconds);

/// Start a deployment, log in, and hand out `nclients` clients sharing one
/// container and an all-ops capability.
Result<Env> StartEnv(const core::RuntimeOptions& options, int nclients);

}  // namespace lwfs::suite

// Span recorder for the suite's traced run.
//
// A Span brackets one call the benchmark makes into a layer's public API.
// Spans nest per thread: the first open span on a thread is the root of an
// operation and every span opened beneath it shares the root's id, so a
// `meta_churn.create` root carries `core.create` and `core.link` children.
// Each span records its self time — its duration minus the time its child
// spans cover — when it closes.
//
// Records go into per-thread buffers preallocated on first use, so tracing
// never allocates or locks on the hot path.  A buffer that fills up drops
// further spans and counts them.  Nothing is recorded unless tracing is on;
// a disabled Span costs one relaxed load.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace lwfs::suite {

struct SpanRecord {
  const char* name = nullptr;  // static string
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  std::int64_t self_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 for a root
  std::uint64_t root = 0;
  std::uint32_t thread = 0;
  bool ok = true;
};

/// Per-span-name summary of a traced run (the layer table).
struct LayerRow {
  std::string name;
  std::uint64_t n = 0;
  double p50_us = 0;
  double p99_us = 0;
  double self_p50_us = 0;
  std::uint64_t failures = 0;
};

class Tracer {
 public:
  static void SetEnabled(bool on);
  [[nodiscard]] static bool enabled();

  /// Every record of every thread.  Call only after the recording threads
  /// have been joined.
  [[nodiscard]] static std::vector<SpanRecord> Collect();
  /// Spans lost to full buffers.
  [[nodiscard]] static std::uint64_t dropped();
  /// Forget all records (buffers stay allocated).
  static void Clear();

  [[nodiscard]] static std::vector<LayerRow> Summarize(
      const std::vector<SpanRecord>& spans);
  /// Chrome trace-event JSON holding at most `max_spans` spans per thread.
  static bool WriteChromeTrace(const std::vector<SpanRecord>& spans,
                               const std::string& path,
                               std::size_t max_spans);
};

class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void Fail() { ok_ = false; }

  /// Record a child interval measured elsewhere (the checkpoint library's
  /// own phase timings), as if a child span had covered it.
  void AddChild(const char* name, std::int64_t start_ns, std::int64_t dur_ns);

 private:
  bool active_ = false;
  bool ok_ = true;
};

/// Now on the process's RealClock, in nanoseconds.
std::int64_t NowNs();

}  // namespace lwfs::suite

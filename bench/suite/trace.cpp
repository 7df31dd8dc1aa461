#include "trace.h"

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string_view>

#include "samples.h"
#include "util/clock.h"

namespace lwfs::suite {

namespace {

// 2^18 records (16 MiB) per thread holds a traced half-run of the busiest
// workload several times over.
constexpr std::size_t kSpansPerThread = 1 << 18;
constexpr int kMaxDepth = 16;

struct OpenSpan {
  const char* name = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t child_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t root = 0;
};

struct ThreadBuffer {
  std::uint32_t index = 0;
  std::vector<SpanRecord> records;
  std::uint64_t next_seq = 1;
  OpenSpan stack[kMaxDepth];
  int depth = 0;
  std::uint64_t dropped = 0;

  std::uint64_t NextId() {
    return (static_cast<std::uint64_t>(index + 1) << 40) | next_seq++;
  }
  void Push(const SpanRecord& r) {
    if (records.size() == records.capacity()) {
      ++dropped;
      return;
    }
    records.push_back(r);
  }
};

std::atomic<bool> g_enabled{false};
std::mutex g_mutex;
// Buffers outlive their threads so Collect() can read them after a join.
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by g_mutex
thread_local ThreadBuffer* t_buffer = nullptr;

ThreadBuffer& ThisThreadBuffer() {
  if (t_buffer == nullptr) {
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->records.reserve(kSpansPerThread);
    std::lock_guard<std::mutex> lock(g_mutex);
    buffer->index = static_cast<std::uint32_t>(g_buffers.size());
    t_buffer = buffer.get();
    g_buffers.push_back(std::move(buffer));
  }
  return *t_buffer;
}

}  // namespace

std::int64_t NowNs() { return util::RealClockInstance()->Now().count(); }

void Tracer::SetEnabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::vector<SpanRecord> Tracer::Collect() {
  std::lock_guard<std::mutex> lock(g_mutex);
  std::vector<SpanRecord> all;
  for (const auto& b : g_buffers) {
    all.insert(all.end(), b->records.begin(), b->records.end());
  }
  return all;
}

std::uint64_t Tracer::dropped() {
  std::lock_guard<std::mutex> lock(g_mutex);
  std::uint64_t n = 0;
  for (const auto& b : g_buffers) n += b->dropped;
  return n;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(g_mutex);
  for (auto& b : g_buffers) {
    b->records.clear();
    b->dropped = 0;
  }
}

std::vector<LayerRow> Tracer::Summarize(const std::vector<SpanRecord>& spans) {
  struct Acc {
    std::vector<double> dur_us;
    std::vector<double> self_us;
    std::uint64_t failures = 0;
  };
  std::map<std::string_view, Acc> by_name;
  for (const SpanRecord& s : spans) {
    Acc& a = by_name[s.name];
    a.dur_us.push_back(static_cast<double>(s.dur_ns) / 1e3);
    a.self_us.push_back(static_cast<double>(s.self_ns) / 1e3);
    if (!s.ok) ++a.failures;
  }
  std::vector<LayerRow> rows;
  for (auto& [name, a] : by_name) {
    LayerRow row;
    row.name = std::string(name);
    row.n = a.dur_us.size();
    row.p50_us = Percentile(a.dur_us, 0.5);
    row.p99_us = Percentile(a.dur_us, TailFraction(a.dur_us.size()));
    row.self_p50_us = Percentile(a.self_us, 0.5);
    row.failures = a.failures;
    rows.push_back(std::move(row));
  }
  return rows;
}

bool Tracer::WriteChromeTrace(const std::vector<SpanRecord>& spans,
                              const std::string& path, std::size_t max_spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  std::map<std::uint32_t, std::size_t> written;
  bool first = true;
  for (const SpanRecord& s : spans) {
    if (written[s.thread]++ >= max_spans) continue;
    std::fprintf(out,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %" PRIu32 ", \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %" PRIu64 ", \"parent\": %" PRIu64
                 ", \"root\": %" PRIu64 ", \"self_us\": %.3f, \"ok\": %s}}",
                 first ? "" : ",\n", s.name, s.thread,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.dur_ns) / 1e3, s.id, s.parent, s.root,
                 static_cast<double>(s.self_ns) / 1e3,
                 s.ok ? "true" : "false");
    first = false;
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

Span::Span(const char* name) {
  if (!Tracer::enabled()) return;
  ThreadBuffer& b = ThisThreadBuffer();
  if (b.depth == kMaxDepth) return;
  OpenSpan& open = b.stack[b.depth];
  open.name = name;
  open.id = b.NextId();
  open.parent = b.depth > 0 ? b.stack[b.depth - 1].id : 0;
  open.root = b.depth > 0 ? b.stack[0].id : open.id;
  open.child_ns = 0;
  ++b.depth;
  active_ = true;
  open.start_ns = NowNs();
}

Span::~Span() {
  if (!active_) return;
  const std::int64_t end = NowNs();
  ThreadBuffer& b = *t_buffer;
  const OpenSpan open = b.stack[--b.depth];
  const std::int64_t dur = end - open.start_ns;
  if (b.depth > 0) b.stack[b.depth - 1].child_ns += dur;
  b.Push(SpanRecord{open.name, open.start_ns, dur, dur - open.child_ns,
                    open.id, open.parent, open.root, b.index, ok_});
}

void Span::AddChild(const char* name, std::int64_t start_ns,
                    std::int64_t dur_ns) {
  if (!active_) return;
  ThreadBuffer& b = *t_buffer;
  OpenSpan& open = b.stack[b.depth - 1];
  open.child_ns += dur_ns;
  b.Push(SpanRecord{name, start_ns, dur_ns, dur_ns, b.NextId(), open.id,
                    open.root, b.index, true});
}

}  // namespace lwfs::suite

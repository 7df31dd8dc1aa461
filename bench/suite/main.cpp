// lwfs_suite: the repository benchmark (see README.md).
//
//   lwfs_suite --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//   lwfs_suite --smoke [--out DIR]
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) reports the per-layer metrics: spans around the benchmark's
// calls into each layer, isolated layer probes, and the tracing overhead.
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics.  A wrong read exits 1 naming the workload,
// op and seed.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "samples.h"
#include "suite.h"
#include "trace.h"

namespace lwfs::suite {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string out_dir;
};

/// How a run is carried out; the smoke test shrinks every part.
struct Plan {
  int setups = 3;            // set-ups timed per run; setup_s is their median
  double settle_s = 1;       // workload loop run and discarded before timing
  double probe_s = 0.2;      // minimum time per layer probe
};

/// Spans per thread kept in the Chrome trace file (all feed the table).
constexpr std::size_t kTraceFileSpans = 5000;

/// A measured phase is cut into up to kWindows windows of equal length, and
/// each statistic is the median of its per-window values, so a burst of
/// host noise moves one window rather than the result.  A statistic uses
/// fewer windows when it has under kMinWindowSamples samples per window.
constexpr std::size_t kWindows = 5;
constexpr std::size_t kMinWindowSamples = 1000;

/// The end-to-end `*_tail_us` percentile.  p90, not p99: on a shared 4-vCPU
/// host, p99 is set by rare multi-millisecond scheduling stalls and grew up
/// to 4x when other work loaded the machine, while p90 grew by a third at
/// most (README.md, "Known findings").
constexpr double kTailQuantile = 0.90;

struct PhaseResult {
  std::vector<Sample> writes;
  std::vector<Sample> reads;
  std::vector<std::int64_t> op_ends;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::int64_t start_ns = 0;
  std::int64_t deadline_ns = 0;
  double seconds = 0;  // the phase's wall time less untimed housekeeping
};

/// Every client thread loops on the workload until the deadline.
PhaseResult RunPhase(Workload& workload, Env& env, double seconds) {
  const int n = workload.threads();
  std::vector<ThreadTally> tallies(static_cast<std::size_t>(n));
  std::vector<std::int64_t> ends(static_cast<std::size_t>(n), 0);
  PhaseResult r;
  r.start_ns = NowNs();
  r.deadline_ns = r.start_ns + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      const auto i = static_cast<std::size_t>(t);
      while (NowNs() < r.deadline_ns && Verdict::ok()) {
        workload.Iterate(env, t, tallies[i]);
      }
      ends[i] = NowNs();
    });
  }
  for (std::thread& th : threads) th.join();

  for (std::size_t i = 0; i < tallies.size(); ++i) {
    const ThreadTally& t = tallies[i];
    r.writes.insert(r.writes.end(), t.writes.begin(), t.writes.end());
    r.reads.insert(r.reads.end(), t.reads.begin(), t.reads.end());
    r.op_ends.insert(r.op_ends.end(), t.op_ends.begin(), t.op_ends.end());
    r.attempted += t.attempted;
    r.failed += t.failed;
    r.seconds = std::max(
        r.seconds, static_cast<double>(ends[i] - r.start_ns) / 1e9 - t.untimed_s);
  }
  return r;
}

std::size_t WindowCount(std::size_t samples) {
  return std::clamp<std::size_t>(samples / kMinWindowSamples, 1, kWindows);
}

std::size_t WindowOf(const PhaseResult& r, std::int64_t end_ns,
                     std::size_t windows) {
  const auto offset = static_cast<double>(end_ns - r.start_ns);
  const auto length = static_cast<double>(r.deadline_ns - r.start_ns);
  return static_cast<std::size_t>(offset / length * static_cast<double>(windows));
}

double OpsPerSecond(const PhaseResult& r) {
  const std::size_t windows = WindowCount(r.op_ends.size());
  if (windows == 1) {
    return r.seconds > 0 ? static_cast<double>(r.op_ends.size()) / r.seconds : 0;
  }
  // Ops finishing after the deadline (each thread's last one) are left out.
  std::vector<double> rates(windows, 0);
  const double window_s =
      static_cast<double>(r.deadline_ns - r.start_ns) / 1e9 / static_cast<double>(windows);
  for (std::int64_t end : r.op_ends) {
    const std::size_t w = WindowOf(r, end, windows);
    if (w < windows) rates[w] += 1 / window_s;
  }
  return Median(std::move(rates));
}

/// Median over windows of the p50 and of the tail percentile (at most
/// `tail_cap`).
std::pair<double, double> Latency(const PhaseResult& r,
                                  const std::vector<Sample>& samples,
                                  double tail_cap = kTailQuantile) {
  const std::size_t windows = WindowCount(samples.size());
  std::vector<std::vector<double>> us(windows);
  for (const Sample& s : samples) {
    const std::size_t w = windows == 1 ? 0 : WindowOf(r, s.end_ns, windows);
    if (w < windows) us[w].push_back(s.us);
  }
  std::vector<double> p50s;
  std::vector<double> tails;
  for (std::vector<double>& v : us) {
    if (v.empty()) continue;
    p50s.push_back(Percentile(v, 0.5));
    tails.push_back(Percentile(v, TailFraction(v.size(), tail_cap)));
  }
  return {Median(std::move(p50s)), Median(std::move(tails))};
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::string UnitOf(const std::string& name) {
  auto ends_with = [&](const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (name == "setup_s") return "s";
  if (name == "ops_s") return "1/s";
  if (ends_with("_gbps")) return "GB/s";
  if (ends_with("_ns")) return "ns";
  if (ends_with("_frac")) return "fraction";
  return "us";
}

void Add(std::vector<Metric>& metrics, const std::string& name, double value) {
  metrics.push_back(Metric{name, value, UnitOf(name)});
}

/// `prefix`_p50_us and `prefix`_tail_us of one kind of call.
void AddLatency(std::vector<Metric>& metrics, const std::string& prefix,
                const PhaseResult& r, const std::vector<Sample>& samples) {
  const auto [p50, tail] = Latency(r, samples);
  Add(metrics, prefix + "_p50_us", p50);
  Add(metrics, prefix + "_tail_us", tail);
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string s = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    s += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + Num(m.value) +
         ", \"unit\": \"" + m.unit + "\"}";
  }
  return s + "}";
}

std::string LayersJson(const std::vector<LayerRow>& rows) {
  std::string s = "[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const LayerRow& r = rows[i];
    s += std::string(i ? ",\n    " : "\n    ") + "{\"name\": \"" + r.name +
         "\", \"n\": " + std::to_string(r.n) + ", \"p50_us\": " + Num(r.p50_us) +
         ", \"p99_us\": " + Num(r.p99_us) +
         ", \"self_p50_us\": " + Num(r.self_p50_us) +
         ", \"failures\": " + std::to_string(r.failures) + "}";
  }
  return s + "]";
}

void PrintLayerTable(const std::vector<LayerRow>& rows) {
  std::printf("%-26s %9s %12s %12s %12s %9s\n", "span", "n", "p50_us",
              "p99_us", "self_p50_us", "failures");
  for (const LayerRow& r : rows) {
    std::printf("%-26s %9" PRIu64 " %12.2f %12.2f %12.2f %9" PRIu64 "\n",
                r.name.c_str(), r.n, r.p50_us, r.p99_us, r.self_p50_us,
                r.failures);
  }
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

/// One run of one workload.  Returns the process exit code.
int RunOne(const Options& opt, const Sizes& sizes, const Plan& plan) {
  auto workload = MakeWorkload(opt.workload, opt.seed, sizes);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }

  // Set-up: runtime start, preload and warm-up, timed several times; the
  // last deployment carries the measured phase.
  std::vector<double> setup_s;
  Result<Env> env = Internal("no set-up ran");
  for (int i = 0; i < plan.setups; ++i) {
    env = Internal("torn down");  // the previous deployment stops first
    const std::int64_t t0 = NowNs();
    env = StartEnv(workload->Options(), workload->threads());
    Status prepared = env.ok() ? workload->Prepare(*env) : env.status();
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!prepared.ok() || !Verdict::ok()) {
      std::fprintf(stderr, "%s set-up failed (seed %" PRIu64 "): %s\n",
                   opt.workload.c_str(), opt.seed,
                   Verdict::ok() ? prepared.ToString().c_str()
                                 : Verdict::message().c_str());
      return 1;
    }
  }

  (void)RunPhase(*workload, *env, plan.settle_s);

  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string extra;  // result-file-only fields
  if (!opt.trace) {
    PhaseResult r = RunPhase(*workload, *env, opt.seconds);
    attempted = r.attempted;
    failed = r.failed;
    Add(metrics, "setup_s", Median(setup_s));
    Add(metrics, "ops_s", OpsPerSecond(r));
    AddLatency(metrics, "write", r, r.writes);
    AddLatency(metrics, "read", r, r.reads);
    extra += ", \"ops_n\": " + std::to_string(r.op_ends.size()) +
             ", \"write_n\": " + std::to_string(r.writes.size()) +
             ", \"read_n\": " + std::to_string(r.reads.size());
  } else {
    // Half the time untraced, half traced: the ops_s ratio is the tracing
    // overhead, and the untraced half's p50s feed the unexplained costs.
    PhaseResult plain = RunPhase(*workload, *env, opt.seconds / 2);
    Tracer::Clear();
    Tracer::SetEnabled(true);
    PhaseResult traced = RunPhase(*workload, *env, opt.seconds / 2);
    Tracer::SetEnabled(false);
    attempted = plain.attempted + traced.attempted;
    failed = plain.failed + traced.failed;
    env = Internal("torn down");  // free the deployment before the probes

    auto probes = RunProbes(sizes, plan.probe_s);
    if (!probes.ok()) {
      std::fprintf(stderr, "layer probes failed: %s\n",
                   probes.status().ToString().c_str());
      return 1;
    }
    const double plain_ops_s = OpsPerSecond(plain);
    Add(metrics, "trace.overhead_frac",
        plain_ops_s > 0 ? 1 - OpsPerSecond(traced) / plain_ops_s : 0);
    AddLatency(metrics, "client.write", traced, traced.writes);
    AddLatency(metrics, "client.read", traced, traced.reads);
    Add(metrics, "core.unexplained_write_us",
        workload->UnexplainedWriteUs(*probes, Latency(plain, plain.writes).first));
    Add(metrics, "core.unexplained_read_us",
        workload->UnexplainedReadUs(*probes, Latency(plain, plain.reads).first));
    // The deeper tail the end-to-end p90 leaves out, from the untraced half.
    Add(metrics, "untraced.write_p99_us", Latency(plain, plain.writes, 0.99).second);
    Add(metrics, "untraced.read_p99_us", Latency(plain, plain.reads, 0.99).second);
    for (const auto& [name, value] : *probes) Add(metrics, name, value);

    const std::vector<SpanRecord> spans = Tracer::Collect();
    const std::vector<LayerRow> rows = Tracer::Summarize(spans);
    PrintLayerTable(rows);
    extra += ", \"dropped_spans\": " + std::to_string(Tracer::dropped()) +
             ", \"layers\": " + LayersJson(rows);
    if (!opt.out_dir.empty()) {
      const std::string path = opt.out_dir + "/" + opt.workload + ".seed" +
                               std::to_string(opt.seed) + ".chrome.json";
      if (!Tracer::WriteChromeTrace(spans, path, kTraceFileSpans)) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
      }
    }
  }

  const bool correct = Verdict::ok();
  if (!correct) {
    std::fprintf(stderr, "OUTPUT MISMATCH: %s\n", Verdict::message().c_str());
  }
  const std::string line =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted) +
      ", \"failed\": " + std::to_string(failed) +
      ", \"metrics\": " + MetricsJson(metrics) + "}";

  if (!opt.out_dir.empty()) {
    std::string setups_json = "[";
    for (std::size_t i = 0; i < setup_s.size(); ++i) {
      setups_json += (i ? ", " : "") + Num(setup_s[i]);
    }
    setups_json += "]";
    const std::string file =
        "{\"workload\": \"" + opt.workload + "\", \"seed\": " +
        std::to_string(opt.seed) + ", \"seconds\": " + Num(opt.seconds) +
        ", \"trace\": " + (opt.trace ? "1" : "0") +
        ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
        ", \"setup_runs_s\": " + setups_json + extra +
        ", \"mismatch\": \"" + (correct ? "" : Verdict::message()) +
        "\",\n \"result\": " + line + "}\n";
    const std::string path = opt.out_dir + "/" + opt.workload + ".seed" +
                             std::to_string(opt.seed) + ".trace" +
                             (opt.trace ? "1" : "0") + ".json";
    if (!WriteFile(path, file)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

/// Every workload briefly, untraced and traced, at smoke sizes.
int Smoke(Options opt) {
  for (std::string_view name : kWorkloads) {
    for (bool trace : {false, true}) {
      opt.workload = std::string(name);
      opt.trace = trace;
      opt.seconds = 0.4;
      const int rc = RunOne(opt, Sizes::Smoke(), Plan{1, 0.1, 0.01});
      if (rc != 0) return rc;
    }
  }
  std::printf("smoke ok\n");
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: lwfs_suite --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out DIR]\n"
               "       lwfs_suite --smoke [--out DIR]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--out" && has_value) {
      opt.out_dir = argv[++i];
    } else {
      return Usage();
    }
  }
  if (!opt.out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opt.out_dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create %s\n", opt.out_dir.c_str());
      return 1;
    }
  }
  if (opt.smoke) return Smoke(opt);
  if (opt.workload.empty() || !(opt.seconds > 0)) return Usage();
  return RunOne(opt, Sizes{}, Plan{});
}

}  // namespace
}  // namespace lwfs::suite

int main(int argc, char** argv) { return lwfs::suite::Main(argc, argv); }

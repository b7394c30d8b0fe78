// whisper_bench — shared declarations of the repository benchmark.
//
// One process runs one named workload from a seed, checks its outputs and
// reports named metrics with units (README.md in this directory lists them,
// with the end-to-end metric each per-layer metric should move). The
// benchmark only calls the libraries' public functions; every span it
// records is taken here, around those calls.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace whisper::bench {

using Clock = std::chrono::steady_clock;

/// Parsed command line (see main.cpp for the flag table).
struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 10;
  bool trace = false;
  std::string trace_out;  // Chrome trace-event JSON of the traced run
  std::string commit;     // source identity recorded beside the result
};

/// Host threads a workload may use: one per hardware thread.
[[nodiscard]] int host_threads();

/// SplitMix64 of (a, b): every seeded input of a workload is derived from
/// the --seed value through this, so one seed names one input set.
[[nodiscard]] std::uint64_t mix(std::uint64_t a, std::uint64_t b);

[[nodiscard]] double seconds_since(Clock::time_point t0);
[[nodiscard]] double ms_between(Clock::time_point a, Clock::time_point b);

/// Nearest-rank percentile (p in [0, 1]) of an unsorted sample; 0 if empty.
[[nodiscard]] double percentile(std::vector<double> sample, double p);
[[nodiscard]] inline double median(std::vector<double> sample) {
  return percentile(std::move(sample), 0.5);
}

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Metrics in the order they were first set.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const std::vector<Metric>& items() const noexcept {
    return items_;
  }

 private:
  std::vector<Metric> items_;
};

/// Simulated counts that depend only on (workload, seed): a change that
/// only speeds the simulator up must leave every one of them identical.
struct Fingerprint {
  std::uint64_t sim_cycles = 0;
  std::uint64_t probes = 0;
  std::uint64_t successes = 0;
  std::uint64_t dtlb_walks = 0;
  /// Decode-cache misses need the machine, so only traced runs have them.
  bool has_decode = false;
  std::uint64_t decode_misses = 0;

  [[nodiscard]] bool same_counts(const Fingerprint& o) const noexcept {
    return sim_cycles == o.sim_cycles && probes == o.probes &&
           successes == o.successes && dtlb_walks == o.dtlb_walks;
  }
};

/// What one workload run hands back to main().
struct Outcome {
  std::uint64_t attempted = 0;  // trials or requests attempted
  std::uint64_t failed = 0;     // of those, degraded / errored / late
  /// Output-check failures; any entry makes the run incorrect.
  std::vector<std::string> problems;
  Fingerprint fingerprint;
  Metrics metrics;
  /// Human-readable lines printed ahead of the result line.
  std::vector<std::string> notes;

  void fail(const std::string& why) { problems.push_back(why); }
};

/// 1 − failed/attempted: the end-to-end metric that stands for the failed
/// share. An end-to-end metric must not read 0, because its regression
/// bound is a share of its median.
[[nodiscard]] double ok_share(const Outcome& out);

/// One host-time span, Chrome trace-event style ("X" complete event).
struct Span {
  const char* name = "";
  std::uint32_t tid = 0;
  std::uint64_t id = 0;  // trial task or request id shared by child spans
  Clock::time_point start;
  Clock::time_point end;
};

/// Write spans as Chrome trace-event JSON (chrome://tracing, Perfetto).
/// Returns false when the file cannot be written.
bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        Clock::time_point origin);

Outcome run_matrix_cold(const Options& opt);
Outcome run_sweep_deep(const Options& opt);
Outcome run_serve_open(const Options& opt);

}  // namespace whisper::bench

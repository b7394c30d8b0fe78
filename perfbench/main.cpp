// whisper_bench — run one workload of the repository benchmark.
//
//   whisper_bench --workload NAME --seed N [--seconds S] [--trace 0|1]
//                 [--trace-out PATH] [--commit ID]
//
// Workloads: matrix_cold, sweep_deep, serve_open (README.md says why each
// exists). --trace 0 measures the end-to-end metrics; --trace 1 runs the
// traced pass and reports the per-layer metrics, writing its spans to
// --trace-out as Chrome trace-event JSON. Human-readable lines come first;
// the last line of stdout is the result:
//
//   {"correct":true,"attempted":N,"failed":N,"metrics":{"name":{"value":V,
//    "unit":"U"},...}}
//
// Bad input — an unknown flag or workload, a missing or non-numeric value —
// exits 2. A failed output check exits 1 after printing the result with
// "correct": false.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "stats/json.h"

namespace {

using whisper::bench::Options;
using whisper::bench::Outcome;

[[noreturn]] void usage_error(const std::string& why) {
  std::fprintf(stderr,
               "whisper_bench: %s\n"
               "usage: whisper_bench --workload matrix_cold|sweep_deep|"
               "serve_open --seed N [--seconds S] [--trace 0|1] "
               "[--trace-out PATH] [--commit ID]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text,
                        std::uint64_t lo, std::uint64_t hi) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos)
    usage_error(flag + " wants a non-negative integer, got '" + text + "'");
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), nullptr, 10);
  if (errno == ERANGE || v < lo || v > hi)
    usage_error(flag + " out of range [" + std::to_string(lo) + ", " +
                std::to_string(hi) + "]: " + text);
  return v;
}

Options parse_args(int argc, char** argv) {
  Options opt;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      if (value != "matrix_cold" && value != "sweep_deep" &&
          value != "serve_open")
        usage_error("unknown workload '" + value + "'");
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = parse_u64(flag, value, 0, UINT64_MAX);
      have_seed = true;
    } else if (flag == "--seconds") {
      opt.seconds = static_cast<int>(parse_u64(flag, value, 1, 600));
    } else if (flag == "--trace") {
      opt.trace = parse_u64(flag, value, 0, 1) == 1;
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else if (flag == "--commit") {
      opt.commit = value;
    } else {
      usage_error("unknown flag '" + flag + "'");
    }
  }
  if (!have_workload) usage_error("--workload is required");
  if (!have_seed) usage_error("--seed is required");
  return opt;
}

/// JSON has no NaN or infinity; a metric that is not finite is a bug.
std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// Keep every hardware thread busy for a moment before anything is timed.
/// On a virtual machine an idle vCPU runs several times slower for its
/// first second of load, which would otherwise land in set-up or the first
/// pass.
void wake_cpus() {
  const auto until = whisper::bench::Clock::now() + std::chrono::seconds(1);
  std::vector<std::jthread> spinners;
  for (int t = 0; t < whisper::bench::host_threads(); ++t)
    spinners.emplace_back([until] {
      volatile std::uint64_t x = 1;
      while (whisper::bench::Clock::now() < until)
        for (int i = 0; i < 100000; ++i) x = x * 6364136223846793005ULL + 1;
    });
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  wake_cpus();
  Outcome out;
  try {
    if (opt.workload == "matrix_cold")
      out = whisper::bench::run_matrix_cold(opt);
    else if (opt.workload == "sweep_deep")
      out = whisper::bench::run_sweep_deep(opt);
    else
      out = whisper::bench::run_serve_open(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "whisper_bench: %s failed: %s\n",
                 opt.workload.c_str(), e.what());
    return 1;
  }

  for (const auto& m : out.metrics.items())
    if (!std::isfinite(m.value))
      out.problems.push_back("metric " + m.name + " is not finite");
  for (const std::string& note : out.notes) std::printf("%s\n", note.c_str());
  for (const std::string& p : out.problems)
    std::printf("CHECK FAILED: %s\n", p.c_str());

  whisper::stats::JsonWriter host;
  host.begin_object();
  host.key("workload");
  host.value(opt.workload);
  host.key("seed");
  host.value(opt.seed);
  host.key("seconds");
  host.value(opt.seconds);
  host.key("trace");
  host.value(opt.trace);
  host.key("nproc");
  host.value(whisper::bench::host_threads());
  host.key("compiler");
  host.value(WHISPER_BENCH_COMPILER);
  host.key("build_type");
  host.value(WHISPER_BENCH_BUILD_TYPE);
  host.key("commit");
  host.value(opt.commit.empty() ? "unknown" : opt.commit);
  host.end_object();
  std::printf("host %s\n", host.str().c_str());

  const bool correct = out.problems.empty();
  std::string line = std::string("{\"correct\":") +
                     (correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(out.attempted) +
                     ",\"failed\":" + std::to_string(out.failed) +
                     ",\"metrics\":{";
  bool first = true;
  for (const auto& m : out.metrics.items()) {
    line += std::string(first ? "" : ",") + "\"" + m.name +
            "\":{\"value\":" + number(m.value) + ",\"unit\":\"" + m.unit +
            "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// Shared helpers for the experiment-reproduction harnesses.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cli/flags.h"
#include "isa/isa.h"
#include "obs/metrics.h"
#include "stats/json.h"
#include "stats/rng.h"

namespace whisper::bench {

inline std::vector<std::uint8_t> random_bytes(std::size_t n,
                                              std::uint64_t seed) {
  stats::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_below(256));
  return out;
}

inline std::array<std::uint64_t, isa::kNumRegs> regs_with(
    std::initializer_list<std::pair<isa::Reg, std::uint64_t>> kv) {
  std::array<std::uint64_t, isa::kNumRegs> regs{};
  for (const auto& [r, v] : kv) regs[static_cast<std::size_t>(r)] = v;
  return regs;
}

inline void heading(const std::string& title) {
  std::printf("\n%s\n%s\n", title.c_str(),
              std::string(title.size(), '=').c_str());
}

inline void subheading(const std::string& title) {
  std::printf("\n%s\n%s\n", title.c_str(),
              std::string(title.size(), '-').c_str());
}

inline const char* mark(bool ok) { return ok ? "✓" : "✗"; }

/// The runner flags the runner-backed harnesses share (docs/REPRODUCING.md
/// "Flags: what each binary reads"). A binary lists the ones it reads in
/// its own table.
inline const cli::Flag kJobsFlag{
    .name = "--jobs", .kind = cli::Kind::Int, .def = "1",
    .help = "worker threads, 0 or auto = all cores; results never change",
    .min = 0, .zero_word = "auto"};
inline const cli::Flag kProgressFlag{
    .name = "--progress", .help = "per-trial completion lines on stderr"};
inline const cli::Flag kJsonFlag{.name = "--json", .kind = cli::Kind::String,
                                 .help = "write the run's trajectory as JSON"};
inline const cli::Flag kTraceOutFlag{
    .name = "--trace-out", .kind = cli::Kind::String,
    .help = "write a Chrome trace-event JSON of a representative execution"};
inline const cli::Flag kMetricsOutFlag{
    .name = "--metrics-out", .kind = cli::Kind::String,
    .help = "write every measurement as a metrics registry (.csv = CSV)"};

/// `table` plus the fault-tolerance knobs apply_fault_args() reads
/// (whisper::runner's recovery layer — docs/ARCHITECTURE.md "Failure
/// semantics & fault injection").
inline cli::Table with_fault_flags(cli::Table table) {
  table.insert(table.end(), {
      {.name = "--retries", .kind = cli::Kind::Int, .def = "0",
       .help = "extra attempts per failed trial", .min = 0},
      {.name = "--trial-cycle-budget", .kind = cli::Kind::Uint, .def = "0",
       .help = "simulated-cycle cap per trial attempt (0 = off)"},
      {.name = "--trial-wall-budget", .kind = cli::Kind::Double, .def = "0",
       .help = "host wall-clock seconds per trial attempt (0 = off)",
       .min = 0},
      {.name = "--verify-reset",
       .help = "digest-check pooled machines after reset()"},
      {.name = "--fault-plan", .kind = cli::Kind::String,
       .help = "seeded fault injection, e.g. \"throw@2;corrupt@5\""},
  });
  return table;
}

/// Copy the fault-tolerance knobs onto a runner::RunSpec (templated so this
/// header needs no runner dependency; any struct with the same field names
/// works).
template <typename Spec>
inline void apply_fault_args(Spec& spec, const cli::Args& a) {
  spec.retries = a.integer("--retries");
  spec.trial_cycle_budget = a.uint("--trial-cycle-budget");
  spec.trial_wall_budget = a.real("--trial-wall-budget");
  spec.verify_reset = a.has("--verify-reset");
  spec.fault_plan = a.str("--fault-plan");
}

/// --json convention: re-parse `body` (a harness that emits malformed JSON
/// has a bug) and write it with a trailing newline. Says why on stderr and
/// returns false when either step fails.
inline bool write_json(const std::string& program, const std::string& path,
                       const std::string& body, const std::string& what) {
  try {
    (void)stats::json_parse(body);
  } catch (const stats::JsonError& e) {
    std::fprintf(stderr, "%s: generated invalid JSON (bug): %s\n",
                 program.c_str(), e.what());
    return false;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "%s: cannot open %s for writing\n", program.c_str(),
                 path.c_str());
    return false;
  }
  std::fwrite(body.data(), 1, body.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("\n(%s written to %s)\n", what.c_str(), path.c_str());
  return true;
}

/// --metrics-out convention: the extension picks the format.
inline bool metrics_path_is_csv(const std::string& path) {
  return path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
}

inline bool write_metrics(const obs::MetricsRegistry& reg,
                          const std::string& path) {
  const bool ok = metrics_path_is_csv(path) ? reg.write_csv_file(path)
                                            : reg.write_json_file(path);
  if (ok) std::printf("\n(metrics written to %s)\n", path.c_str());
  return ok;
}

}  // namespace whisper::bench

// Noise sweep: channel robustness under interference, fixed vs adaptive.
//
// Walks a noise profile (default: desktop) through intensity steps and runs
// each requested attack twice per step — once with its fixed default batch
// count and once with adaptive escalation (batches double until the decode
// confidence clears the threshold or the budget caps it). The table shows
// where the fixed configuration starts mis-decoding and how many extra
// probes the adaptive loop spends to stay below its error target; `gave_up`
// counts bytes reported as unrecoverable instead of silently wrong.
//
// Every cell is a whisper::runner::RunSpec fanned out through one Executor,
// so `--jobs N` parallelises the sweep with results bit-identical to
// `--jobs 1`. The --json trajectory deliberately contains no wall-clock
// fields for the same reason: its bytes are identical whatever --jobs is.
//
// The flag table in main() lists what the sweep reads on top of the shared
// runner flags (bench_util.h).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/attacks/registry.h"
#include "noise/noise.h"
#include "runner/json_writer.h"
#include "runner/runner.h"

using namespace whisper;

namespace {

struct Cell {
  std::string attack;
  double intensity = 0.0;
  bool adaptive = false;
  runner::RunResult result;

  [[nodiscard]] double error_rate() const {
    return result.total_bytes
               ? static_cast<double>(result.total_byte_errors) /
                     static_cast<double>(result.total_bytes)
               : (result.trials.empty()
                      ? 0.0
                      : 1.0 - static_cast<double>(result.successes) /
                                  static_cast<double>(result.trials.size()));
  }
  [[nodiscard]] double probes_per_byte() const {
    const std::size_t denom =
        result.total_bytes ? result.total_bytes : result.trials.size();
    return denom ? static_cast<double>(result.total_probes) /
                       static_cast<double>(denom)
                 : 0.0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  const cli::Args args = cli::parse_or_exit(
      "noise_sweep",
      bench::with_fault_flags({
          bench::kJobsFlag, bench::kProgressFlag, bench::kJsonFlag,
          bench::kMetricsOutFlag,
          {.name = "--noise-profile", .kind = cli::Kind::Choice,
           .def = "desktop", .help = "preset to sweep",
           .choices = {"quiet", "desktop", "noisy-server"}},
          {.name = "--attacks", .kind = cli::Kind::List, .def = "cc,md,rsb",
           .help = "registry attacks to sweep",
           .choices = core::attack_names()},
          {.name = "--steps", .kind = cli::Kind::Int, .def = "4",
           .help = "intensity steps 0, 1/N, ..., 1 x the preset", .min = 0},
          {.name = "--trials", .kind = cli::Kind::Int, .def = "3",
           .help = "trials per cell", .min = 1},
          {.name = "--bytes", .kind = cli::Kind::Uint, .def = "16",
           .help = "payload bytes per trial", .min = 1},
          {.name = "--budget", .kind = cli::Kind::Int, .def = "0",
           .help = "adaptive batch budget (0 = 8x the initial count)",
           .min = 0},
          {.name = "--threshold", .kind = cli::Kind::Double, .def = "0.5",
           .help = "adaptive confidence threshold", .min = 0, .max = 1},
      }),
      argc, argv);
  const int steps = args.integer("--steps");
  const int trials = args.integer("--trials");
  const std::size_t bytes = args.uint("--bytes");
  const double threshold = args.real("--threshold");
  const std::string json = args.str("--json");
  const std::string metrics_out = args.str("--metrics-out");
  const auto base = noise::NoiseProfile::by_name(args.str("--noise-profile"));

  bench::heading("Noise sweep — " + base->name +
                 " profile, fixed vs adaptive decoding");

  // Cell grid: attack × intensity step × {fixed, adaptive}, all specs
  // through one run_many so any --jobs fills the pool.
  std::vector<Cell> cells;
  std::vector<runner::RunSpec> specs;
  for (const std::string& attack : args.list("--attacks")) {
    for (int s = 0; s <= steps; ++s) {
      const double factor =
          steps > 0 ? static_cast<double>(s) / steps : 1.0;
      for (const bool adaptive : {false, true}) {
        runner::RunSpec spec;
        spec.attack = attack;
        spec.trials = trials;
        spec.base_seed = 0x5109eULL;
        spec.noise = base->scaled(factor);
        spec.payload_bytes = bytes;
        spec.payload_seed = 0xbeefULL;
        spec.rounds = 2;
        spec.adaptive = adaptive;
        spec.confidence_threshold = threshold;
        spec.batch_budget = args.integer("--budget");
        bench::apply_fault_args(spec, args);
        cells.push_back({attack, factor, adaptive, {}});
        specs.push_back(spec);
      }
    }
  }

  runner::Executor ex(args.integer("--jobs"));
  const std::vector<runner::RunResult> results =
      runner::run_many(specs, ex, args.has("--progress"));
  for (std::size_t i = 0; i < cells.size(); ++i)
    cells[i].result = results[i];

  std::printf("%-7s %-10s %-9s %-8s %-10s %-8s %-10s\n", "attack",
              "intensity", "mode", "err%", "probes/B", "gave_up", "conf");
  std::printf("%s\n", std::string(68, '-').c_str());
  for (const Cell& c : cells) {
    std::printf("%-7s %-10.2f %-9s %-8.2f %-10.1f %-8zu %-10.2f\n",
                c.attack.c_str(), c.intensity,
                c.adaptive ? "adaptive" : "fixed", 100.0 * c.error_rate(),
                c.probes_per_byte(), c.result.total_gave_up,
                c.result.confidence.mean);
  }
  std::printf("\n(fixed = the attack's default batch count; adaptive "
              "escalates until the vote margin\n clears %.2f or the budget "
              "caps it — gave_up counts bytes flagged unrecoverable)\n",
              threshold);

  if (!json.empty()) {
    // Deterministic trajectory: no wall-clock, no job count — bytes are
    // identical for any --jobs (the tier-2 check depends on this).
    runner::JsonWriter w;
    w.begin_object();
    w.key("profile");
    w.value(base->name);
    w.key("steps");
    w.value(steps);
    w.key("trials");
    w.value(trials);
    w.key("payload_bytes");
    w.value(static_cast<std::uint64_t>(bytes));
    w.key("threshold");
    w.value(threshold);
    w.key("cells");
    w.begin_array();
    for (const Cell& c : cells) {
      w.begin_object();
      w.key("attack");
      w.value(c.attack);
      w.key("intensity");
      w.value(c.intensity);
      w.key("adaptive");
      w.value(c.adaptive);
      w.key("trials");
      w.value(static_cast<std::uint64_t>(c.result.trials.size()));
      w.key("successes");
      w.value(static_cast<std::uint64_t>(c.result.successes));
      w.key("bytes");
      w.value(static_cast<std::uint64_t>(c.result.total_bytes));
      w.key("byte_errors");
      w.value(static_cast<std::uint64_t>(c.result.total_byte_errors));
      w.key("error_rate");
      w.value(c.error_rate());
      w.key("probes");
      w.value(static_cast<std::uint64_t>(c.result.total_probes));
      w.key("probes_per_byte");
      w.value(c.probes_per_byte());
      w.key("gave_up");
      w.value(static_cast<std::uint64_t>(c.result.total_gave_up));
      w.key("confidence_mean");
      w.value(c.result.confidence.mean);
      w.key("sim_seconds_mean");
      w.value(c.result.seconds.mean);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    if (!bench::write_json("noise_sweep", json, w.str(), "sweep trajectory"))
      return 1;
  }

  if (!metrics_out.empty()) {
    obs::MetricsRegistry reg;
    for (const Cell& c : cells) {
      char prefix[96];
      std::snprintf(prefix, sizeof prefix, "%s.i%02d.%s.", c.attack.c_str(),
                    static_cast<int>(100.0 * c.intensity + 0.5),
                    c.adaptive ? "adaptive" : "fixed");
      reg.merge(runner::to_metrics(c.result, prefix));
    }
    bench::write_metrics(reg, metrics_out);
  }
  return 0;
}

// The two runner-sweep workloads.
//
// matrix_cold — the attack × defense × CPU × noise systematization grid
//   (docs/DEFENSE_MATRIX.md) with one trial per cell. A pass walks 50
//   machine keys (stack × CPU × noise) per attack, far more than the four
//   machines each worker's MachinePool keeps, so nearly every acquire misses:
//   the host time is machine construction, snapshot(), cold decode caches
//   and the noise engine, while the simulation itself mostly fast-forwards
//   (the desktop-noise half fast-forwards least).
//
// sweep_deep — few cells, many trials: {rewind, v1} on two presets, noise
//   off, no defenses, on one executor whose pools were warmed in set-up.
//   Acquire and decode almost vanish; the host time is the structural
//   stepper, which fast-forward refuses on nearly every cycle of these two
//   attacks.
//
// Both run passes of runner::run_many until --seconds is spent; every cell
// of every pass draws its own trial and payload seeds from --seed, so every
// pass is new work.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "defense/defense.h"
#include "runner/executor.h"
#include "runner/runner.h"
#include "traced_trials.h"
#include "uarch/config.h"

namespace whisper::bench {

namespace {

/// Set-up is timed this many times per run and reported as the median.
constexpr int kSetupRepeats = 5;
/// Swept trials re-run on the fresh-construction path per run.
constexpr std::size_t kCheckSamples = 6;
/// Set-up does the same work whatever the seed: its warm-up trials use
/// this one.
constexpr std::uint64_t kWarmSeed = 0x3a53;

struct SweepShape {
  const char* name = "";
  std::vector<runner::RunSpec> cells;  // seeds are set per pass
  /// Pools are left empty in set-up; the grid's key churn keeps them cold.
  bool cold = false;
  /// Cheap specs whose trials build every machine key on the warm executor.
  std::vector<runner::RunSpec> warmup;
};

runner::RunSpec cell(const std::string& attack, uarch::CpuModel model) {
  runner::RunSpec spec;
  spec.attack = attack;
  spec.model = model;
  spec.trials = 1;
  return spec;
}

SweepShape matrix_cold_shape() {
  SweepShape s;
  s.name = "matrix_cold";
  s.cold = true;
  // Five stacks with different mechanisms: the baseline, one kernel
  // defense, two pipeline defenses and the paper's kernel hardening stack.
  const char* stacks[] = {"none", "kpti", "lfence", "retpoline",
                          "kpti+flare+fgkaslr"};
  for (const char* attack : {"cc", "md", "zbl", "rsb", "kaslr"})
    for (const char* stack : stacks)
      for (const uarch::CpuModel model : uarch::all_models())
        for (const char* nz : {"off", "desktop"}) {
          runner::RunSpec spec = cell(attack, model);
          spec.defenses = defense::parse_list(stack);
          spec.noise = *noise::NoiseProfile::by_name(nz);
          spec.payload_bytes = 4;
          s.cells.push_back(spec);  // kaslr keeps its default rounds
        }
  return s;
}

SweepShape sweep_deep_shape() {
  SweepShape s;
  s.name = "sweep_deep";
  const uarch::CpuModel models[] = {uarch::CpuModel::KabyLakeI7_7700,
                                    uarch::CpuModel::Zen3Ryzen5_5600G};
  // Longest trials first, so the short v1 trials fill each pass's tail.
  for (const char* attack : {"rewind", "v1"})
    for (const uarch::CpuModel model : models) {
      runner::RunSpec spec = cell(attack, model);
      spec.trials = attack == std::string("rewind") ? 6 : 24;
      spec.payload_bytes = 2;
      s.cells.push_back(spec);
    }
  for (const uarch::CpuModel model : models) {
    runner::RunSpec spec = cell("cc", model);
    spec.trials = 2 * host_threads();
    spec.payload_bytes = 1;
    spec.batches = 1;
    s.warmup.push_back(spec);
  }
  return s;
}

std::vector<runner::RunSpec> pass_specs(const SweepShape& shape,
                                        std::uint64_t seed, std::size_t pass) {
  std::vector<runner::RunSpec> specs = shape.cells;
  const std::uint64_t pass_seed = mix(seed, pass);
  for (std::size_t c = 0; c < specs.size(); ++c) {
    specs[c].base_seed = mix(pass_seed, 2 * c);
    // Each cell leaks its own bytes: decoding cost depends on the secret.
    specs[c].payload_seed = mix(pass_seed, 2 * c + 1);
  }
  return specs;
}

/// The swept results flattened in task order, as trial lines.
std::vector<std::string> swept_lines(const std::vector<runner::RunResult>& rs) {
  std::vector<std::string> lines;
  for (const runner::RunResult& r : rs)
    for (std::size_t i = 0; i < r.trials.size(); ++i)
      lines.push_back(trial_line(i, {r.trials[i], r.outcomes[i]}));
  return lines;
}

std::vector<runner::TrialResult> swept_trials(
    const std::vector<runner::RunResult>& rs) {
  std::vector<runner::TrialResult> out;
  for (const runner::RunResult& r : rs)
    out.insert(out.end(), r.trials.begin(), r.trials.end());
  return out;
}

std::uint64_t degraded(const std::vector<runner::RunResult>& rs) {
  std::uint64_t n = 0;
  for (const runner::RunResult& r : rs) n += r.failed;
  return n;
}

/// Set-up: validate the grid and build the executor every pass runs on,
/// with its pools warmed or left cold as the workload asks.
std::unique_ptr<runner::Executor> set_up(const SweepShape& shape,
                                         std::uint64_t seed) {
  for (const runner::RunSpec& spec : pass_specs(shape, seed, 0))
    runner::validate(spec);
  auto ex = std::make_unique<runner::Executor>(host_threads());
  if (shape.cold) {
    // First-use costs of every attack and defense land here rather than in
    // the first timed pass: one fresh-construction trial per distinct
    // attack.
    std::vector<std::string> seen;
    for (const runner::RunSpec& spec : shape.cells)
      if (std::find(seen.begin(), seen.end(), spec.attack) == seen.end()) {
        seen.push_back(spec.attack);
        (void)runner::run_trial(spec, kWarmSeed);
      }
  } else {
    std::vector<runner::RunSpec> warm = shape.warmup;
    for (runner::RunSpec& spec : warm) spec.base_seed = kWarmSeed;
    (void)runner::run_many(warm, *ex);
  }
  return ex;
}

struct Pass {
  double wall_s = 0.0;
  std::vector<runner::RunResult> results;
};

Pass run_pass(runner::Executor& ex, const std::vector<runner::RunSpec>& specs) {
  Pass pass;
  const Clock::time_point t0 = Clock::now();
  pass.results = runner::run_many(specs, ex);
  pass.wall_s = seconds_since(t0);
  return pass;
}

/// Output check: re-run a seeded sample of pass-0 trials on a freshly
/// constructed machine; each trial line must equal the swept one.
void check_sample(const std::vector<runner::RunSpec>& specs,
                  const std::vector<runner::RunResult>& results,
                  std::uint64_t seed, Outcome& out) {
  const std::vector<TrialTask> tasks = tasks_of(specs);
  const std::vector<std::string> swept = swept_lines(results);
  for (std::size_t j = 0; j < std::min(kCheckSamples, tasks.size()); ++j) {
    const std::size_t k = mix(seed, 0xc4ec + j) % tasks.size();
    const std::string fresh = trial_line(tasks[k].index, run_fresh(tasks[k]));
    if (fresh != swept[k])
      out.fail("trial " + std::to_string(k) + " of pass 0 (" +
               tasks[k].spec->label() + ") differs between the swept and "
               "fresh-construction paths");
  }
}

Outcome measure(const SweepShape& shape, const Options& opt) {
  Outcome out;
  std::vector<double> setup_s;
  std::unique_ptr<runner::Executor> ex;
  for (int r = 0; r < kSetupRepeats; ++r) {
    ex.reset();  // tear the previous one down untimed
    const Clock::time_point t0 = Clock::now();
    ex = set_up(shape, opt.seed);
    setup_s.push_back(seconds_since(t0));
  }

  std::vector<double> wall_ms;
  std::uint64_t cycles = 0;
  double busy_s = 0.0;
  std::vector<runner::RunSpec> first_specs;
  Pass first;
  const Clock::time_point start = Clock::now();
  for (std::size_t p = 0;; ++p) {
    std::vector<runner::RunSpec> specs = pass_specs(shape, opt.seed, p);
    Pass pass = run_pass(*ex, specs);
    for (const runner::RunResult& r : pass.results) {
      out.attempted += r.attempted;
      for (const runner::TrialResult& t : r.trials) cycles += t.cycles;
    }
    out.failed += degraded(pass.results);
    busy_s += pass.wall_s;
    wall_ms.push_back(pass.wall_s * 1e3);
    if (p == 0) {
      first_specs = std::move(specs);
      first = std::move(pass);
    }
    if (seconds_since(start) >= opt.seconds) break;
  }

  check_sample(first_specs, first.results, opt.seed, out);
  out.fingerprint = fingerprint(swept_trials(first.results));
  out.notes.push_back(fingerprint_note(shape.name, opt.seed, out.fingerprint));
  std::string walls;
  for (const double w : wall_ms) walls += " " + std::to_string(std::lround(w));
  out.notes.push_back(std::string(shape.name) + ": " +
                      std::to_string(wall_ms.size()) + " passes of " +
                      std::to_string(tasks_of(first_specs).size()) +
                      " trials, wall ms:" + walls);

  Metrics& m = out.metrics;
  m.set("setup_s", median(setup_s), "s");
  m.set("peak_rss_mb", peak_rss_mb(), "MB");
  m.set("ok_share", ok_share(out), "ratio");
  // Rates over the whole run rather than per pass: a pass ends in a tail
  // where workers idle, and a long run averages the host's slow spells.
  m.set("trials_per_s", static_cast<double>(out.attempted) / busy_s, "1/s");
  m.set("sim_mcyc_per_s", static_cast<double>(cycles) / busy_s / 1e6,
        "Mcyc/s");
  // A sweep's request is one pass, and it has one load level, its full
  // width, so both rates report the slowest pass.
  m.set("req_p99_ms.low", percentile(wall_ms, 0.99), "ms");
  m.set("req_p99_ms.high", percentile(wall_ms, 0.99), "ms");
  return out;
}

Outcome trace(const SweepShape& shape, const Options& opt) {
  Outcome out;
  const std::unique_ptr<runner::Executor> ex = set_up(shape, opt.seed);
  const std::vector<runner::RunSpec> specs = pass_specs(shape, opt.seed, 0);
  const Pass plain = run_pass(*ex, specs);
  const Clock::time_point origin = Clock::now();
  const TracedRun traced =
      run_traced(tasks_of(specs), !shape.cold);

  const std::vector<std::string> swept = swept_lines(plain.results);
  const std::vector<TrialTask> tasks = tasks_of(specs);
  for (std::size_t k = 0; k < tasks.size(); ++k) {
    ++out.attempted;
    if (!traced.trials[k].trial.outcome.ok) ++out.failed;
    if (trial_line(tasks[k].index, traced.trials[k].trial) != swept[k])
      out.fail("traced trial " + std::to_string(k) +
               " differs from the untraced sweep");
  }
  out.fingerprint = fingerprint(traced);
  if (!out.fingerprint.same_counts(fingerprint(swept_trials(plain.results))))
    out.fail("traced and untraced runs of one seed disagree on exact counts");
  out.notes.push_back(fingerprint_note(shape.name, opt.seed, out.fingerprint));

  Metrics& m = out.metrics;
  add_layer_metrics(traced, m);
  add_idle_serve_metrics(m);
  m.set("trace.overhead_share", traced.wall_s / plain.wall_s - 1.0, "ratio");
  if (!opt.trace_out.empty() &&
      !write_chrome_trace(opt.trace_out, traced.spans, origin))
    out.fail("cannot write " + opt.trace_out);
  return out;
}

}  // namespace

Outcome run_matrix_cold(const Options& opt) {
  const SweepShape shape = matrix_cold_shape();
  return opt.trace ? trace(shape, opt) : measure(shape, opt);
}

Outcome run_sweep_deep(const Options& opt) {
  const SweepShape shape = sweep_deep_shape();
  return opt.trace ? trace(shape, opt) : measure(shape, opt);
}

}  // namespace whisper::bench

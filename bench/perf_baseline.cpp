// Perf baseline: the snapshot/reset trial fast path vs fresh construction.
//
// For each requested registry attack this harness times the same RunSpec
// three ways:
//   fresh_jobs1  — reuse_machine off, --jobs 1 (machine construction per
//                  trial)
//   reset_jobs1  — pooled snapshot reset, --jobs 1 (the shipping default
//                  path)
//   reset_jobsN  — pooled snapshot reset at the requested --jobs
// and reports host trials/sec, simulated cycles/sec and the
// reset-vs-fresh speedup. Results (bytes decoded, probes, ToTE, PMU) are
// bit-identical across every cell — tests/test_machine_reset.cpp pins
// that — so this table is purely about host throughput; the --json
// trajectory (BENCH_perf.json under ctest) is the regression record for
// it. docs/PERFORMANCE.md explains how to read each column.
//
// The flag table in main() lists every flag it reads.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/attacks/registry.h"
#include "runner/json_writer.h"
#include "runner/runner.h"

using namespace whisper;

namespace {

/// One timed fan-out, reduced to rates. Wall time comes from the
/// RunResult's own fan-out clock, so the numbers cover exactly the trial
/// loop (construction/reset included, merge excluded).
struct Measurement {
  double wall_seconds = 0.0;
  double trials_per_sec = 0.0;
  double sim_cycles_per_sec = 0.0;
};

Measurement measure(runner::RunSpec spec, bool reuse, int jobs,
                    bool progress) {
  spec.reuse_machine = reuse;
  runner::Executor ex(jobs);
  const runner::RunResult r = runner::run(spec, ex, progress);
  Measurement m;
  m.wall_seconds = r.wall_seconds;
  std::uint64_t sim_cycles = 0;
  for (const runner::TrialResult& t : r.trials) sim_cycles += t.cycles;
  if (r.wall_seconds > 0.0) {
    m.trials_per_sec =
        static_cast<double>(r.trials.size()) / r.wall_seconds;
    m.sim_cycles_per_sec = static_cast<double>(sim_cycles) / r.wall_seconds;
  }
  return m;
}

struct Row {
  std::string attack;
  Measurement fresh1;   // fresh construction, --jobs 1
  Measurement reset1;   // pooled reset, --jobs 1
  Measurement reset_n;  // pooled reset, --jobs N
  [[nodiscard]] double speedup() const {
    return fresh1.trials_per_sec > 0.0
               ? reset1.trials_per_sec / fresh1.trials_per_sec
               : 0.0;
  }
};

void json_measurement(runner::JsonWriter& w, const Measurement& m) {
  w.begin_object();
  w.key("wall_seconds");
  w.value(m.wall_seconds);
  w.key("trials_per_sec");
  w.value(m.trials_per_sec);
  w.key("sim_cycles_per_sec");
  w.value(m.sim_cycles_per_sec);
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  const cli::Args args = cli::parse_or_exit(
      "perf_baseline",
      {bench::kJobsFlag, bench::kProgressFlag, bench::kJsonFlag,
       bench::kMetricsOutFlag,
       {.name = "--attacks", .kind = cli::Kind::List,
        .help = "registry attacks to time (default: all)",
        .choices = core::attack_names()},
       {.name = "--trials", .kind = cli::Kind::Int, .def = "16",
        .help = "trials per measurement", .min = 1},
       {.name = "--bytes", .kind = cli::Kind::Uint, .def = "2",
        .help = "payload bytes per channel trial", .min = 1},
       {.name = "--batches", .kind = cli::Kind::Int, .def = "1",
        .help = "argmax batches per byte (kaslr: rounds)", .min = 1}},
      argc, argv);
  const int trials = args.integer("--trials");
  const std::size_t bytes = args.uint("--bytes");
  const int batches = args.integer("--batches");
  const std::string json = args.str("--json");
  const std::string metrics_out = args.str("--metrics-out");
  const bool progress = args.has("--progress");
  std::vector<std::string> attacks = args.list("--attacks");
  if (attacks.empty()) attacks = core::attack_names();
  const int jobs_n = runner::resolve_jobs(args.integer("--jobs"));

  bench::heading("Perf baseline — machine reset fast path vs fresh "
                 "construction");

  std::vector<Row> rows;
  for (const std::string& attack : attacks) {
    runner::RunSpec spec;
    spec.attack = attack;
    spec.trials = trials;
    spec.base_seed = 0xbe9cULL;
    spec.payload_bytes = bytes;
    spec.batches = batches;
    spec.rounds = batches;

    Row row;
    row.attack = attack;
    row.fresh1 = measure(spec, /*reuse=*/false, /*jobs=*/1, progress);
    row.reset1 = measure(spec, /*reuse=*/true, /*jobs=*/1, progress);
    row.reset_n = jobs_n == 1
                      ? row.reset1
                      : measure(spec, /*reuse=*/true, jobs_n, progress);
    rows.push_back(row);
  }

  std::printf("%-7s %11s %11s %8s %11s %11s\n", "attack", "fresh t/s",
              "reset t/s", "reset-x", "Mcyc/s",
              ("reset t/s j" + std::to_string(jobs_n)).c_str());
  std::printf("%s\n", std::string(64, '-').c_str());
  for (const Row& r : rows) {
    std::printf("%-7s %11.1f %11.1f %7.2fx %11.1f %11.1f\n",
                r.attack.c_str(), r.fresh1.trials_per_sec,
                r.reset1.trials_per_sec, r.speedup(),
                r.reset1.sim_cycles_per_sec / 1e6, r.reset_n.trials_per_sec);
  }
  std::printf("\n(%d trials per cell, %zu payload bytes, %d batches; every "
              "cell produces bit-identical\n results — the deltas are machine "
              "construction vs snapshot reset)\n",
              trials, bytes, batches);

  if (!json.empty()) {
    runner::JsonWriter w;
    w.begin_object();
    w.key("trials");
    w.value(trials);
    w.key("payload_bytes");
    w.value(static_cast<std::uint64_t>(bytes));
    w.key("batches");
    w.value(batches);
    w.key("jobs");
    w.value(jobs_n);
    w.key("attacks");
    w.begin_array();
    for (const Row& r : rows) {
      w.begin_object();
      w.key("attack");
      w.value(r.attack);
      w.key("fresh_jobs1");
      json_measurement(w, r.fresh1);
      w.key("reset_jobs1");
      json_measurement(w, r.reset1);
      w.key("reset_jobsN");
      json_measurement(w, r.reset_n);
      w.key("speedup");
      w.value(r.speedup());
      w.end_object();
    }
    w.end_array();
    w.end_object();
    if (!bench::write_json("perf_baseline", json, w.str(), "perf trajectory"))
      return 1;
  }

  if (!metrics_out.empty()) {
    obs::MetricsRegistry reg;
    for (const Row& r : rows) {
      reg.set_gauge(r.attack + ".fresh_jobs1.trials_per_sec",
                    r.fresh1.trials_per_sec);
      reg.set_gauge(r.attack + ".reset_jobs1.trials_per_sec",
                    r.reset1.trials_per_sec);
      reg.set_gauge(r.attack + ".reset_jobsN.trials_per_sec",
                    r.reset_n.trials_per_sec);
      reg.set_gauge(r.attack + ".speedup", r.speedup());
    }
    bench::write_metrics(reg, metrics_out);
  }
  return 0;
}

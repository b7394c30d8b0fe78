// whisper_cli — interactive playground for the library.
//
//   whisper_cli <models|tote|leak|kaslr|chaos|sweep|attacks|defenses>
//               [flags]
//
// commands() at the bottom of this file declares each subcommand's flags —
// exactly the ones it reads, with their ranges and defaults — and is the
// only list of them. A flag the subcommand does not read, a missing value,
// a malformed or out-of-range number (--cpu is 0..4, the serve wire's
// range) or an unknown --attack or --noise exits 2 naming the flag and
// prints the subcommand's flag table, so a typo or a retired flag cannot
// silently run the defaults. `whisper_cli --help` lists the commands and
// `whisper_cli <command> --help` prints the flag table, both on stdout with
// exit 0.
//
// --defense is repeatable and takes a defense::registry() spec,
// `name[:key=value]...` — e.g. `--defense kpti --defense window:depth=8`.
// `whisper_cli defenses` lists the registry.
//
// `chaos` is the fault-tolerance self-test: it runs the same spec twice —
// once clean, once under a seeded --fault-plan (see src/fault/fault.h for
// the plan grammar) with --retries enabled — then asserts the faulted run
// recovered every trial and is bit-identical to the clean one. Exit 0 only
// on full recovery; the per-class error counts are printed either way.
// The same fault flags work on `kaslr` sweeps.
//
// `sweep` is the distributed runner: it shards --trials across a pool of
// whisper_serve daemons (--endpoints takes a comma-separated list of
// `host:port`, `tcp:host:port`, `unix:/path` or `/path` addresses, the
// grammar of serve::parse_address) and merges the
// responses by trial index. Endpoint failures are survived, counted, and
// reassigned — the sweep completes as long as one daemon lives — and the
// merged stream is byte-identical to a local run of the same spec
// (invariant 13, docs/ARCHITECTURE.md); --verify recomputes the spec
// locally and checks exactly that. --flaky-plan injects deterministic
// transport faults (drop/shortread/stall, fault grammar over per-endpoint
// request ordinals) to rehearse failure handling without real packet loss.
//
// Attack NAMEs come from core::attack_registry() — `whisper_cli attacks`
// lists them; anything registered there is runnable here, including through
// `leak` (channel attacks move --secret; kaslr reports the found base).
// CPU index N follows Table 2 order: 0=i7-6700, 1=i7-7700, 2=i9-10980XE,
// 3=i9-13900K, 4=Ryzen 5600G. --noise picks an interference preset
// (off|quiet|desktop|noisy-server); --adaptive escalates batch counts until
// the decode confidence clears --confidence or --budget caps it.
//
// `kaslr --trials T --jobs J` goes through whisper::runner: independent
// simulated machines fan out across J worker threads with results
// bit-identical to --jobs 1 (docs/REPRODUCING.md). The Table 2 matrix is
// bench/table2_matrix.
//
// --trace-out writes a Chrome trace-event JSON of the command's pipeline
// activity (open it in chrome://tracing or ui.perfetto.dev); --metrics-out
// writes every counter the run touched as an obs::MetricsRegistry export
// (JSON, or CSV when the path ends in .csv). docs/REPRODUCING.md
// ("Inspecting a run") walks through both.
#include <cstdio>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "client/endpoint.h"
#include "client/sweep_client.h"
#include "client/wire.h"
#include "core/attacks/common.h"
#include "core/attacks/registry.h"
#include "core/gadgets.h"
#include "defense/defense.h"
#include "noise/noise.h"
#include "obs/chrome_trace.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/topdown.h"
#include "os/machine.h"
#include "runner/json_writer.h"
#include "runner/runner.h"
#include "serve/socket_transport.h"
#include "uarch/trace.h"

using namespace whisper;

namespace {

// Flags several commands share.
const cli::Flag kCpu{
    .name = "--cpu", .kind = cli::Kind::Int, .def = "1",
    .help = "CPU preset index in Table 2 order, see models", .min = 0,
    .max = static_cast<double>(uarch::all_models().size() - 1)};
const cli::Flag kDefense{.name = "--defense", .kind = cli::Kind::String,
                         .help = "defense spec name[:key=value]",
                         .repeat = true};
const cli::Flag kNoise{.name = "--noise", .kind = cli::Kind::Choice,
                       .def = "off", .help = "interference preset",
                       .choices = noise::NoiseProfile::preset_names()};
const cli::Flag kAdaptive{
    .name = "--adaptive",
    .help = "escalate batches until the decode is confident"};
const cli::Flag kSeed{.name = "--seed", .kind = cli::Kind::Uint,
                      .help = "base seed"};

cli::Flag attack_flag(std::string def) {
  return {.name = "--attack", .kind = cli::Kind::Choice,
          .def = std::move(def), .help = "registry attack, see attacks",
          .choices = core::attack_names()};
}

cli::Flag trials_flag(std::string def) {
  return {.name = "--trials", .kind = cli::Kind::Int, .def = std::move(def),
          .help = "trials", .min = 1};
}

uarch::CpuModel cpu_from(const cli::Args& args) {
  return uarch::all_models()[static_cast<std::size_t>(args.integer("--cpu"))];
}

/// The repeatable --defense flag as one DefenseSpec stack. Shared by every
/// command that builds a machine or a RunSpec.
std::vector<defense::DefenseSpec> defenses_from(const cli::Args& args) {
  std::vector<defense::DefenseSpec> out;
  for (const std::string& text : args.list("--defense"))
    out.push_back(defense::parse(text));
  return out;
}

noise::NoiseProfile noise_from(const cli::Args& args) {
  return *noise::NoiseProfile::by_name(args.str("--noise"));
}

/// PMU delta + top-down attribution over [before, now) as a registry.
obs::MetricsRegistry machine_metrics(os::Machine& m,
                                     const uarch::PmuSnapshot& before) {
  const uarch::PmuSnapshot delta =
      uarch::pmu_delta(before, m.core().pmu().snapshot());
  const obs::TopDown td = obs::attribute_cycles(delta);
  obs::MetricsRegistry reg;
  reg.import_pmu(delta);
  reg.set_counter("topdown.total_cycles", td.total_cycles);
  reg.set_counter("topdown.retiring", td.retiring);
  reg.set_counter("topdown.bad_speculation", td.bad_speculation);
  reg.set_counter("topdown.frontend_bound", td.frontend_bound);
  reg.set_counter("topdown.backend_bound", td.backend_bound);
  std::printf("top-down: %s\n", td.to_string().c_str());
  return reg;
}

int cmd_models(const cli::Args&) {
  std::printf("%-4s %-24s %-12s %-6s %-28s\n", "idx", "name", "uarch", "TSX",
              "vulnerabilities");
  int i = 0;
  for (uarch::CpuModel m : uarch::all_models()) {
    const auto c = uarch::make_config(m);
    std::string v;
    if (c.meltdown_vulnerable()) v += "meltdown ";
    if (c.mds_vulnerable()) v += "mds ";
    if (c.tlb_fills_on_fault()) v += "tlb-fill-on-fault ";
    std::printf("%-4d %-24s %-12s %-6s %-28s\n", i++, c.name.c_str(),
                c.uarch_name.c_str(), c.has_tsx ? "yes" : "no", v.c_str());
  }
  return 0;
}

int cmd_tote(const cli::Args& args) {
  os::Machine m({.model = cpu_from(args)});
  m.poke8(os::Machine::kSharedBase, 'S');
  const auto g = core::make_tet_gadget(
      {.window = core::preferred_window(m.config()),
       .source = core::SecretSource::SharedMemory});
  std::array<std::uint64_t, isa::kNumRegs> regs{};
  regs[static_cast<std::size_t>(isa::Reg::RCX)] = core::kNullProbeAddress;
  regs[static_cast<std::size_t>(isa::Reg::RDX)] = os::Machine::kSharedBase;
  const bool trigger = !args.has("--no-trigger");
  regs[static_cast<std::size_t>(isa::Reg::RBX)] = trigger ? 'S' : 'T';

  const std::string trace_out = args.str("--trace-out");
  const std::string metrics_out = args.str("--metrics-out");
  uarch::PipelineTrace trace;   // bounded ring for the textual dump
  obs::EventLog log;            // full capture for the Chrome export
  if (args.has("--trace")) m.core().set_trace(&trace);
  if (!trace_out.empty()) m.core().set_trace(&log);
  const uarch::PmuSnapshot pmu_before = m.core().pmu().snapshot();
  for (int i = 0; i < 8; ++i)
    std::printf("probe %d (%s): ToTE = %llu cycles\n", i,
                trigger ? "trigger" : "no trigger",
                static_cast<unsigned long long>(core::run_tote(m, g, regs)));
  m.core().set_trace(nullptr);
  if (args.has("--trace") && trace_out.empty()) {
    std::printf("\npipeline trace (last probe window):\n%s",
                trace.to_string().c_str());
  }
  if (!trace_out.empty() && obs::write_chrome_trace(log, trace_out))
    std::printf("pipeline trace of all 8 probes written to %s "
                "(%zu events)\n",
                trace_out.c_str(), log.size());
  if (!metrics_out.empty())
    bench::write_metrics(machine_metrics(m, pmu_before), metrics_out);
  return 0;
}

int cmd_attacks(const cli::Args&) {
  std::printf("%-8s %-8s %s\n", "name", "kind", "description");
  for (const core::AttackInfo& info : core::attack_registry())
    std::printf("%-8s %-8s %s\n", info.name.c_str(),
                info.channel ? "channel" : "kaslr", info.description.c_str());
  return 0;
}

int cmd_defenses(const cli::Args&) {
  std::printf("%-12s %-20s %s\n", "name", "params", "description");
  for (const defense::DefenseInfo& d : defense::registry()) {
    std::string params;
    for (const defense::DefenseParamInfo& p : d.params) {
      if (!params.empty()) params += ' ';
      params += p.name + "=" + p.default_value;
    }
    std::printf("%-12s %-20s %s\n", d.name.c_str(),
                params.empty() ? "-" : params.c_str(), d.description.c_str());
  }
  std::printf("\ncompose with repeated --defense flags "
              "(e.g. --defense kpti --defense window:depth=8)\n");
  return 0;
}

int cmd_leak(const cli::Args& args) {
  const std::string what = args.str("--attack");
  const core::AttackInfo* info = core::find_attack(what);

  os::MachineOptions mo;
  mo.model = cpu_from(args);
  mo.noise = noise_from(args);
  defense::apply(defenses_from(args), mo);
  os::Machine m(mo);

  const std::string secret_str = args.str("--secret");
  const std::vector<std::uint8_t> secret(secret_str.begin(),
                                         secret_str.end());

  const std::string trace_out = args.str("--trace-out");
  const std::string metrics_out = args.str("--metrics-out");
  obs::EventLog log;
  if (!trace_out.empty()) m.core().set_trace(&log);
  const uarch::PmuSnapshot pmu_before = m.core().pmu().snapshot();

  core::AttackOptions opt;
  opt.adaptive = args.has("--adaptive");
  opt.confidence_threshold = args.real("--confidence");
  opt.batch_budget = args.integer("--budget");
  const auto atk = info->make(m, opt);
  const core::AttackResult r =
      atk->run(info->channel ? std::span<const std::uint8_t>(secret)
                             : std::span<const std::uint8_t>());

  m.core().set_trace(nullptr);
  if (info->channel) {
    std::string printable;
    for (std::uint8_t b : r.bytes)
      printable += (b >= 32 && b < 127) ? static_cast<char>(b) : '.';
    std::printf("TET-%s on %s leaked: \"%s\"  (%s, confidence %.2f%s)\n",
                what.c_str(), m.config().name.c_str(), printable.c_str(),
                r.success ? "exact" : "with errors", r.confidence,
                r.gave_up ? ", gave up on some bytes" : "");
  } else {
    std::printf("TET-%s on %s: %s  found %#llx true %#llx "
                "(confidence %.2f)\n",
                what.c_str(), m.config().name.c_str(),
                r.success ? "BROKEN" : "held",
                static_cast<unsigned long long>(r.found_base),
                static_cast<unsigned long long>(r.true_base), r.confidence);
  }
  if (!trace_out.empty() && obs::write_chrome_trace(log, trace_out))
    std::printf("pipeline trace of the leak written to %s (%zu events)\n",
                trace_out.c_str(), log.size());
  if (!metrics_out.empty())
    bench::write_metrics(machine_metrics(m, pmu_before), metrics_out);
  return r.success ? 0 : 1;
}

int cmd_kaslr(const cli::Args& args) {
  const int trials = args.integer("--trials");
  const std::string trace_out = args.str("--trace-out");
  const std::string metrics_out = args.str("--metrics-out");
  if (trials == 1) {
    // Single shot: the interactive view, with found vs true base.
    os::MachineOptions opts;
    opts.model = cpu_from(args);
    opts.seed = args.uint("--seed");
    opts.noise = noise_from(args);
    const std::vector<defense::DefenseSpec> stack = defenses_from(args);
    defense::apply(stack, opts);
    os::Machine m(opts);
    obs::EventLog log;
    if (!trace_out.empty()) m.core().set_trace(&log);
    const uarch::PmuSnapshot pmu_before = m.core().pmu().snapshot();
    core::AttackOptions opt;
    opt.adaptive = args.has("--adaptive");
    const auto atk = core::make_attack("kaslr", m, opt);
    const core::AttackResult r = atk->run({});
    m.core().set_trace(nullptr);
    std::string defense_suffix;
    if (!stack.empty()) defense_suffix = " +" + defense::format_list(stack);
    std::printf("TET-KASLR on %s%s: %s  found %#llx true %#llx  (%.4f s, "
                "%zu probes)\n",
                m.config().name.c_str(), defense_suffix.c_str(),
                r.success ? "BROKEN" : "held",
                static_cast<unsigned long long>(r.found_base),
                static_cast<unsigned long long>(r.true_base), r.seconds,
                r.probes);
    if (!trace_out.empty() && obs::write_chrome_trace(log, trace_out))
      std::printf("pipeline trace of the slot sweep written to %s "
                  "(%zu events)\n",
                  trace_out.c_str(), log.size());
    if (!metrics_out.empty())
      bench::write_metrics(machine_metrics(m, pmu_before), metrics_out);
    return r.success ? 0 : 1;
  }

  // Multi-trial sweep through the parallel runner: every trial is a fresh
  // machine with a fresh KASLR draw, seeded from --seed ⊕ trial index.
  runner::RunSpec spec;
  spec.model = cpu_from(args);
  spec.attack = "kaslr";
  spec.trials = trials;
  spec.defenses = defenses_from(args);
  spec.base_seed = args.has("--seed") ? args.uint("--seed") : 1;
  spec.noise = noise_from(args);
  spec.adaptive = args.has("--adaptive");
  spec.collect_trace = !trace_out.empty();
  bench::apply_fault_args(spec, args);
  const auto r = runner::run(spec, args.integer("--jobs"), /*progress=*/true);
  std::printf("TET-KASLR sweep: %s\n", spec.label().c_str());
  std::printf("  broke KASLR in %zu/%zu trials; sim time %.4f s mean "
              "(sd %.4f, min %.4f, max %.4f)\n",
              r.successes, r.trials.size(), r.seconds.mean, r.seconds.stdev,
              r.seconds.min, r.seconds.max);
  std::printf("  %zu probes total; host wall %.2f s with %d jobs\n",
              r.total_probes, r.wall_seconds, r.jobs);
  if (r.failed || r.retried || r.quarantined)
    std::printf("  fault layer: %zu/%zu completed, %zu retried, "
                "%zu quarantined, %zu degraded\n",
                r.completed, r.attempted, r.retried, r.quarantined, r.failed);
  const std::string json = args.str("--json");
  if (!json.empty() && runner::write_json_file(r, json))
    std::printf("  trajectory written to %s\n", json.c_str());
  if (!trace_out.empty() && obs::write_chrome_trace(r.events, trace_out))
    std::printf("  pipeline trace of all trials (index order) written to "
                "%s (%zu events)\n",
                trace_out.c_str(), r.events.size());
  if (!metrics_out.empty()) {
    std::printf("  top-down: %s\n", r.topdown.to_string().c_str());
    bench::write_metrics(runner::to_metrics(r), metrics_out);
  }
  return r.all_succeeded() ? 0 : 1;
}

/// Field-by-field trial comparison for the chaos self-test — the CLI-side
/// mirror of tests/test_runner.cpp's expect_identical.
bool trial_identical(const runner::TrialResult& a,
                     const runner::TrialResult& b) {
  return a.seed == b.seed && a.success == b.success && a.cycles == b.cycles &&
         a.seconds == b.seconds && a.probes == b.probes &&
         a.bytes == b.bytes && a.byte_errors == b.byte_errors &&
         a.found_slot == b.found_slot && a.confidence == b.confidence &&
         a.gave_up == b.gave_up && a.tote.buckets() == b.tote.buckets() &&
         a.pmu == b.pmu;
}

int cmd_chaos(const cli::Args& args) {
  runner::RunSpec spec;
  spec.model = cpu_from(args);
  spec.attack = args.str("--attack");
  spec.defenses = defenses_from(args);
  spec.trials = args.integer("--trials");
  spec.base_seed = args.uint("--seed");
  spec.payload_bytes = 4;
  spec.batches = 2;
  spec.rounds = 2;
  spec.retries = args.integer("--retries");
  spec.trial_cycle_budget = args.uint("--trial-cycle-budget");
  spec.trial_wall_budget = args.real("--trial-wall-budget");
  spec.fault_plan = args.str("--fault-plan");
  const int jobs = args.integer("--jobs");

  runner::RunSpec clean = spec;
  clean.fault_plan.clear();

  std::printf("chaos: %s under plan \"%s\" (retries %d, jobs %d)\n",
              spec.label().c_str(), spec.fault_plan.c_str(), spec.retries,
              jobs);
  const runner::RunResult faulted = runner::run(spec, jobs);
  const runner::RunResult reference = runner::run(clean, jobs);

  std::printf("  attempted %zu, completed %zu, failed %zu, retried %zu, "
              "quarantined %zu, attempts %zu\n",
              faulted.attempted, faulted.completed, faulted.failed,
              faulted.retried, faulted.quarantined, faulted.total_attempts);
  std::printf("  errors by class:");
  for (std::size_t k = 0; k < runner::kNumTrialErrorKinds; ++k)
    std::printf(" %s=%zu",
                runner::to_string(static_cast<runner::TrialErrorKind>(k)),
                faulted.error_counts[k]);
  std::printf("\n");

  bool ok = true;
  if (faulted.failed != 0) {
    std::printf("  FAIL: %zu trial(s) degraded — retries did not recover\n",
                faulted.failed);
    ok = false;
  }
  if (faulted.trials.size() != reference.trials.size()) {
    std::printf("  FAIL: trial count mismatch vs clean run\n");
    ok = false;
  } else {
    for (std::size_t i = 0; i < faulted.trials.size(); ++i)
      if (!trial_identical(faulted.trials[i], reference.trials[i])) {
        std::printf("  FAIL: trial %zu differs from the clean run\n", i);
        ok = false;
      }
  }
  if (faulted.tote.buckets() != reference.tote.buckets()) {
    std::printf("  FAIL: merged ToTE histogram differs from the clean run\n");
    ok = false;
  }
  if (ok)
    std::printf("  recovered %zu/%zu trials; results bit-identical to the "
                "clean run\n",
                faulted.completed, faulted.attempted);

  const std::string json = args.str("--json");
  if (!json.empty() && runner::write_json_file(faulted, json))
    std::printf("  faulted-run trajectory written to %s\n", json.c_str());
  return ok ? 0 : 1;
}

/// Distributed sweep: shard --trials across --endpoints and merge by
/// index. Exit 0 only on a complete (and, with --verify, byte-identical)
/// merge; endpoint failures along the way are counters, not errors.
int cmd_sweep(const cli::Args& args) {
  const std::string endpoints_csv = args.str("--endpoints");
  if (endpoints_csv.empty()) {
    std::fprintf(stderr,
                 "whisper_cli sweep: --endpoints is required "
                 "(comma-separated host:port / tcp:host:port / unix:/path)\n");
    return 2;
  }

  runner::RunSpec spec;
  spec.model = cpu_from(args);
  spec.attack = args.str("--attack");
  spec.trials = args.integer("--trials");
  spec.defenses = defenses_from(args);
  spec.base_seed = args.uint("--seed");
  spec.noise = noise_from(args);
  spec.adaptive = args.has("--adaptive");
  bench::apply_fault_args(spec, args);

  std::vector<std::shared_ptr<client::Endpoint>> pool;
  try {
    for (const serve::Address& a : serve::parse_address_list(endpoints_csv))
      pool.push_back(client::make_endpoint(a));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "whisper_cli sweep: --endpoints: %s\n", e.what());
    return 2;
  }

  client::SweepOptions opts;
  opts.chunk_trials = args.integer("--chunk");
  opts.deadline_ms = args.integer("--deadline-ms");
  opts.connect_timeout_ms = args.integer("--connect-timeout-ms");
  opts.endpoint_failures = args.integer("--failures");
  opts.flaky_plan = args.str("--flaky-plan");

  client::SweepClient sweeper(opts);
  const client::SweepResult r = sweeper.sweep(spec, pool);

  std::printf("distributed sweep: %s across %zu endpoint(s)\n",
              spec.label().c_str(), pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i)
    std::printf("  %-32s %zu trial(s)\n", pool[i]->label().c_str(),
                i < r.stats.trials_by_endpoint.size()
                    ? r.stats.trials_by_endpoint[i]
                    : std::size_t{0});
  std::printf("  %zu/%d trials merged; %zu request(s), %zu unreachable, "
              "%zu timed out, %zu reconnect(s), %zu chunk(s) reassigned, "
              "%zu endpoint(s) dead, %zu duplicate trial(s)\n",
              r.trials_received, spec.trials, r.stats.requests,
              r.stats.unreachable, r.stats.timed_out, r.stats.reconnects,
              r.stats.reassigned, r.stats.dead_endpoints,
              r.stats.duplicate_trials);
  if (!r.complete) {
    if (r.error.empty())
      std::fprintf(stderr,
                   "whisper_cli sweep: incomplete (every endpoint died)\n");
    else
      std::fprintf(stderr, "whisper_cli sweep: %s\n", r.error.c_str());
    return 1;
  }

  const std::string json = args.str("--json");
  if (!json.empty()) {
    std::FILE* f = std::fopen(json.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "whisper_cli sweep: cannot write %s\n",
                   json.c_str());
      return 1;
    }
    for (const std::string& line : r.trial_lines)
      std::fprintf(f, "%s\n", line.c_str());
    std::fprintf(f, "%s\n", r.done_line.c_str());
    std::fclose(f);
    std::printf("  merged response stream written to %s\n", json.c_str());
  }

  if (args.has("--verify")) {
    // Invariant 13, checked the direct way: rerun the whole spec locally
    // and demand the distributed merge is the same bytes.
    const auto local = runner::run(spec, args.integer("--jobs"));
    const bool same = r.trial_lines == client::canonical_trial_lines(local) &&
                      r.done_line == client::canonical_done_line(local);
    std::printf("  --verify: merged stream %s the local runner::run bytes\n",
                same ? "matches" : "DIVERGES from");
    if (!same) return 1;
  }

  std::printf("  %s\n", r.done_line.c_str());
  return 0;
}

/// One subcommand and the flags it reads.
struct Command {
  const char* name;
  int (*run)(const cli::Args&);
  cli::Table flags;
};

const std::vector<Command>& commands() {
  using cli::Kind;
  static const std::vector<Command> table = {
      {"models", cmd_models, {}},
      {"tote", cmd_tote,
       {kCpu,
        {.name = "--no-trigger", .help = "probe with a non-secret value"},
        {.name = "--trace", .help = "print the last probe's pipeline trace"},
        bench::kTraceOutFlag, bench::kMetricsOutFlag}},
      {"leak", cmd_leak,
       {attack_flag("md"), kCpu, kDefense, kNoise, kAdaptive,
        {.name = "--secret", .kind = Kind::String, .def = "hunter2",
         .help = "bytes a channel attack transmits"},
        {.name = "--confidence", .kind = Kind::Double, .def = "0.5",
         .help = "adaptive confidence threshold", .min = 0, .max = 1},
        {.name = "--budget", .kind = Kind::Int, .def = "0",
         .help = "adaptive batch budget (0 = 8x the initial count)",
         .min = 0},
        bench::kTraceOutFlag, bench::kMetricsOutFlag}},
      {"kaslr", cmd_kaslr,
       bench::with_fault_flags(
           {kCpu, kDefense, kNoise, kAdaptive, kSeed, trials_flag("1"),
            bench::kJobsFlag, bench::kJsonFlag, bench::kTraceOutFlag,
            bench::kMetricsOutFlag})},
      // chaos's fault knobs default to a plan that exercises three error
      // classes, with enough retries to recover from all of them.
      {"chaos", cmd_chaos,
       {attack_flag("cc"), kCpu, kDefense, trials_flag("12"),
        kSeed.with_default("12648430"),
        {.name = "--retries", .kind = Kind::Int, .def = "2",
         .help = "extra attempts per failed trial", .min = 0},
        {.name = "--trial-cycle-budget", .kind = Kind::Uint,
         .def = "1000000000", .help = "simulated-cycle cap per attempt"},
        {.name = "--trial-wall-budget", .kind = Kind::Double, .def = "0",
         .help = "host wall-clock seconds per attempt (0 = off)", .min = 0},
        {.name = "--fault-plan", .kind = Kind::String,
         .def = "throw@2;corrupt@5;stall@8", .help = "seeded fault plan"},
        bench::kJobsFlag.with_default("4"), bench::kJsonFlag}},
      {"sweep", cmd_sweep,
       bench::with_fault_flags(
           {{.name = "--endpoints", .kind = Kind::String,
             .help = "daemons: host:port, tcp:host:port or unix:/path, "
                     "comma-separated (required)"},
            attack_flag("kaslr"), kCpu, kDefense, kNoise, kAdaptive,
            trials_flag("8"), kSeed.with_default("1"),
            {.name = "--chunk", .kind = Kind::Int, .def = "4",
             .help = "trials per request", .min = 1},
            {.name = "--deadline-ms", .kind = Kind::Int, .def = "60000",
             .help = "silence after which a request times out", .min = 1},
            {.name = "--connect-timeout-ms", .kind = Kind::Int,
             .def = "2000", .help = "per-dial timeout (< 0 = block)"},
            {.name = "--failures", .kind = Kind::Int, .def = "3",
             .help = "consecutive failures that kill an endpoint",
             .min = 1},
            {.name = "--flaky-plan", .kind = Kind::String,
             .help = "deterministic transport faults (drop/shortread/stall)"},
            {.name = "--verify",
             .help = "rerun locally and demand identical bytes"},
            bench::kJobsFlag, bench::kJsonFlag})},
      {"attacks", cmd_attacks, {}},
      {"defenses", cmd_defenses, {}},
  };
  return table;
}

}  // namespace

int main(int argc, char** argv) try {
  const std::string cmd = argc > 1 ? argv[1] : "";
  std::string names;
  for (const Command& c : commands()) {
    if (cmd == c.name)
      return c.run(cli::parse_or_exit("whisper_cli " + cmd, c.flags, argc,
                                      argv, /*first=*/2));
    names += (names.empty() ? "" : "|") + std::string(c.name);
  }
  // `whisper_cli --help` asks for this text; anything else is bad input.
  const bool help = cmd == "--help";
  std::fprintf(help ? stdout : stderr,
               "usage: whisper_cli <%s> [flags]\n  whisper_cli <command> "
               "--help lists a command's flags\n",
               names.c_str());
  return help ? 0 : 2;
} catch (const std::exception& e) {
  // Spec/plan validation errors (bad --defense spec, malformed
  // --fault-plan, ...) should read as a usage message, not a terminate()
  // backtrace.
  std::fprintf(stderr, "whisper_cli: %s\n", e.what());
  return 2;
}

#include "traced_trials.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <exception>
#include <set>
#include <string>
#include <thread>

#include "serve/protocol.h"
#include "uarch/pmu.h"

namespace whisper::bench {

namespace {

struct Coordinates {
  runner::RunSpec spec;  // with the per-trial payload stream
  std::uint64_t seed = 0;
};

/// The seed schedule of runner::run_scheduled_trial, reproduced as its
/// header documents it.
Coordinates coordinates(const TrialTask& task) {
  Coordinates c{*task.spec, runner::trial_seed(task.spec->base_seed,
                                               task.index)};
  c.spec.payload_seed = task.spec->payload_seed ^ task.index;
  return c;
}

/// The outcome record run_scheduled_trial writes for a trial whose single
/// attempt threw (specs here carry no retries, budgets or fault plans).
runner::ScheduledTrial failed_trial(const Coordinates& c,
                                    const std::string& what) {
  runner::ScheduledTrial st;
  st.result.seed = c.seed;
  st.outcome.attempts = 1;
  st.outcome.errors.push_back(
      {runner::TrialErrorKind::kException, 0, what, c.spec.attack, c.seed});
  st.outcome.errors.push_back(
      {runner::TrialErrorKind::kDegraded, 0,
       "trial degraded: no attempt out of 1 succeeded", c.spec.attack,
       c.seed});
  return st;
}

runner::MachinePoolStats minus(const runner::MachinePoolStats& a,
                               const runner::MachinePoolStats& b) {
  runner::MachinePoolStats d;
  d.created = a.created - b.created;
  d.reused = a.reused - b.reused;
  d.evicted = a.evicted - b.evicted;
  d.quarantined = a.quarantined - b.quarantined;
  d.waited = a.waited - b.waited;
  return d;
}

void add(runner::MachinePoolStats& into, const runner::MachinePoolStats& d) {
  into.created += d.created;
  into.reused += d.reused;
  into.evicted += d.evicted;
  into.quarantined += d.quarantined;
  into.waited += d.waited;
}

TracedTrial traced_trial(const TrialTask& task, runner::MachinePool& pool,
                         std::uint32_t tid, std::uint64_t id,
                         std::vector<Span>& spans) {
  const Coordinates c = coordinates(task);
  TracedTrial out;
  const std::uint64_t created = pool.stats().created;
  const Clock::time_point t0 = Clock::now();
  Clock::time_point t1, t2, t3;
  {
    runner::MachinePool::Lease lease = pool.acquire(c.spec, c.seed);
    t1 = Clock::now();
    out.constructed = pool.stats().created > created;
    os::Machine& m = lease.machine();
    const uarch::Core::DecodeCacheStats dec0 = m.core().decode_cache_stats();
    m.reset(c.seed);
    t2 = Clock::now();
    try {
      out.trial.result = runner::run_trial(c.spec, c.seed, m);
      out.trial.outcome.ok = true;
      out.trial.outcome.attempts = 1;
    } catch (const std::exception& e) {
      out.trial = failed_trial(c, e.what());
    }
    t3 = Clock::now();
    const uarch::Core::DecodeCacheStats dec1 = m.core().decode_cache_stats();
    out.decode_hits = dec1.hits - dec0.hits;
    out.decode_misses = dec1.misses - dec0.misses;
    if (const noise::NoiseEngine* ne = m.noise()) out.noise = ne->stats();
  }  // the lease goes back to the pool inside the trial span
  const Clock::time_point t4 = Clock::now();
  out.acquire_ms = ms_between(t0, t1);
  out.reset_ms = ms_between(t1, t2);
  out.run_trial_ms = ms_between(t2, t3);
  out.trial_ms = ms_between(t0, t4);
  spans.push_back({"trial", tid, id, t0, t4});
  spans.push_back({"acquire", tid, id, t0, t1});
  spans.push_back({"reset", tid, id, t1, t2});
  spans.push_back({"run_trial", tid, id, t2, t3});
  return out;
}

}  // namespace

std::vector<TrialTask> tasks_of(const std::vector<runner::RunSpec>& specs) {
  std::vector<TrialTask> tasks;
  for (const runner::RunSpec& spec : specs)
    for (int i = 0; i < spec.trials; ++i)
      tasks.push_back({&spec, static_cast<std::size_t>(i)});
  return tasks;
}

std::string trial_line(std::size_t index, const runner::ScheduledTrial& t) {
  return serve::response_trial(0, index, t);
}

runner::ScheduledTrial run_fresh(const TrialTask& task) {
  const Coordinates c = coordinates(task);
  runner::ScheduledTrial st;
  try {
    st.result = runner::run_trial(c.spec, c.seed);
    st.outcome.ok = true;
    st.outcome.attempts = 1;
  } catch (const std::exception& e) {
    st = failed_trial(c, e.what());
  }
  return st;
}

TracedRun run_traced(const std::vector<TrialTask>& tasks, bool warm) {
  TracedRun run;
  run.trials.resize(tasks.size());
  std::deque<runner::MachinePool> pools;
  for (std::size_t p = 0; p < kPartitions; ++p)
    pools.emplace_back(kPoolCapacity);
  if (warm) {
    for (std::size_t p = 0; p < kPartitions; ++p) {
      std::set<std::string> keys;
      std::vector<runner::MachinePool::Lease> held;
      for (std::size_t k = p; k < tasks.size(); k += kPartitions) {
        const runner::RunSpec& spec = *tasks[k].spec;
        if (keys.insert(runner::machine_key(spec)).second)
          held.push_back(pools[p].acquire(spec, spec.base_seed));
      }
    }
  }
  std::vector<runner::MachinePoolStats> baseline;
  for (const runner::MachinePool& pool : pools)
    baseline.push_back(pool.stats());

  std::vector<std::vector<Span>> spans(kPartitions);
  const std::size_t n_threads =
      std::min(static_cast<std::size_t>(host_threads()), kPartitions);
  std::vector<std::exception_ptr> errors(n_threads);
  const Clock::time_point t0 = Clock::now();
  {
    std::vector<std::jthread> workers;
    for (std::size_t t = 0; t < n_threads; ++t)
      workers.emplace_back([&, t] {
        try {
          for (std::size_t p = t; p < kPartitions; p += n_threads)
            for (std::size_t k = p; k < tasks.size(); k += kPartitions)
              run.trials[k] = traced_trial(tasks[k], pools[p],
                                           static_cast<std::uint32_t>(p), k,
                                           spans[p]);
        } catch (...) {
          errors[t] = std::current_exception();  // e.g. a failed acquire
        }
      });
  }
  run.wall_s = seconds_since(t0);
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
  for (std::size_t p = 0; p < kPartitions; ++p) {
    add(run.pool, minus(pools[p].stats(), baseline[p]));
    run.spans.insert(run.spans.end(), spans[p].begin(), spans[p].end());
  }
  return run;
}

namespace {

std::uint64_t pmu(const runner::TrialResult& t, uarch::PmuEvent e) {
  return t.pmu[static_cast<std::size_t>(e)];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

Fingerprint fingerprint(const std::vector<runner::TrialResult>& trials) {
  Fingerprint f;
  for (const runner::TrialResult& t : trials) {
    f.sim_cycles += t.cycles;
    f.probes += t.probes;
    f.successes += t.success ? 1 : 0;
    f.dtlb_walks +=
        pmu(t, uarch::PmuEvent::DTLB_LOAD_MISSES_MISS_CAUSES_A_WALK);
  }
  return f;
}

Fingerprint fingerprint(const TracedRun& run) {
  std::vector<runner::TrialResult> results;
  results.reserve(run.trials.size());
  Fingerprint f;
  for (const TracedTrial& t : run.trials) {
    results.push_back(t.trial.result);
    f.decode_misses += t.decode_misses;
  }
  const Fingerprint counts = fingerprint(results);
  f.sim_cycles = counts.sim_cycles;
  f.probes = counts.probes;
  f.successes = counts.successes;
  f.dtlb_walks = counts.dtlb_walks;
  f.has_decode = true;
  return f;
}

std::string fingerprint_note(const char* name, std::uint64_t seed,
                             const Fingerprint& f) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "fingerprint %s seed=%llu sim_cycles=%llu probes=%llu "
                "successes=%llu dtlb_walks=%llu",
                name, static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(f.sim_cycles),
                static_cast<unsigned long long>(f.probes),
                static_cast<unsigned long long>(f.successes),
                static_cast<unsigned long long>(f.dtlb_walks));
  std::string out = buf;
  if (f.has_decode)
    out += " decode_misses=" + std::to_string(f.decode_misses);
  return out;
}

void add_layer_metrics(const TracedRun& run, Metrics& out) {
  std::vector<double> construct, reset, trial, attack;
  double acquire_busy = 0, construct_busy = 0, reset_busy = 0,
         attack_busy = 0, trial_busy = 0;
  std::uint64_t probes = 0, successes = 0, cycles = 0, issued = 0,
                retired = 0, clears = 0, dec_hits = 0, dec_misses = 0;
  std::uint64_t walks = 0, stlb = 0, walk_cycles = 0, l1 = 0, llc = 0,
                dram = 0;
  std::uint64_t interrupts = 0, contended = 0, shootdowns = 0;
  for (const TracedTrial& t : run.trials) {
    const runner::TrialResult& r = t.trial.result;
    acquire_busy += t.acquire_ms;
    if (t.constructed) {
      construct.push_back(t.acquire_ms);
      construct_busy += t.acquire_ms;
    }
    reset.push_back(t.reset_ms);
    reset_busy += t.reset_ms;
    attack.push_back(t.run_trial_ms);
    attack_busy += t.run_trial_ms;
    trial.push_back(t.trial_ms);
    trial_busy += t.trial_ms;
    probes += r.probes;
    successes += r.success ? 1 : 0;
    cycles += r.cycles;
    issued += pmu(r, uarch::PmuEvent::UOPS_ISSUED_ANY);
    retired += pmu(r, uarch::PmuEvent::UOPS_RETIRED_ALL);
    clears += pmu(r, uarch::PmuEvent::MACHINE_CLEARS_COUNT);
    walks += pmu(r, uarch::PmuEvent::DTLB_LOAD_MISSES_MISS_CAUSES_A_WALK);
    stlb += pmu(r, uarch::PmuEvent::DTLB_LOAD_MISSES_STLB_HIT);
    walk_cycles += pmu(r, uarch::PmuEvent::DTLB_LOAD_MISSES_WALK_ACTIVE);
    l1 += pmu(r, uarch::PmuEvent::MEM_LOAD_RETIRED_L1_HIT);
    llc += pmu(r, uarch::PmuEvent::MEM_LOAD_RETIRED_L3_HIT);
    dram += pmu(r, uarch::PmuEvent::MEM_LOAD_RETIRED_DRAM);
    dec_hits += t.decode_hits;
    dec_misses += t.decode_misses;
    interrupts += t.noise.timer_interrupts;
    contended += t.noise.contended_accesses;
    shootdowns += t.noise.tlb_shootdowns;
  }
  // The trial span's self time: returning the lease and the runner's own
  // bookkeeping, i.e. everything outside the three calls.
  const double self_busy =
      std::max(0.0, trial_busy - acquire_busy - reset_busy - attack_busy);
  const auto c = [](std::uint64_t v) { return static_cast<double>(v); };

  out.set("runner.acquire_busy_s", acquire_busy / 1e3, "s");
  out.set("runner.pool.created", c(run.pool.created), "count");
  out.set("runner.pool.reused", c(run.pool.reused), "count");
  out.set("runner.pool.evicted", c(run.pool.evicted), "count");
  out.set("runner.pool.hit_ratio",
          ratio(c(run.pool.reused), c(run.pool.created + run.pool.reused)),
          "ratio");
  out.set("os.construct_ms.p50", median(construct), "ms");
  out.set("os.construct_busy_s", construct_busy / 1e3, "s");
  out.set("os.reset_ms.p50", median(reset), "ms");
  out.set("os.reset_busy_s", reset_busy / 1e3, "s");
  out.set("runner.trial_ms.p50", median(trial), "ms");
  out.set("runner.trial_ms.p99", percentile(trial, 0.99), "ms");
  out.set("runner.trial_self_busy_s", self_busy / 1e3, "s");
  out.set("core.attack_ms.p50", median(attack), "ms");
  out.set("core.attack_ms.p99", percentile(attack, 0.99), "ms");
  out.set("core.attack_busy_s", attack_busy / 1e3, "s");
  out.set("core.probes", c(probes), "count");
  out.set("core.successes", c(successes), "count");
  out.set("share.acquire", ratio(acquire_busy, trial_busy), "ratio");
  out.set("share.reset", ratio(reset_busy, trial_busy), "ratio");
  out.set("share.attack", ratio(attack_busy, trial_busy), "ratio");
  out.set("share.self", ratio(self_busy, trial_busy), "ratio");
  out.set("uarch.host_ns_per_sim_cycle", ratio(attack_busy * 1e6, c(cycles)),
          "ns");
  out.set("uarch.sim_cycles", c(cycles), "count");
  out.set("uarch.uops_issued", c(issued), "count");
  out.set("uarch.uops_retired", c(retired), "count");
  out.set("uarch.machine_clears", c(clears), "count");
  out.set("uarch.decode_hits", c(dec_hits), "count");
  out.set("uarch.decode_misses", c(dec_misses), "count");
  out.set("uarch.decode_hit_ratio",
          ratio(c(dec_hits), c(dec_hits + dec_misses)), "ratio");
  out.set("mem.dtlb_walks", c(walks), "count");
  out.set("mem.stlb_hits", c(stlb), "count");
  out.set("mem.walk_active_cycles", c(walk_cycles), "count");
  out.set("mem.l1_hits", c(l1), "count");
  out.set("mem.llc_hits", c(llc), "count");
  out.set("mem.dram_loads", c(dram), "count");
  out.set("noise.interrupts", c(interrupts), "count");
  out.set("noise.contended_accesses", c(contended), "count");
  out.set("noise.tlb_shootdowns", c(shootdowns), "count");
}

void add_idle_serve_metrics(Metrics& out) {
  for (const char* name :
       {"req_p50_ms.low", "req_p50_ms.high", "serve.first_line_ms.p50",
        "serve.first_line_ms.p99"})
    out.set(name, 0.0, "ms");
  for (const char* name :
       {"serve.queue_depth.max", "serve.pool.waited", "serve.pool.created",
        "serve.pool.reused", "serve.errors", "serve.rejected", "gen.sent",
        "gen.samples.low", "gen.samples.high"})
    out.set(name, 0.0, "count");
  out.set("serve.max_rps", 0.0, "1/s");
  out.set("gen.late_ms.p50", 0.0, "ms");
  out.set("gen.late_ms.p99", 0.0, "ms");
  out.set("client.encode_us.p50", 0.0, "us");
}

}  // namespace whisper::bench

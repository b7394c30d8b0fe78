// Scheduler host-side coverage that the recorded corpus doesn't pin: the
// content-keyed decode cache (reuse across trials, content invalidation,
// survival across Machine::reset), determinism across runner worker
// counts, and the cost of the event-driven loop — an inert span must cost
// loop iterations per event, not per simulated cycle. Byte-identity of the
// scheduler itself is tests/test_scheduler_corpus.cpp (invariant 10).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "isa/builder.h"
#include "noise/noise.h"
#include "os/machine.h"
#include "runner/runner.h"
#include "uarch/core.h"

namespace whisper {
namespace {

using isa::ProgramBuilder;
using isa::Reg;

isa::Program tiny_program(std::uint64_t k) {
  ProgramBuilder b;
  b.mov(Reg::RAX, k).add(Reg::RAX, 1).halt();
  return b.build();
}

/// Hits/misses accumulated by `body`, independent of whatever the machine
/// decoded before the probe started.
template <typename Fn>
uarch::Core::DecodeCacheStats delta(os::Machine& m, Fn&& body) {
  const auto before = m.core().decode_cache_stats();
  body();
  const auto after = m.core().decode_cache_stats();
  return {after.hits - before.hits, after.misses - before.misses};
}

TEST(DecodeCache, RerunningAProgramHitsTheCache) {
  os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});
  const isa::Program prog = tiny_program(5);

  const auto first = delta(m, [&] { (void)m.run_user(prog, {}, -1, 10'000); });
  EXPECT_EQ(first.misses, 1u);
  EXPECT_EQ(first.hits, 0u);

  const auto reruns = delta(m, [&] {
    for (int i = 0; i < 4; ++i) (void)m.run_user(prog, {}, -1, 10'000);
  });
  EXPECT_EQ(reruns.misses, 0u);
  EXPECT_EQ(reruns.hits, 4u);
}

TEST(DecodeCache, KeyIsContentNotObjectIdentity) {
  os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});

  // Two builds of the same source: distinct Program objects, same bytes.
  const isa::Program a = tiny_program(5);
  const isa::Program b = tiny_program(5);
  const auto same = delta(m, [&] {
    (void)m.run_user(a, {}, -1, 10'000);
    (void)m.run_user(b, {}, -1, 10'000);
  });
  EXPECT_EQ(same.misses, 1u) << "identical content decoded twice";
  EXPECT_EQ(same.hits, 1u);

  // A program that differs in one immediate is a different key.
  const isa::Program c = tiny_program(6);
  const auto changed = delta(m, [&] { (void)m.run_user(c, {}, -1, 10'000); });
  EXPECT_EQ(changed.misses, 1u) << "changed program served stale decode";
  EXPECT_EQ(changed.hits, 0u);
}

TEST(DecodeCache, SurvivesMachineReset) {
  // The cache is keyed by content, not by trial state, so the pooled-reset
  // trial path must keep it warm: that is where the cross-trial win comes
  // from.
  os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700, .seed = 0x11ull});
  const isa::Program prog = tiny_program(9);
  (void)m.run_user(prog, {}, -1, 10'000);
  m.snapshot();

  const auto across_resets = delta(m, [&] {
    for (int trial = 0; trial < 3; ++trial) {
      m.reset(0x20ull + static_cast<std::uint64_t>(trial));
      (void)m.run_user(prog, {}, -1, 10'000);
    }
  });
  EXPECT_EQ(across_resets.misses, 0u) << "reset() evicted the decode cache";
  EXPECT_EQ(across_resets.hits, 3u);
}

TEST(DecodeCache, AttackTrialsAreCacheBoundAfterTheFirst) {
  // A full registry attack compiles a handful of distinct gadget programs
  // and then reruns them thousands of times; after a first trial has warmed
  // the cache, later trials on the same machine must decode nothing new.
  runner::RunSpec spec;
  spec.attack = "cc";
  spec.trials = 1;
  spec.base_seed = 0xdecdeull;
  spec.payload_bytes = 1;

  os::Machine m(runner::machine_options(spec, 0x1ull));
  m.snapshot();
  (void)runner::run_trial(spec, 0x1ull, m);  // warm-up trial

  const auto warm = delta(m, [&] {
    for (std::uint64_t t = 2; t < 5; ++t) {
      (void)runner::run_trial(spec, t, m);
    }
  });
  EXPECT_EQ(warm.misses, 0u)
      << "attack re-decoded a program on a warm machine";
  EXPECT_GT(warm.hits, 0u);
}

TEST(FastForwardDeterminism, WorkerCountDoesNotChangeResults) {
  // Each runner worker owns a pooled machine and with it a private decode
  // cache; fanning the same spec across more workers must not perturb a
  // single trial bit.
  runner::RunSpec spec;
  spec.model = uarch::CpuModel::SkylakeI7_6700;
  spec.attack = "cc";
  spec.trials = 6;
  spec.base_seed = 0x1f2f3ull;
  spec.payload_bytes = 2;

  const runner::RunResult one = runner::run(spec, /*jobs=*/1);
  const runner::RunResult two = runner::run(spec, /*jobs=*/2);
  ASSERT_EQ(one.trials.size(), two.trials.size());
  for (std::size_t i = 0; i < one.trials.size(); ++i) {
    const runner::TrialResult& a = one.trials[i];
    const runner::TrialResult& b = two.trials[i];
    EXPECT_EQ(a.seed, b.seed) << "trial " << i;
    EXPECT_EQ(a.success, b.success) << "trial " << i;
    EXPECT_EQ(a.cycles, b.cycles) << "trial " << i;
    EXPECT_EQ(a.bytes, b.bytes) << "trial " << i;
    EXPECT_EQ(a.probes, b.probes) << "trial " << i;
    EXPECT_EQ(a.tote.buckets(), b.tote.buckets()) << "trial " << i;
    EXPECT_EQ(a.pmu, b.pmu) << "trial " << i;
  }
}

// ---------------------------------------------------------------------------
// Event jumps: Core::loop_iterations() counts the cycles the loop stepped.
// A regression to per-cycle stepping keeps every result identical — only
// this count can see it.
// ---------------------------------------------------------------------------

/// Loop iterations and simulated cycles of one run of `prog`.
struct LoopCost {
  std::uint64_t iterations = 0;
  std::uint64_t cycles = 0;
};

LoopCost loop_cost(os::Machine& m, const isa::Program& prog,
                   int signal_handler = -1) {
  const std::uint64_t before = m.core().loop_iterations();
  const uarch::RunResult r =
      m.run_user(prog, {}, signal_handler, 100'000'000);
  EXPECT_TRUE(r.t0().halted);
  EXPECT_FALSE(r.t0().killed_by_fault);
  return {m.core().loop_iterations() - before, r.cycles()};
}

/// Touch (or flush) one data line, fence, then a single load of it whose
/// consumer waits out the load's full latency.
isa::Program single_wait(bool flush) {
  ProgramBuilder b;
  b.mov(Reg::R14, static_cast<std::int64_t>(os::Machine::kDataBase));
  b.load(Reg::RAX, Reg::R14, 0x80);
  if (flush) b.clflush(Reg::R14, 0x80);
  b.mfence();
  b.load(Reg::RBX, Reg::R14, 0x80);
  b.add(Reg::RBX, 1);
  b.halt();
  return b.build();
}

TEST(EventJump, DramWaitCostsConstantIterations) {
  os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});
  const isa::Program cached = single_wait(false);
  const isa::Program dram = single_wait(true);
  (void)loop_cost(m, cached);  // warm the DSB and the TLBs
  (void)loop_cost(m, dram);
  const LoopCost hit = loop_cost(m, cached);
  const LoopCost miss = loop_cost(m, dram);
  ASSERT_GT(miss.cycles, hit.cycles + 100)
      << "the flushed load should pay DRAM latency";
  // The DRAM wait adds >100 cycles but only a constant number of loop
  // iterations (the clflush itself, its completion, the load's completion).
  EXPECT_LE(miss.iterations, hit.iterations + 8)
      << "a DRAM wait cost " << miss.iterations - hit.iterations
      << " extra iterations for " << miss.cycles - hit.cycles
      << " extra cycles";
  EXPECT_LT(miss.iterations * 4, miss.cycles);
}

TEST(EventJump, NoisyInertSpansCostIterationsPerNoiseTick) {
  // A loop of suppressed faults: each null dereference retires into a
  // machine clear and a signal dispatch, thousands of inert cycles before
  // the handler refetches (a Halt behind the load keeps the front end
  // from running ahead into the next iteration). Run quiet and under desktop noise, whose DVFS
  // steps, TLB shootdowns and timer interrupts land inside those spans.
  // The noise may add iterations per tick (the tick cycle, an interrupt's
  // drain and refetch), never per cycle.
  constexpr int kFaults = 600;
  ProgramBuilder b;
  b.mov(Reg::R15, 0);
  b.label("top");
  b.mov(Reg::RAX, 0);
  b.load(Reg::RBX, Reg::RAX);  // faults: signal dispatch to "handler"
  b.halt();  // stops the front end: nothing runs ahead of the fault
  b.label("handler");
  b.add(Reg::R15, 1);
  b.cmp(Reg::R15, kFaults);
  b.jcc(isa::Cond::NZ, "top");
  b.halt();
  const isa::Program prog = b.build();
  const int handler = prog.label("handler");

  os::Machine quiet({.model = uarch::CpuModel::KabyLakeI7_7700});
  const LoopCost base = loop_cost(quiet, prog, handler);

  os::MachineOptions opts;
  opts.model = uarch::CpuModel::KabyLakeI7_7700;
  opts.noise = noise::NoiseProfile::desktop();
  os::Machine noisy(opts);
  const LoopCost cost = loop_cost(noisy, prog, handler);
  const noise::NoiseStats& st = noisy.noise()->stats();
  const std::uint64_t ticks =
      st.dvfs_steps + st.tlb_shootdowns + st.timer_interrupts;

  ASSERT_GT(cost.cycles, 1'000'000u);
  ASSERT_GE(ticks, 5u) << "the spans should see noise ticks";
  EXPECT_LE(cost.iterations, base.iterations + 64 * ticks)
      << cost.iterations << " iterations under noise vs " << base.iterations
      << " quiet, " << ticks << " noise ticks, " << cost.cycles << " cycles";
  EXPECT_LT(cost.iterations * 50, cost.cycles);
}

}  // namespace
}  // namespace whisper

// Scheduler corpus (invariant 10, docs/ARCHITECTURE.md): the core's
// scheduler must reproduce a recorded reference, case for case. Each case
// runs one attack trial or one program and reduces everything observable
// about it — the serve::response_trial wire line (or the run's
// architectural result), the full PMU image and every pipeline-trace
// record — to one 64-bit FNV-1a digest. tests/golden/scheduler_corpus.golden
// holds one "<case> <digest>" line per case.
//
// The corpus covers:
//   * every registry attack × every CPU preset × noise {off, desktop};
//   * every attack under each defense stack of test_defense's identity
//     suite (checked there, by DefenseIdentityTest);
//   * a few hundred generated programs (tests/support/program_generator.h):
//     plain, faulting (signal and TSX suppression, transient tails with
//     divides and branches), SMT pairs, and cycle-limited runs.
//
// The digest and the attack/defense cases live in
// tests/support/scheduler_corpus.h; this file owns the case list.
//
// Usage:
//   test_scheduler_corpus                  compare against the golden file
//   test_scheduler_corpus --update-golden  rewrite it from current behaviour
//
// Regenerate only when simulated behaviour is meant to change; a scheduler
// refactor must pass against the recorded file unchanged. Each attack cell,
// defense stack and program group is its own test, so a divergence names
// the cell it lives in.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <tuple>
#include <vector>

#include "isa/builder.h"
#include "noise/noise.h"
#include "os/machine.h"
#include "stats/rng.h"
#include "support/program_generator.h"
#include "support/scheduler_corpus.h"
#include "uarch/trace.h"

namespace whisper {
namespace {

using isa::Cond;
using isa::ProgramBuilder;
using isa::Reg;
using test_support::kPool;
using test_support::ProgramGenerator;
using namespace test_support::corpus;

// ---------------------------------------------------------------------------
// Program cases: one run on a fresh machine, digested through its result
// ---------------------------------------------------------------------------

void digest_result(Fnv& fnv, const uarch::RunResult& r) {
  fnv.u64(r.start_cycle);
  fnv.u64(r.end_cycle);
  fnv.u64(r.cycle_limit_hit ? 1 : 0);
  for (const uarch::ThreadResult& t : r.thread) {
    fnv.u64(t.halted ? 1 : 0);
    fnv.u64(t.killed_by_fault ? 1 : 0);
    fnv.u64(t.instructions_retired);
    fnv.u64(t.tsc.size());
    for (std::uint64_t v : t.tsc) fnv.u64(v);
    for (std::uint64_t v : t.regs) fnv.u64(v);
  }
}

os::MachineOptions program_machine(std::uint64_t i, bool noisy) {
  os::MachineOptions opts;
  opts.model = kModels[i % std::size(kModels)];
  opts.seed = 0x5eed0000ull + i;
  if (noisy) opts.noise = noise::NoiseProfile::desktop();
  return opts;
}

/// Straight-line prefix, a faulting load and a transient tail that
/// consumes the forwarded value: a dependent load (cache side effect), a
/// divide (divider occupancy outliving the squash), a branch on the value
/// (transient mispredict) and a fence. Suppressed by a signal handler or,
/// when `tsx`, by a TSX abort.
isa::Program fault_program(stats::Xoshiro256& rng, bool tsx) {
  ProgramBuilder b;
  b.mov(Reg::R14, static_cast<std::int64_t>(os::Machine::kDataBase));
  const int prefix = static_cast<int>(rng.next_below(12)) + 1;
  for (int i = 0; i < prefix; ++i) {
    const Reg r = kPool[rng.next_below(std::size(kPool))];
    switch (rng.next_below(5)) {
      case 0: b.add(r, static_cast<std::int64_t>(rng.next_below(99))); break;
      case 1: b.not_(r); break;
      case 2: b.load(r, Reg::R14, static_cast<std::int64_t>(
                                      rng.next_below(0x1000) * 8)); break;
      case 3: b.fdiv(r, kPool[rng.next_below(std::size(kPool))]); break;
      default: b.shl(r, 1); break;
    }
  }
  if (rng.next_bool(0.5)) b.clflush(Reg::R14, 0x40);
  if (tsx) b.tsx_begin("handler");
  b.mov(Reg::R15, 0);
  b.load(Reg::RAX, Reg::R15);  // faulting: null deref
  const int tail = static_cast<int>(rng.next_below(8)) + 1;
  for (int i = 0; i < tail; ++i) {
    switch (rng.next_below(6)) {
      case 0:
        b.and_(Reg::RAX, 0xff).shl(Reg::RAX, 6).add(Reg::RAX, Reg::R14);
        b.load(Reg::RBX, Reg::RAX);
        break;
      case 1: b.fdiv(Reg::RCX, Reg::RAX); break;
      case 2: {
        const std::string l = "t" + std::to_string(i);
        b.cmp(Reg::RAX, static_cast<std::int64_t>(rng.next_below(4)));
        b.jcc(Cond::Z, l);
        b.add(Reg::RDX, 1);
        b.label(l);
        break;
      }
      case 3: b.lfence(); break;
      case 4: b.rdtscp(Reg::R8); break;
      default: b.add(kPool[rng.next_below(std::size(kPool))], 1); break;
    }
  }
  if (tsx) b.tsx_end();
  b.label("handler").rdtsc(Reg::R9).halt();
  return b.build();
}

/// Digest of one program run on a fresh machine: the run's result, the
/// machine's PMU image and every trace record.
template <typename Body>
std::uint64_t program_digest(const os::MachineOptions& opts, Body body) {
  os::Machine m(opts);
  Fnv fnv;
  HashingSink sink(fnv);
  m.core().set_trace(&sink);
  const uarch::RunResult r = body(m);
  m.core().set_trace(nullptr);
  digest_result(fnv, r);
  fnv.pmu(m.core().pmu().snapshot());
  fnv.u64(sink.count());
  return fnv.value();
}

enum class ProgramGroup { kPlain, kFaulting, kSmt, kCycleLimit };
constexpr ProgramGroup kProgramGroups[] = {
    ProgramGroup::kPlain, ProgramGroup::kFaulting, ProgramGroup::kSmt,
    ProgramGroup::kCycleLimit};

std::vector<Case> program_cases(ProgramGroup group) {
  std::vector<Case> out;
  switch (group) {
    case ProgramGroup::kPlain:
      // Generated programs: every instruction class the generator knows,
      // divides and back-to-back divides included.
      for (std::uint64_t i = 0; i < 200; ++i) {
        ProgramGenerator gen(0xc0de0000ull + i);
        const isa::Program prog =
            gen.generate(40 + static_cast<int>(i % 5) * 10);
        const auto init = gen.random_regs();
        const os::MachineOptions opts = program_machine(i, i % 2 == 1);
        out.push_back({"program/" + std::to_string(i), [=] {
                         return program_digest(opts, [&](os::Machine& m) {
                           return m.run_user(prog, init, -1, 400'000);
                         });
                       }});
      }
      break;
    case ProgramGroup::kFaulting: {
      // Deferred faults, transient tails, both suppressions. One stream
      // draws every program, so they are built up front, in order.
      stats::Xoshiro256 rng(0xfa17c0deull);
      for (std::uint64_t i = 0; i < 80; ++i) {
        const bool tsx = i % 4 == 3;
        const isa::Program prog = fault_program(rng, tsx);
        std::array<std::uint64_t, isa::kNumRegs> init{};
        for (Reg r : kPool)
          init[static_cast<std::size_t>(r)] = rng.next_below(1000);
        const os::MachineOptions opts = program_machine(i, i % 2 == 1);
        const int handler = tsx ? -1 : prog.label("handler");
        out.push_back({"fault/" + std::to_string(i), [=] {
                         return program_digest(opts, [&](os::Machine& m) {
                           return m.run_user(prog, init, handler, 400'000);
                         });
                       }});
      }
      break;
    }
    case ProgramGroup::kSmt:
      // SMT pairs: both siblings share the front end and the divider.
      for (std::uint64_t i = 0; i < 40; ++i) {
        ProgramGenerator gen(0x5a7ull * (i + 1));
        const isa::Program p0 = gen.generate(30);
        const auto r0 = gen.random_regs();
        const isa::Program p1 = gen.generate(30);
        const auto r1 = gen.random_regs();
        const os::MachineOptions opts = program_machine(i, i % 2 == 1);
        out.push_back({"smt/" + std::to_string(i), [=] {
                         return program_digest(opts, [&](os::Machine& m) {
                           return m.run_smt(p0, r0, p1, r1, -1, -1, 400'000);
                         });
                       }});
      }
      break;
    case ProgramGroup::kCycleLimit:
      // The limit lands mid-program, so the run ends on the deadline
      // rather than on Halt; a second run on the same machine starts from
      // whatever the first left behind (noise schedule, caches, cycle
      // counter).
      for (std::uint64_t i = 0; i < 20; ++i) {
        ProgramGenerator gen(0x11a1ull + i);
        const isa::Program prog = gen.generate(80);
        const auto init = gen.random_regs();
        const os::MachineOptions opts = program_machine(i, i % 2 == 1);
        const std::uint64_t limit = 50 + 37 * i;
        out.push_back({"limit/" + std::to_string(i), [=] {
                         return program_digest(opts, [&](os::Machine& m) {
                           const uarch::RunResult first =
                               m.run_user(prog, init, -1, limit);
                           uarch::RunResult both =
                               m.run_user(prog, init, -1, 400'000);
                           both.start_cycle = first.start_cycle;
                           both.cycle_limit_hit = first.cycle_limit_hit;
                           return both;
                         });
                       }});
      }
      break;
  }
  return out;
}

/// The whole corpus, in golden-file order.
std::vector<Case> all_cases() {
  std::vector<Case> out;
  auto append = [&](std::vector<Case> more) {
    for (Case& c : more) out.push_back(std::move(c));
  };
  for (std::size_t mi = 0; mi < std::size(kModels); ++mi)
    for (const bool noisy : {false, true}) append(attack_cases(mi, noisy));
  for (const char* stack : kDefenseStacks) append(defense_cases(stack));
  for (const ProgramGroup g : kProgramGroups) append(program_cases(g));
  return out;
}

/// --update-golden: rewrite the file from current behaviour.
int write_golden() {
  std::string text;
  const std::vector<Case> cases = all_cases();
  for (const Case& c : cases) text += c.name + " " + hex(c.digest()) + "\n";
  std::ofstream out(golden_path(), std::ios::trunc);
  if (!(out << text)) {
    std::fprintf(stderr, "cannot write golden file %s\n",
                 golden_path().c_str());
    return 1;
  }
  std::printf("[golden] regenerated %s (%zu cases)\n", golden_path().c_str(),
              cases.size());
  return 0;
}

TEST(SchedulerCorpus, GoldenListsExactlyTheCorpusCases) {
  const std::vector<Case> cases = all_cases();
  ASSERT_EQ(golden().size(), cases.size()) << "case count changed";
  for (std::size_t i = 0; i < cases.size(); ++i)
    EXPECT_EQ(golden()[i].first, cases[i].name) << "line " << (i + 1);
}

using Cell = std::tuple<std::size_t, bool>;  // (preset index, noise on)

// The fast-forward identity grid: the scheduler skips inert cycle spans
// (next-event jumps), and every attack cell must still match the digests
// recorded from the cycle-by-cycle structural pipeline. The defense stacks
// get the same check in test_defense's DefenseIdentityTest.
class FastForwardIdentityTest : public ::testing::TestWithParam<Cell> {};

TEST_P(FastForwardIdentityTest, FastForwardMatchesStructuralForEveryAttack) {
  const auto [mi, noisy] = GetParam();
  expect_recorded(attack_cases(mi, noisy));
}

std::string cell_name(const ::testing::TestParamInfo<Cell>& info) {
  const auto [mi, noisy] = info.param;
  static const char* kNames[] = {"SkylakeI7_6700", "KabyLakeI7_7700",
                                 "CometLakeI9_10980XE", "RaptorLakeI9_13900K",
                                 "Zen3Ryzen5_5600G"};
  return std::string(kNames[mi]) + (noisy ? "_DesktopNoise" : "_NoNoise");
}

INSTANTIATE_TEST_SUITE_P(AllPresets, FastForwardIdentityTest,
                         ::testing::Combine(::testing::Range<std::size_t>(
                                                0, std::size(kModels)),
                                            ::testing::Bool()),
                         cell_name);

class SchedulerCorpusPrograms
    : public ::testing::TestWithParam<ProgramGroup> {};

TEST_P(SchedulerCorpusPrograms, MatchRecordedDigests) {
  expect_recorded(program_cases(GetParam()));
}

std::string group_name(const ::testing::TestParamInfo<ProgramGroup>& info) {
  switch (info.param) {
    case ProgramGroup::kPlain: return "Plain";
    case ProgramGroup::kFaulting: return "Faulting";
    case ProgramGroup::kSmt: return "Smt";
    case ProgramGroup::kCycleLimit: return "CycleLimit";
  }
  return "Unknown";
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, SchedulerCorpusPrograms,
                         ::testing::ValuesIn(kProgramGroups), group_name);

}  // namespace
}  // namespace whisper

// whisper_san_tests links this file beside test_obs.cpp, whose main() it
// uses; the corpus is then compare-only.
#ifndef WHISPER_CORPUS_NO_MAIN
int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--update-golden")
      return whisper::write_golden();
  }
  return RUN_ALL_TESTS();
}
#endif

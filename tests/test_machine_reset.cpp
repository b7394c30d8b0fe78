// The snapshot/reset contract: a reset() Machine is bit-identical to a
// freshly constructed one. This is the guard rail under the runner's trial
// fast path — if any microarchitectural structure (cache set, TLB way, LFB
// entry, BPU table, PMU counter, RNG stream) leaks state across reset, the
// pooled-machine path silently stops reproducing the paper's numbers. The
// suites here pin identity at every layer: raw PhysicalMemory pool
// semantics, full AttackResult equality for every registry attack on every
// CPU preset with and without interference, trace/metrics byte streams
// through the runner, and the per-trial seed schedule itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/attacks/registry.h"
#include "mem/phys_mem.h"
#include "noise/noise.h"
#include "obs/chrome_trace.h"
#include "os/machine.h"
#include "runner/runner.h"
#include "uarch/config.h"
#include "uarch/pmu.h"

namespace whisper {
namespace {

// ---------------------------------------------------------------------------
// PhysicalMemory pool semantics: the layer everything above leans on.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kFrame = mem::kFrameBytes;

TEST(PhysMemPool, UnwrittenFramesReadZero) {
  mem::PhysicalMemory pm;
  EXPECT_EQ(pm.read8(0x0), 0u);
  EXPECT_EQ(pm.read64(0x123456789), 0u);
  EXPECT_EQ(pm.allocated_frames(), 0u);  // reads never allocate
}

TEST(PhysMemPool, Write64AcrossFrameBoundary) {
  mem::PhysicalMemory pm;
  const std::uint64_t addr = kFrame - 4;  // straddles frames 0 and 1
  pm.write64(addr, 0x1122334455667788ull);
  EXPECT_EQ(pm.read64(addr), 0x1122334455667788ull);
  EXPECT_EQ(pm.allocated_frames(), 2u);
  EXPECT_EQ(pm.read8(kFrame - 1), 0x55u);  // little-endian byte 3
  EXPECT_EQ(pm.read8(kFrame), 0x44u);      // byte 4, first of frame 1
}

TEST(PhysMemPool, ResetRestoresBaselineAndFreesNewFrames) {
  mem::PhysicalMemory pm;
  pm.write64(0x1000, 0xaaaaull);
  pm.write64(0x5000, 0xbbbbull);
  const std::size_t baseline_frames = pm.allocated_frames();
  pm.snapshot();
  EXPECT_TRUE(pm.snapshotted());
  EXPECT_EQ(pm.dirty_frames(), 0u);

  pm.write64(0x1000, 0xdeadull);      // dirty a baseline frame
  pm.write64(0x900000, 0xbeefull);    // allocate a new one
  EXPECT_EQ(pm.dirty_frames(), 2u);

  pm.reset();
  EXPECT_EQ(pm.read64(0x1000), 0xaaaaull);
  EXPECT_EQ(pm.read64(0x5000), 0xbbbbull);
  EXPECT_EQ(pm.read64(0x900000), 0u);  // freed and reads as never-written
  EXPECT_EQ(pm.allocated_frames(), baseline_frames);
  EXPECT_EQ(pm.dirty_frames(), 0u);
}

TEST(PhysMemPool, DirtyFrameCountingIsPerFrame) {
  mem::PhysicalMemory pm;
  pm.write8(0x0, 1);
  pm.snapshot();
  pm.write8(0x1, 2);
  pm.write8(0x2, 3);  // same frame: still one dirty frame
  EXPECT_EQ(pm.dirty_frames(), 1u);
  pm.write8(kFrame, 4);  // second frame (freshly allocated)
  EXPECT_EQ(pm.dirty_frames(), 2u);
  pm.reset();
  EXPECT_EQ(pm.dirty_frames(), 0u);
}

/// A small shared image: `frames` frames from frame number `first`, each
/// filled with a per-frame byte pattern.
std::shared_ptr<const mem::FrameImage> test_image(std::uint64_t first,
                                                  std::size_t frames) {
  std::vector<std::uint8_t> bytes(frames * kFrame);
  for (std::size_t i = 0; i < bytes.size(); ++i)
    bytes[i] = static_cast<std::uint8_t>((i * 131) ^ (i / kFrame));
  return std::make_shared<const mem::FrameImage>(first, std::move(bytes));
}

TEST(PhysMemPool, FreedSlotsAreReusedAndZeroed) {
  // Frames 1..8 are new each trial, 16..23 belong to the shared base and
  // frame 0 is a private pre-snapshot frame: every kind of first write
  // since the snapshot (fresh zeroed slot, copy of a base frame, copy of a
  // private frame) takes an arena slot that reset() must hand back.
  const auto image = test_image(16, 8);
  mem::PhysicalMemory pm;
  pm.attach_base(image);
  pm.write8(0x0, 1);
  pm.snapshot();

  // Repeated trial cycles writing the same frames: the arena must stop
  // growing after the first cycle (slot reuse), every reused slot must read
  // as zero-filled, and every base or pre-snapshot frame as its baseline.
  std::size_t pool_after_first = 0;
  for (int cycle = 0; cycle < 4; ++cycle) {
    EXPECT_EQ(pm.read8(0x0), 1u) << "cycle " << cycle;
    pm.write8(0x0, 0xee);
    for (std::uint64_t f = 1; f <= 8; ++f) {
      EXPECT_EQ(pm.read64(f * kFrame + 8), 0u)
          << "reused slot leaked bytes (cycle " << cycle << " frame " << f
          << ")";
      pm.write64(f * kFrame + 8, 0xf00d0000ull + f);
      const std::uint64_t b = (15 + f) * kFrame;
      const std::uint8_t* base = image->frame(b / kFrame);
      EXPECT_EQ(pm.read_bytes(b, 8), std::vector<std::uint8_t>(base, base + 8))
          << "base frame " << b / kFrame << " not restored (cycle " << cycle
          << ")";
      pm.write64(b, 0xba5e0000ull + f);
    }
    EXPECT_EQ(pm.dirty_frames(), 17u);
    pm.reset();
    EXPECT_EQ(pm.private_frames(), 1u) << "only frame 0 stays private";
    if (cycle == 0) pool_after_first = pm.pool_frames();
    EXPECT_EQ(pm.pool_frames(), pool_after_first)
        << "arena grew on cycle " << cycle;
  }
  // Frame 0's snapshot version and its write copy, plus the 16 others.
  EXPECT_EQ(pool_after_first, 18u);
}

TEST(PhysMemPool, ResetBeforeSnapshotThrows) {
  mem::PhysicalMemory pm;
  EXPECT_THROW(pm.reset(), std::logic_error);
}

TEST(PhysMemPool, ReSnapshotMovesTheBaseline) {
  mem::PhysicalMemory pm;
  pm.write8(0x0, 1);
  pm.snapshot();
  pm.write8(0x0, 2);
  pm.snapshot();  // re-baseline: the value 2 is now what reset restores
  pm.write8(0x0, 3);
  pm.reset();
  EXPECT_EQ(pm.read8(0x0), 2u);
}

// ---------------------------------------------------------------------------
// Attack-level byte identity: every registry attack × every CPU preset ×
// noise {off, desktop}. The reset machine is deliberately constructed with a
// DIFFERENT seed and dirtied with a full attack run first — reset(seed) must
// erase all of that.
// ---------------------------------------------------------------------------

void expect_identical(const core::AttackResult& a, const core::AttackResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.success, b.success) << what;
  EXPECT_EQ(a.bytes, b.bytes) << what;
  EXPECT_EQ(a.byte_errors, b.byte_errors) << what;
  EXPECT_EQ(a.probes, b.probes) << what;
  EXPECT_EQ(a.cycles, b.cycles) << what;
  EXPECT_EQ(a.seconds, b.seconds) << what;  // bit-identical, not approximate
  EXPECT_EQ(a.confidence, b.confidence) << what;
  EXPECT_EQ(a.gave_up, b.gave_up) << what;
  EXPECT_EQ(a.tote.buckets(), b.tote.buckets()) << what;
  EXPECT_EQ(a.found_slot, b.found_slot) << what;
  EXPECT_EQ(a.found_base, b.found_base) << what;
  EXPECT_EQ(a.true_base, b.true_base) << what;
  EXPECT_EQ(a.slot_scores, b.slot_scores) << what;
}

struct AttackRun {
  core::AttackResult result;
  uarch::PmuSnapshot pmu;  // delta over the attack phase
};

AttackRun run_attack(os::Machine& m, const core::AttackInfo& info) {
  core::AttackOptions opt;
  opt.batches = 1;  // smallest possible cell; identity, not accuracy
  const std::vector<std::uint8_t> payload = {0xa5, 0x3c};
  const uarch::PmuSnapshot before = m.core().pmu().snapshot();
  AttackRun out;
  out.result = core::make_attack(info.name, m, opt)
                   ->run(info.channel ? std::span<const std::uint8_t>(payload)
                                      : std::span<const std::uint8_t>());
  out.pmu = uarch::pmu_delta(before, m.core().pmu().snapshot());
  return out;
}

using Cell = std::tuple<uarch::CpuModel, bool>;  // (preset, noise on)

class ResetIdentityTest : public ::testing::TestWithParam<Cell> {};

TEST_P(ResetIdentityTest, ResetMachineMatchesFreshForEveryAttack) {
  const auto [model, noisy] = GetParam();
  constexpr std::uint64_t kSeed = 0x777ull;

  os::MachineOptions opts;
  opts.model = model;
  opts.noise = noisy ? noise::NoiseProfile::desktop()
                     : noise::NoiseProfile::off();

  // One pooled machine per cell, the way the runner holds it: constructed
  // once (with a different seed, to prove reset overrides it), snapshotted,
  // then dirtied + reset before each comparison.
  os::MachineOptions dirty_opts = opts;
  dirty_opts.seed = 0x31337ull;
  os::Machine reused(dirty_opts);
  reused.snapshot();

  for (const core::AttackInfo& info : core::attack_registry()) {
    const std::string what =
        info.name + " on model " + std::to_string(static_cast<int>(model)) +
        (noisy ? " (desktop noise)" : " (no noise)");

    opts.seed = kSeed;
    os::Machine fresh(opts);
    const AttackRun a = run_attack(fresh, info);

    reused.reset(0x31337ull);        // dirty pass under the other seed
    (void)run_attack(reused, info);
    reused.reset(kSeed);
    const AttackRun b = run_attack(reused, info);

    expect_identical(a.result, b.result, what);
    EXPECT_EQ(a.pmu, b.pmu) << "PMU deltas diverged: " << what;
  }
}

std::string cell_name(const ::testing::TestParamInfo<Cell>& info) {
  const auto [model, noisy] = info.param;
  static const char* kModels[] = {"SkylakeI7_6700", "KabyLakeI7_7700",
                                  "CometLakeI9_10980XE", "RaptorLakeI9_13900K",
                                  "Zen3Ryzen5_5600G"};
  return std::string(kModels[static_cast<int>(model)]) +
         (noisy ? "_DesktopNoise" : "_NoNoise");
}

INSTANTIATE_TEST_SUITE_P(
    AllPresets, ResetIdentityTest,
    ::testing::Combine(::testing::Values(uarch::CpuModel::SkylakeI7_6700,
                                         uarch::CpuModel::KabyLakeI7_7700,
                                         uarch::CpuModel::CometLakeI9_10980XE,
                                         uarch::CpuModel::RaptorLakeI9_13900K,
                                         uarch::CpuModel::Zen3Ryzen5_5600G),
                       ::testing::Bool()),
    cell_name);

// ---------------------------------------------------------------------------
// Runner-level byte identity: runner::run() (pooled machines, reset()
// between trials) must yield the results, traces and metrics of the
// reference — trial i as run_trial(spec_i, trial_seed(base, i)) on a
// freshly constructed machine, where spec_i carries the per-trial payload
// stream payload_seed ^ i.
// ---------------------------------------------------------------------------

runner::RunSpec fig1_spec() {
  runner::RunSpec spec;
  spec.model = uarch::CpuModel::KabyLakeI7_7700;
  spec.attack = "cc";
  spec.trials = 2;
  spec.base_seed = 0xf161ull;
  spec.batches = 2;
  spec.payload_bytes = 2;
  spec.collect_trace = true;
  return spec;
}

void expect_identical(const runner::TrialResult& a,
                      const runner::TrialResult& b) {
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.byte_errors, b.byte_errors);
  EXPECT_EQ(a.confidence, b.confidence);
  EXPECT_EQ(a.gave_up, b.gave_up);
  EXPECT_EQ(a.tote.buckets(), b.tote.buckets());
  EXPECT_EQ(a.pmu, b.pmu);
  EXPECT_EQ(a.topdown.total_cycles, b.topdown.total_cycles);
  EXPECT_EQ(a.topdown.retiring, b.topdown.retiring);
  EXPECT_EQ(a.topdown.bad_speculation, b.topdown.bad_speculation);
  EXPECT_EQ(a.topdown.frontend_bound, b.topdown.frontend_bound);
  EXPECT_EQ(a.topdown.backend_bound, b.topdown.backend_bound);
  EXPECT_EQ(obs::to_chrome_trace(a.events), obs::to_chrome_trace(b.events));
}

/// The fresh-construction reference for every trial of `spec`.
std::vector<runner::TrialResult> fresh_trials(const runner::RunSpec& spec) {
  std::vector<runner::TrialResult> out;
  for (int i = 0; i < spec.trials; ++i) {
    runner::RunSpec spec_i = spec;
    spec_i.payload_seed ^= static_cast<std::uint64_t>(i);
    out.push_back(runner::run_trial(
        spec_i, runner::trial_seed(spec.base_seed,
                                   static_cast<std::uint64_t>(i))));
  }
  return out;
}

TEST(RunnerResetPath, TrialPathsAreBitIdentical) {
  const runner::RunSpec spec = fig1_spec();
  const runner::RunResult pooled = runner::run(spec, /*jobs=*/1);
  const std::vector<runner::TrialResult> fresh = fresh_trials(spec);
  ASSERT_EQ(pooled.trials.size(), fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i)
    expect_identical(pooled.trials[i], fresh[i]);
}

TEST(RunnerResetPath, TraceAndMetricsBytesAreIdentical) {
  // The Fig. 1 pipeline view and the metrics export are the two observable
  // byte streams the obs layer produces; both must be indifferent to
  // whether a trial's machine was pooled or freshly built. The merged
  // trace is the per-trial logs in index order, and the PMU / top-down
  // metrics are the per-trial sums.
  const runner::RunSpec spec = fig1_spec();
  const runner::RunResult pooled = runner::run(spec, /*jobs=*/1);
  obs::EventLog events;
  uarch::PmuSnapshot pmu{};
  obs::TopDown topdown;
  for (const runner::TrialResult& t : fresh_trials(spec)) {
    events.append(t.events);
    for (std::size_t e = 0; e < uarch::kNumPmuEvents; ++e) pmu[e] += t.pmu[e];
    topdown.merge(t.topdown);
  }
  ASSERT_GT(pooled.events.size(), 0u);
  EXPECT_EQ(obs::to_chrome_trace(pooled.events), obs::to_chrome_trace(events));
  const auto metrics = [](const uarch::PmuSnapshot& p,
                          const obs::TopDown& td) {
    obs::MetricsRegistry reg;
    reg.import_pmu(p, "pmu.");
    reg.set_counter("topdown.total_cycles", td.total_cycles);
    reg.set_counter("topdown.retiring", td.retiring);
    reg.set_counter("topdown.bad_speculation", td.bad_speculation);
    reg.set_counter("topdown.frontend_bound", td.frontend_bound);
    reg.set_counter("topdown.backend_bound", td.backend_bound);
    return reg.to_json();
  };
  EXPECT_EQ(metrics(pooled.pmu, pooled.topdown), metrics(pmu, topdown));
}

TEST(RunnerResetPath, RunTrialOverloadsAgree) {
  const runner::RunSpec spec = fig1_spec();
  const std::uint64_t seed = runner::trial_seed(spec.base_seed, 0);
  const runner::TrialResult fresh = runner::run_trial(spec, seed);

  os::Machine m(runner::machine_options(spec, 0xABCDull));
  m.snapshot();
  (void)runner::run_trial(spec, 0xABCDull, m);  // dirty the machine first
  const runner::TrialResult reused = runner::run_trial(spec, seed, m);
  expect_identical(fresh, reused);
}

// ---------------------------------------------------------------------------
// Seed schedule: the per-trial seeds are part of the reproducibility
// contract (documented runs name base seeds). Lock the derivation so a
// refactor that silently reseeds differently — fresh or reused — fails here.
// ---------------------------------------------------------------------------

TEST(SeedSchedule, TrialSeedValuesAreLocked) {
  EXPECT_EQ(runner::trial_seed(0xfeedull, 0), 0x3365e73ff6c1e17bull);
  EXPECT_EQ(runner::trial_seed(0xfeedull, 1), 0x9e730d94c590c83full);
  EXPECT_EQ(runner::trial_seed(0xfeedull, 2), 0x91773e19077212ecull);
  EXPECT_EQ(runner::trial_seed(0xfeedull, 3), 0x189d6c4441f889cbull);
  EXPECT_EQ(runner::trial_seed(1, 0), 0x910a2dec89025cc1ull);
}

TEST(SeedSchedule, MachineOptionsPassSeedThroughVerbatim) {
  runner::RunSpec spec = fig1_spec();
  for (std::uint64_t i = 0; i < 4; ++i) {
    const std::uint64_t s = runner::trial_seed(spec.base_seed, i);
    EXPECT_EQ(runner::machine_options(spec, s).seed, s);
  }
}

TEST(SeedSchedule, SameSeedsFreshOrReused) {
  const runner::RunSpec spec = fig1_spec();
  const runner::RunResult pooled = runner::run(spec, 1);
  const std::vector<runner::TrialResult> fresh = fresh_trials(spec);
  ASSERT_EQ(pooled.trials.size(), fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(pooled.trials[i].seed, runner::trial_seed(spec.base_seed, i));
    EXPECT_EQ(pooled.trials[i].seed, fresh[i].seed);
  }
}

// ---------------------------------------------------------------------------
// Machine-level state probes: targeted checks for state that the attack
// matrix might not exercise on every preset.
// ---------------------------------------------------------------------------

TEST(MachineReset, ThrowsBeforeSnapshot) {
  os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});
  EXPECT_FALSE(m.snapshotted());
  EXPECT_THROW(m.reset(1), std::logic_error);
}

TEST(MachineReset, RestoresMemoryCyclesAndKaslrSlot) {
  os::MachineOptions opts;
  opts.model = uarch::CpuModel::CometLakeI9_10980XE;
  opts.seed = 0x51a7ull;
  os::Machine fresh(opts);
  const int fresh_slot = fresh.kernel().slot();
  const std::uint64_t fresh_word = fresh.peek64(os::Machine::kDataBase);

  os::MachineOptions other = opts;
  other.seed = 0x909ull;
  os::Machine m(other);
  m.snapshot();
  m.poke64(os::Machine::kDataBase, 0x1234ull);
  m.advance_time(5000);
  m.evict_tlbs();
  m.flush_caches();

  m.reset(0x51a7ull);
  EXPECT_EQ(m.kernel().slot(), fresh_slot);
  EXPECT_EQ(m.peek64(os::Machine::kDataBase), fresh_word);
  EXPECT_EQ(m.core().cycle(), fresh.core().cycle());
  EXPECT_EQ(m.core().pmu().snapshot(), fresh.core().pmu().snapshot());
}

TEST(MachineReset, SeedZeroRederivesThePresetSeed) {
  // MachineOptions::seed == 0 means "use the CPU preset's seed"; reset(0)
  // must mean the same thing, not "keep whatever seed was last set".
  os::Machine fresh({.model = uarch::CpuModel::SkylakeI7_6700});
  os::Machine m({.model = uarch::CpuModel::SkylakeI7_6700, .seed = 0xbadull});
  m.snapshot();
  m.reset(0);
  EXPECT_EQ(m.config().seed, fresh.config().seed);
}

// ---------------------------------------------------------------------------
// Shared copy-on-write image: memories that share one immutable base must
// behave exactly as if each held its own copy, and the incremental digest
// must equal a full scan of what the memory reads back.
// ---------------------------------------------------------------------------

/// The digest recomputed from scratch: every live frame's bytes, read back
/// through the public interface and hashed.
std::uint64_t full_scan_digest(const mem::PhysicalMemory& pm) {
  std::uint64_t acc = 0;
  for (const std::uint64_t f : pm.live_frames())
    acc += mem::PhysicalMemory::frame_hash(f, pm.read_bytes(f * kFrame, kFrame)
                                                  .data());
  return acc;
}

/// A reference PhysicalMemory: plain maps of frame number → bytes, with the
/// documented snapshot/reset/corrupt semantics spelled out directly.
struct MemoryModel {
  using Frame = std::array<std::uint8_t, kFrame>;
  std::map<std::uint64_t, Frame> live, saved;
  std::set<std::uint64_t> written;  // frames written since the snapshot
  bool snapshotted = false;

  void write8(std::uint64_t paddr, std::uint8_t v) {
    live[paddr / kFrame][paddr % kFrame] = v;  // a new frame starts zeroed
    written.insert(paddr / kFrame);
  }
  void snapshot() {
    saved = live;
    written.clear();
    snapshotted = true;
  }
  void reset() {
    live = saved;
    written.clear();
  }
  void corrupt() {
    if (live.empty()) return;
    const std::uint64_t victim = live.begin()->first;
    live[victim][0] ^= 0xA5;
    // A frame the trial did not write is its own snapshot version, so the
    // flip survives reset(); a written frame's snapshot version does not
    // carry it.
    if (snapshotted && written.count(victim) == 0) saved[victim][0] ^= 0xA5;
  }
};

void expect_matches(const mem::PhysicalMemory& pm, const MemoryModel& model,
                    const std::string& what) {
  std::vector<std::uint64_t> frames;
  for (const auto& [f, bytes] : model.live) {
    frames.push_back(f);
    ASSERT_EQ(pm.read_bytes(f * kFrame, kFrame),
              std::vector<std::uint8_t>(bytes.begin(), bytes.end()))
        << what << ": frame " << f;
  }
  ASSERT_EQ(pm.live_frames(), frames) << what;
  ASSERT_EQ(pm.digest(), full_scan_digest(pm)) << what;
}

TEST(SharedImage, IncrementalDigestEqualsFullScanUnderRandomOps) {
  // Frames 8..23 are the shared base; writes land on frames 0..39, so they
  // hit base frames, frames outside it and frame-straddling words.
  const auto image = test_image(8, 16);
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    std::mt19937_64 rng(seed);
    mem::PhysicalMemory pm[2];
    MemoryModel model[2];
    for (int i = 0; i < 2; ++i) {
      pm[i].attach_base(image);
      for (std::uint64_t f = 8; f < 24; ++f) {
        const std::uint8_t* bytes = image->frame(f);
        std::copy(bytes, bytes + kFrame, model[i].live[f].begin());
      }
    }
    for (int step = 0; step < 600; ++step) {
      const int i = static_cast<int>(rng() % 2);
      const std::uint64_t paddr = rng() % (40 * kFrame);
      const std::string what = "seed " + std::to_string(seed) + " step " +
                               std::to_string(step) + " memory " +
                               std::to_string(i);
      switch (rng() % 20) {
        case 0:
          pm[i].snapshot();
          model[i].snapshot();
          break;
        case 1:
        case 2:
          if (!model[i].snapshotted) {
            EXPECT_THROW(pm[i].reset(), std::logic_error) << what;
            break;
          }
          pm[i].reset();
          model[i].reset();
          break;
        case 3:
          pm[i].corrupt_frame_for_test();
          model[i].corrupt();
          break;
        default:
          if (rng() % 2 == 0) {
            const auto v = static_cast<std::uint8_t>(rng());
            pm[i].write8(paddr, v);
            model[i].write8(paddr, v);
          } else {
            // Bias towards the last bytes of a frame: straddling words.
            const std::uint64_t at =
                rng() % 4 == 0 ? paddr | (kFrame - 4) : paddr;
            const std::uint64_t v = rng();
            pm[i].write64(at, v);
            for (std::uint64_t b = 0; b < 8; ++b)
              model[i].write8(at + b, static_cast<std::uint8_t>(v >> (8 * b)));
          }
      }
      expect_matches(pm[0], model[0], what);
      expect_matches(pm[1], model[1], what);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(SharedImage, WritesStayPrivateToTheirMachine) {
  const auto& image = os::kernel_image();
  const std::uint64_t pa = image->first_frame() * kFrame;  // "kernel" + page 0
  const std::vector<std::uint8_t> original(image->frame(image->first_frame()),
                                           image->frame(image->first_frame()) +
                                               kFrame);
  const auto page = [&](os::Machine& m) {
    return m.memsys().phys().read_bytes(pa, kFrame);
  };
  const os::MachineOptions opts{.model = uarch::CpuModel::KabyLakeI7_7700};
  os::Machine a(opts), b(opts);
  a.snapshot();
  b.snapshot();

  a.memsys().phys().write64(pa, 0x1111ull);
  EXPECT_EQ(page(b), original) << "a's write reached b";
  b.memsys().phys().write64(pa + 8, 0x2222ull);
  EXPECT_EQ(a.memsys().phys().read64(pa), 0x1111ull);
  EXPECT_EQ(a.memsys().phys().read64(pa + 8), 0u) << "b's write reached a";

  a.reset(1);
  EXPECT_EQ(page(a), original);
  EXPECT_EQ(b.memsys().phys().read64(pa + 8), 0x2222ull) << "a's reset hit b";
  b.reset(1);
  EXPECT_EQ(page(b), original);

  // Secrets are planted by the same copy-on-write path.
  const std::vector<std::uint8_t> secret = {0xde, 0xad, 0xbe, 0xef};
  const std::uint64_t va = a.plant_kernel_secret(secret);
  EXPECT_EQ(a.peek_bytes(va, secret.size()), secret);
  EXPECT_NE(b.peek_bytes(va, secret.size()), secret);

  // The image itself never changed: a machine built now reads it intact.
  os::Machine c(opts);
  EXPECT_EQ(page(c), original);
  EXPECT_EQ(c.state_digest(), image->digest());
}

TEST(SharedImage, FreshMachineOwnsNoPrivateFrames) {
  // Construction attaches the shared image and copies nothing, so snapshot()
  // hashes nothing: the baseline is the image's own precomputed digest.
  const runner::RunSpec spec = fig1_spec();
  const std::uint64_t seed = runner::trial_seed(spec.base_seed, 0);
  os::Machine m(runner::machine_options(spec, seed));
  m.snapshot();
  const mem::PhysicalMemory& phys = m.memsys().phys();
  EXPECT_EQ(phys.private_frames(), 0u);
  EXPECT_EQ(phys.pool_frames(), 0u);
  EXPECT_EQ(phys.allocated_frames(), os::kernel_image()->frames());
  EXPECT_EQ(m.baseline_digest(), os::kernel_image()->digest());

  // A trial privatises the frames it writes; reset() hands them all back.
  (void)runner::run_trial(spec, seed, m);
  EXPECT_GT(phys.private_frames(), 0u);
  m.reset(seed);
  EXPECT_EQ(phys.private_frames(), 0u);
  EXPECT_EQ(m.state_digest(), m.baseline_digest());
}

TEST(SharedImage, ConcurrentVerifiedRunMatchesOneWorker) {
  // Four workers construct, verify and reset pooled machines over the one
  // image at once; the result must not depend on the worker count.
  runner::RunSpec spec = fig1_spec();
  spec.trials = 6;
  spec.collect_trace = false;
  spec.verify_reset = true;
  const runner::RunResult one = runner::run(spec, /*jobs=*/1);
  const runner::RunResult four = runner::run(spec, /*jobs=*/4);
  EXPECT_EQ(one.completed, one.attempted);
  EXPECT_EQ(four.completed, four.attempted);
  EXPECT_EQ(one.quarantined + four.quarantined, 0u);
  ASSERT_EQ(one.trials.size(), four.trials.size());
  for (std::size_t i = 0; i < one.trials.size(); ++i)
    expect_identical(one.trials[i], four.trials[i]);
}

}  // namespace
}  // namespace whisper

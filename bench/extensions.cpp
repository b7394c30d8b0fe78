// Extension experiments beyond the paper's evaluation:
//
//   E1  TET-Spectre-V1 — the Whisper channel composed with the classic
//       bounds-check-bypass window (no fault, works on fixed silicon).
//   E2  Detector evaluation — the §4.2 threat-model assumption quantified:
//       which monitors see which attack.
//   E3  Branchless (CMOV) rewrite — the constant-time software mitigation
//       that silences the channel at its source.
//   E4  Repetition-coded SMT channel — the paper's "speed up with high
//       accuracy" future work, first step.
#include <cstdio>

#include "baseline/avx_kaslr.h"
#include "baseline/flush_reload.h"
#include "bench/bench_util.h"
#include "core/attacks/meltdown.h"
#include "core/attacks/smt_channel.h"
#include "core/attacks/spectre_rsb.h"
#include "core/attacks/spectre_v1.h"
#include "core/attacks/kaslr.h"
#include "core/detector.h"
#include "core/gadgets.h"
#include "os/machine.h"

using namespace whisper;

int main(int argc, char** argv) {
  cli::parse_or_exit("extensions", {}, argc, argv);
  bench::heading("Extensions beyond the paper's evaluation");

  // --- E1: TET-Spectre-V1 ---------------------------------------------------
  bench::subheading("E1: TET-Spectre-V1 (bounds-check bypass over Whisper)");
  for (uarch::CpuModel model : {uarch::CpuModel::KabyLakeI7_7700,
                                uarch::CpuModel::CometLakeI9_10980XE,
                                uarch::CpuModel::Zen3Ryzen5_5600G}) {
    os::Machine m({.model = model});
    core::TetSpectreV1 atk(m);
    const auto secret = bench::random_bytes(8, 0xE1);
    const std::uint64_t addr = core::TetSpectreV1::kArrayBase + 0x80;
    m.poke_bytes(addr, secret);
    const std::uint64_t start = m.core().cycle();
    const auto leaked = atk.leak(addr, secret.size());
    const auto rep = stats::evaluate_channel(
        secret, leaked, m.core().cycle() - start, m.config().ghz);
    std::printf("  %-24s %s  (%s)\n", uarch::to_string(model).c_str(),
                bench::mark(leaked == secret), rep.to_string().c_str());
  }
  std::printf("  (V1 needs no Meltdown/MDS silicon flaw — it leaks on every "
              "model, including the fixed ones)\n");

  // --- E2: detector evaluation ----------------------------------------------
  bench::subheading("E2: PMU-monitor evaluation (who gets caught?)");
  std::printf("  %-22s %-22s %-22s\n", "attack", "cache monitor",
              "clear-rate monitor");
  core::PmuDetector detector;
  auto verdict = [&](const uarch::PmuSnapshot& d) {
    return detector.analyze(d);
  };
  {
    os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});
    const auto secret = bench::random_bytes(2, 0xE2);
    const std::uint64_t kaddr = m.plant_kernel_secret(secret);
    const auto before = m.core().pmu().snapshot();
    baseline::MeltdownFlushReload atk(m);
    (void)atk.leak(kaddr, secret.size());
    const auto r = verdict(uarch::pmu_delta(before, m.core().pmu().snapshot()));
    std::printf("  %-22s %-22s %-22s\n", "Meltdown+F&R",
                r.cache_attack_suspected ? "DETECTED" : "missed",
                r.clear_storm_suspected ? "DETECTED" : "missed");
  }
  {
    os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});
    const auto secret = bench::random_bytes(2, 0xE2);
    const std::uint64_t kaddr = m.plant_kernel_secret(secret);
    const auto before = m.core().pmu().snapshot();
    core::TetMeltdown atk(m, {{.batches = 3}});
    (void)atk.leak(kaddr, secret.size());
    const auto r = verdict(uarch::pmu_delta(before, m.core().pmu().snapshot()));
    std::printf("  %-22s %-22s %-22s\n", "TET-MD",
                r.cache_attack_suspected ? "DETECTED" : "missed",
                r.clear_storm_suspected ? "DETECTED" : "missed");
  }
  {
    os::Machine m({.model = uarch::CpuModel::RaptorLakeI9_13900K});
    const auto secret = bench::random_bytes(2, 0xE2);
    m.poke_bytes(os::Machine::kDataBase + 0x1000, secret);
    const auto before = m.core().pmu().snapshot();
    core::TetSpectreRsb atk(m);
    (void)atk.leak(os::Machine::kDataBase + 0x1000, secret.size());
    const auto r = verdict(uarch::pmu_delta(before, m.core().pmu().snapshot()));
    std::printf("  %-22s %-22s %-22s\n", "TET-RSB",
                r.cache_attack_suspected ? "DETECTED" : "missed",
                r.clear_storm_suspected ? "DETECTED" : "missed");
  }
  std::printf("  (the §4.2 assumption quantified: cache monitors miss every "
              "TET variant; only a fault-storm\n   monitor sees "
              "exception-suppressed TET — and TET-RSB evades both)\n");

  // --- E3: branchless rewrite -------------------------------------------------
  bench::subheading("E3: constant-time (CMOV) rewrite kills the channel");
  {
    os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});
    m.poke8(os::Machine::kSharedBase, 'S');
    std::array<std::uint64_t, isa::kNumRegs> regs{};
    regs[static_cast<std::size_t>(isa::Reg::RCX)] = core::kNullProbeAddress;
    regs[static_cast<std::size_t>(isa::Reg::RDX)] = os::Machine::kSharedBase;
    for (bool branchless : {false, true}) {
      const auto g =
          branchless
              ? core::make_tet_gadget_branchless(
                    core::preferred_window(m.config()))
              : core::make_tet_gadget(
                    {.window = core::preferred_window(m.config()),
                     .source = core::SecretSource::SharedMemory});
      double hit = 0, miss = 0;
      for (int i = 0; i < 32; ++i) {
        regs[static_cast<std::size_t>(isa::Reg::RBX)] = 'S';
        hit += static_cast<double>(core::run_tote(m, g, regs));
        regs[static_cast<std::size_t>(isa::Reg::RBX)] = 'T';
        miss += static_cast<double>(core::run_tote(m, g, regs));
      }
      std::printf("  %-18s ToTE match %.1f vs mismatch %.1f  (delta %+.1f "
                  "cycles)\n",
                  branchless ? "cmov (branchless):" : "jcc (Fig. 1a):",
                  hit / 32, miss / 32, (hit - miss) / 32);
    }
  }

  // --- E5: AVX-timing baseline and its mitigation ----------------------------
  bench::subheading("E5: AVX-timing KASLR baseline (Choi et al. '23) vs the "
                    "'replace AVX' mitigation (6.1)");
  for (bool gating : {true, false}) {
    uarch::CpuConfig cfg =
        uarch::make_config(uarch::CpuModel::CometLakeI9_10980XE);
    cfg.avx_power_gating = gating;
    os::Machine m1({.model = cfg.model, .seed = 0xE5, .config = cfg});
    baseline::AvxKaslr avx(m1);
    const auto ra = avx.run();
    os::Machine m2({.model = cfg.model, .seed = 0xE5, .config = cfg});
    core::TetKaslr tet(m2, {.rounds = 2});
    const auto rt = tet.run();
    std::printf("  AVX power gating %-3s -> AVX-KASLR %s   TET-KASLR %s\n",
                gating ? "on" : "off", bench::mark(ra.success),
                bench::mark(rt.success));
  }
  std::printf("  (fixing the AVX unit's timing kills the AVX probe; TET "
              "never touched the vector unit)\n");

  // --- E4: repetition-coded SMT channel ---------------------------------------
  bench::subheading("E4: repetition coding on the skewed SMT channel");
  std::printf("  %-12s %-14s %-14s\n", "repetition", "bit error", "rate");
  for (int rep : {1, 3, 5, 9}) {
    os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});
    core::SmtCovertChannel ch(m, {.spy_iters = 12,
                                  .calibration_bits = 16,
                                  .start_skew_max = 60,
                                  .repetition = rep});
    const auto payload = bench::random_bytes(128, 0xE4);
    const auto r = ch.transmit(payload);
    std::printf("  %-12d %-14.1f %-14s\n", rep, r.bit_error_rate * 100.0,
                stats::format_rate(r.bytes_per_second).c_str());
  }
  std::printf("  (\"we leave speed up with high accuracy ... to future "
              "work\" — §4.4; majority decoding is step one)\n");
  return 0;
}

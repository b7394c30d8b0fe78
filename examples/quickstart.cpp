// Quickstart: build the Fig. 1a TET gadget, probe it, and watch the
// Whisper timing channel appear.
//
//   $ ./quickstart
//
// Walks through the public API in five steps:
//   1. bring up a simulated machine (CPU model + kernel),
//   2. write the gadget with the ProgramBuilder,
//   3. probe it with run_tote(),
//   4. decode with the ArgmaxAnalyzer,
//   5. peek at the PMU to see *why* the timing moved.
#include <cstdio>

#include "cli/flags.h"
#include "core/analyzer.h"
#include "core/attacks/common.h"
#include "core/gadgets.h"
#include "os/machine.h"

using namespace whisper;

int main(int argc, char** argv) {
  cli::parse_or_exit("quickstart", {}, argc, argv);
  // 1. A simulated Intel Core i7-7700 running a KASLR'd kernel.
  os::Machine machine({.model = uarch::CpuModel::KabyLakeI7_7700});
  std::printf("machine: %s (%s), %.1f GHz, TSX %s\n",
              machine.config().name.c_str(),
              machine.config().uarch_name.c_str(), machine.config().ghz,
              machine.config().has_tsx ? "yes" : "no");

  // 2. The Fig. 1a gadget: a faulting load opens a transient window; inside
  //    it a Jcc compares a secret byte against our test value.
  const std::uint8_t kSecret = 'S';
  machine.poke8(os::Machine::kSharedBase, kSecret);
  const core::GadgetProgram gadget = core::make_tet_gadget(
      {.window = core::preferred_window(machine.config()),
       .source = core::SecretSource::SharedMemory});
  std::printf("\nthe gadget:\n%s\n", gadget.prog.disassemble().c_str());

  // 3 + 4. Sweep test values, collect ToTE, decode by batch argmax.
  core::ArgmaxAnalyzer analyzer(core::Polarity::Max);
  auto regs = std::array<std::uint64_t, isa::kNumRegs>{};
  regs[static_cast<std::size_t>(isa::Reg::RCX)] = core::kNullProbeAddress;
  regs[static_cast<std::size_t>(isa::Reg::RDX)] = os::Machine::kSharedBase;
  for (int batch = 0; batch < 8; ++batch) {
    for (int tv = 0; tv <= 255; ++tv) {
      regs[static_cast<std::size_t>(isa::Reg::RBX)] =
          static_cast<std::uint64_t>(tv);
      analyzer.add(tv, core::run_tote(machine, gadget, regs));
    }
    analyzer.end_batch();
  }
  const int decoded = analyzer.decode();
  const auto means = analyzer.mean_tote_by_value();
  std::printf("mean ToTE at the secret value: %.1f cycles\n",
              means[kSecret]);
  std::printf("mean ToTE one value over:      %.1f cycles\n",
              means[kSecret + 1]);
  std::printf("decoded byte: '%c'  (planted: '%c')\n\n",
              static_cast<char>(decoded), static_cast<char>(kSecret));

  // 5. Why? Ask the PMU: a triggered probe mispredicts the transient Jcc
  //    and pays a front-end resteer that the machine clear must drain.
  const auto before = machine.core().pmu().snapshot();
  regs[static_cast<std::size_t>(isa::Reg::RBX)] = kSecret;
  (void)core::run_tote(machine, gadget, regs);
  const auto after = machine.core().pmu().snapshot();
  const auto delta = uarch::pmu_delta(before, after);
  for (auto e : {uarch::PmuEvent::BR_MISP_EXEC_ALL_BRANCHES,
                 uarch::PmuEvent::INT_MISC_CLEAR_RESTEER_CYCLES,
                 uarch::PmuEvent::MACHINE_CLEARS_COUNT}) {
    std::printf("%-36s %llu\n", uarch::to_string(e).c_str(),
                static_cast<unsigned long long>(
                    delta[static_cast<std::size_t>(e)]));
  }
  return decoded == kSecret ? 0 : 1;
}

// Example: derandomise the kernel with TET-KASLR and climb the defense
// ladder — plain KASLR, +KPTI, +FLARE, inside Docker — finishing with what
// the disclosure is worth (ROP target addresses) and the FGKASLR caveat.
#include <cstdio>

#include "cli/flags.h"
#include "baseline/prefetch_kaslr.h"
#include "core/attacks/kaslr.h"
#include "os/machine.h"

using namespace whisper;

namespace {

void attack(const char* label, const os::MachineOptions& opts) {
  os::Machine m(opts);
  core::TetKaslr tet(m, {.rounds = 3});
  const auto r = tet.run();
  std::printf("%-28s TET-KASLR: %s  base=%#llx (true %#llx), %.4f s sim, "
              "%zu probes\n",
              label, r.success ? "BROKEN " : "holds  ",
              static_cast<unsigned long long>(r.found_base),
              static_cast<unsigned long long>(r.true_base), r.seconds,
              r.probes);

  os::Machine m2(opts);
  baseline::PrefetchKaslr pf(m2, {.rounds = 3});
  const auto p = pf.run();
  std::printf("%-28s prefetch : %s\n", "",
              p.success ? "BROKEN  (EntryBleed-style walk timing)"
                        : "holds   (timing uniform)");
}

}  // namespace

int main(int argc, char** argv) {
  cli::parse_or_exit("break_kaslr", {}, argc, argv);
  const uarch::CpuModel cpu = uarch::CpuModel::CometLakeI9_10980XE;
  std::printf("target: %s — kernel image somewhere in the 512-slot window "
              "%#llx..%#llx\n\n",
              uarch::make_config(cpu).name.c_str(),
              static_cast<unsigned long long>(os::kKaslrRegionStart),
              static_cast<unsigned long long>(os::kKaslrRegionEnd));

  attack("plain KASLR:", {.model = cpu, .seed = 7});
  attack("KASLR + KPTI:", {.model = cpu, .kernel = {.kpti = true},
                           .seed = 8});
  attack("KASLR + KPTI + FLARE:",
         {.model = cpu, .kernel = {.kpti = true, .flare = true}, .seed = 9});
  attack("KASLR + KPTI (Docker):",
         {.model = cpu, .kernel = {.kpti = true}, .docker = true,
          .seed = 10});
  attack("KASLR on AMD Zen 3:",
         {.model = uarch::CpuModel::Zen3Ryzen5_5600G, .seed = 11});

  // What the attacker does with the base (code reuse, §2.1).
  std::printf("\nwith the base disclosed, classic offsets give ROP "
              "targets:\n");
  {
    os::Machine m({.model = cpu, .seed = 8});
    core::TetKaslr tet(m);
    const auto r = tet.run();
    for (const char* sym : {"commit_creds", "prepare_kernel_cred",
                            "modprobe_path"}) {
      std::printf("  %-22s guess %#llx  actual %#llx  %s\n", sym,
                  static_cast<unsigned long long>(
                      r.found_base +
                      (m.kernel().symbol_guess(sym) -
                       m.kernel().kernel_base())),
                  static_cast<unsigned long long>(m.kernel().symbol_addr(sym)),
                  m.kernel().symbol_guess(sym) == m.kernel().symbol_addr(sym)
                      ? "(exact)"
                      : "(moved)");
    }
  }

  // ...unless the kernel shuffles functions (FGKASLR, §6.2).
  std::printf("\nwith FGKASLR (the paper's suggested mitigation):\n");
  {
    os::Machine m({.model = cpu, .kernel = {.fgkaslr = true}, .seed = 12});
    core::TetKaslr tet(m);
    const auto r = tet.run();
    std::printf("  base still leaks (%s), but:\n",
                r.success ? "broken" : "holds");
    for (const char* sym : {"commit_creds", "prepare_kernel_cred"}) {
      std::printf("  %-22s guess %#llx  actual %#llx  %s\n", sym,
                  static_cast<unsigned long long>(m.kernel().symbol_guess(sym)),
                  static_cast<unsigned long long>(m.kernel().symbol_addr(sym)),
                  m.kernel().symbol_guess(sym) == m.kernel().symbol_addr(sym)
                      ? "(exact)"
                      : "(moved — offset-based ROP breaks)");
    }
  }
  return 0;
}

// Example: leak a kernel secret two ways — over the Whisper (TET) channel
// and over the classic Flush+Reload cache channel — then show why the
// defender sees only one of them.
//
// Scenario (paper §4.2): an unprivileged process on a pre-KPTI Kaby Lake
// machine wants a key sitting in kernel memory. The machine runs a
// cache-monitoring detector, so cache-based exfiltration is risky.
#include <cstdio>
#include <string>

#include "cli/flags.h"
#include "baseline/flush_reload.h"
#include "core/attacks/meltdown.h"
#include "os/machine.h"

using namespace whisper;

namespace {

int hot_probe_lines(os::Machine& m) {
  int hot = 0;
  for (int i = 0; i < 256; ++i) {
    const std::uint64_t pa = m.memsys().translate_or_throw(
        baseline::kProbeArrayBase + static_cast<std::uint64_t>(i) * 64);
    if (m.memsys().l1().contains(pa) || m.memsys().l2().contains(pa) ||
        m.memsys().l3().contains(pa))
      ++hot;
  }
  return hot;
}

std::string printable(const std::vector<std::uint8_t>& v) {
  std::string s;
  for (std::uint8_t b : v) s += (b >= 32 && b < 127) ? char(b) : '.';
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  cli::parse_or_exit("leak_secret", {}, argc, argv);
  os::Machine machine({.model = uarch::CpuModel::KabyLakeI7_7700});
  const std::string secret_str = "root:$6$WhisperDAC24";
  const std::vector<std::uint8_t> secret(secret_str.begin(),
                                         secret_str.end());
  const std::uint64_t kaddr = machine.plant_kernel_secret(secret);
  std::printf("victim kernel secret planted at %#llx (%zu bytes)\n\n",
              static_cast<unsigned long long>(kaddr), secret.size());

  // --- Attack 1: classic Meltdown + Flush&Reload --------------------------
  {
    baseline::MeltdownFlushReload atk(machine);
    const auto leaked = atk.leak(kaddr, secret.size());
    std::printf("[Flush+Reload] leaked: \"%s\"  (%s)\n",
                printable(leaked).c_str(),
                leaked == secret ? "exact" : "errors!");
    std::printf("[Flush+Reload] probe-array lines left hot in the cache "
                "after the last byte: %d\n",
                hot_probe_lines(machine));
    std::printf("               -> a cache-activity detector sees the "
                "transmission pattern\n\n");
  }

  // --- Attack 2: TET-Meltdown (the paper's stealthy variant) --------------
  {
    // Flush the probe array so any footprint would be attributable to TET.
    for (int i = 0; i < 256; ++i)
      machine.memsys().clflush(baseline::kProbeArrayBase +
                               static_cast<std::uint64_t>(i) * 64);
    core::TetMeltdown atk(machine);
    const core::AttackResult res = atk.run(secret);
    const std::vector<std::uint8_t>& leaked = res.bytes;
    std::printf("[TET-MD]       leaked: \"%s\"  (%s)\n",
                printable(leaked).c_str(),
                leaked == secret ? "exact" : "errors!");
    std::printf("[TET-MD]       probe-array lines hot afterwards: %d\n",
                hot_probe_lines(machine));
    std::printf("               -> the secret travelled in the *duration* "
                "of the transient window; no\n");
    std::printf("                  attacker-chosen cache state was used "
                "(stateless & transient-only, Table 1)\n\n");
    std::printf("probes used: %zu, simulated time: %.4f s\n", res.probes,
                res.seconds);
  }

  // --- And the mitigation story --------------------------------------------
  {
    os::Machine patched({.model = uarch::CpuModel::KabyLakeI7_7700,
                         .kernel = {.kpti = true}});
    const std::uint64_t kaddr2 = patched.plant_kernel_secret(secret);
    core::TetMeltdown atk(patched, {{.batches = 3}});
    const auto leaked = atk.leak(kaddr2, secret.size());
    std::printf("with KPTI enabled: leaked \"%s\" — %s (the secret page is "
                "simply unmapped, §6.2)\n",
                printable(leaked).c_str(),
                leaked == secret ? "STILL LEAKS?!" : "attack defeated");
  }
  return 0;
}

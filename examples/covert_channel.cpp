// Example: move a message across two covert channels built on the Whisper
// primitive — the single-thread TET-CC channel and the SMT sibling channel
// (§4.4) — and compare them with the cache-based Flush+Reload channel.
#include <cstdio>
#include <string>

#include "cli/flags.h"
#include "baseline/flush_reload.h"
#include "core/attacks/smt_channel.h"
#include "core/covert_channel.h"
#include "os/machine.h"

using namespace whisper;

int main(int argc, char** argv) {
  cli::parse_or_exit("covert_channel", {}, argc, argv);
  const std::string msg_str =
      "whisper: timing the transient execution (DAC'24)";
  const std::vector<std::uint8_t> msg(msg_str.begin(), msg_str.end());
  std::printf("payload: \"%s\" (%zu bytes)\n\n", msg_str.c_str(), msg.size());

  // --- TET-CC: sender publishes a byte, receiver sweeps the gadget --------
  {
    os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});
    core::TetCovertChannel cc(m);
    const auto rep = cc.transmit(msg);
    std::printf("[TET-CC]  %s\n", rep.to_string().c_str());
  }

  // --- SMT channel: trojan faults for '1', spy times its nop loop ---------
  {
    os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});
    core::SmtCovertChannel ch(m);
    const auto rep = ch.transmit(msg);
    std::printf("[SMT]     %s  (threshold %llu cycles)\n",
                rep.to_string().c_str(),
                static_cast<unsigned long long>(ch.threshold()));
  }

  // --- Flush+Reload for comparison -----------------------------------------
  {
    os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});
    baseline::FlushReloadChannel ch(m);
    const auto rep = ch.transmit(msg);
    std::printf("[F+R]     %s\n", rep.to_string().c_str());
  }

  std::printf("\nTET-CC needs no shared cache lines for the data path and "
              "leaves no probe-array footprint;\nthe SMT channel needs only "
              "co-residency; Flush+Reload is faster but stateful "
              "(Table 1).\n");
  return 0;
}

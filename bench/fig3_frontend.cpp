// Figure 3 reproduction: "Frontend-issued resteer within transient
// execution" — the triggered gadget's resteer kills DSB delivery, shifts
// µop supply to the legacy MITE path, and stalls instruction fetch.
#include <cstdio>

#include "bench/bench_util.h"
#include "core/pmu_toolset.h"
#include "os/machine.h"

using namespace whisper;

int main(int argc, char** argv) {
  cli::parse_or_exit("fig3_frontend", {}, argc, argv);
  bench::heading("Figure 3 — Frontend-issued resteer within transient "
                 "execution (i7-7700 model)");

  os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});
  core::PmuToolset ts(m);
  const auto base = core::scenario_tet_cc(false);
  const auto var = core::scenario_tet_cc(true);
  base(m);
  var(m);

  struct Row {
    uarch::PmuEvent event;
    const char* meaning;
  };
  const Row rows[] = {
      {uarch::PmuEvent::IDQ_DSB_UOPS, "uops delivered from the DSB (uop cache)"},
      {uarch::PmuEvent::IDQ_DSB_CYCLES_ANY, "cycles with any DSB delivery"},
      {uarch::PmuEvent::IDQ_MS_MITE_UOPS, "uops delivered via legacy MITE"},
      {uarch::PmuEvent::IDQ_ALL_MITE_CYCLES_ANY_UOPS,
       "cycles with any MITE delivery"},
      {uarch::PmuEvent::ICACHE_16B_IFDATA_STALL,
       "fetch stall cycles (cold refetch)"},
      {uarch::PmuEvent::INT_MISC_CLEAR_RESTEER_CYCLES,
       "resteer cycles (BPU clear)"},
      {uarch::PmuEvent::BR_MISP_EXEC_ALL_BRANCHES,
       "branch mispredicts executed"},
  };

  std::printf("%-36s %10s %10s %8s  %s\n", "Event", "not-trig", "trig",
              "delta", "interpretation");
  std::printf("%s\n", std::string(108, '-').c_str());
  for (const Row& row : rows) {
    const core::EventRecord r = ts.measure(row.event, base, var);
    std::printf("%-36s %10.0f %10.0f %+8.0f  %s\n",
                uarch::to_string(row.event).c_str(), r.baseline, r.variant,
                r.delta(), row.meaning);
  }

  std::printf("\nReading (paper's Answer to RQ1): the transient Jcc "
              "misprediction resteers the front end —\nDSB delivery drops, "
              "MITE takes over the refetch, and the resteer/recovery stall "
              "lengthens ToTE.\n");
  return 0;
}

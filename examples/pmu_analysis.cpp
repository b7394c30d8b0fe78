// Example: root-cause a timing anomaly with the PMU toolset (§5, Fig. 2).
//
// You observed that some probes of your gadget run ~10 cycles longer than
// others and want to know which microarchitectural mechanism is
// responsible. The toolset automates the paper's three-stage flow.
#include <cstdio>

#include "cli/flags.h"
#include "core/pmu_toolset.h"
#include "os/machine.h"

using namespace whisper;

int main(int argc, char** argv) {
  cli::parse_or_exit("pmu_analysis", {}, argc, argv);
  os::Machine m({.model = uarch::CpuModel::KabyLakeI7_7700});
  core::PmuToolset toolset(m);

  std::printf("stage 1 — preparation: enumerate candidate events\n");
  const auto events = toolset.catalog();
  std::printf("  %zu events available on %s\n\n", events.size(),
              m.config().name.c_str());

  std::printf("stage 2 — online collection: run the fast and the slow "
              "scenario under each event\n");
  const auto records = toolset.collect(core::scenario_tet_cc(false),
                                       core::scenario_tet_cc(true),
                                       /*repeats=*/5);
  std::printf("  collected %zu (event, fast, slow) records\n\n",
              records.size());

  std::printf("stage 3 — offline analysis: differential filter\n");
  const auto significant =
      core::PmuToolset::filter_significant(records, 0.05, 1.0);
  std::printf("%s\n",
              core::PmuToolset::report(significant,
                                       "  events that separate the scenarios",
                                       "fast", "slow")
                  .c_str());

  std::printf("conclusion: the slow probes carry a transient branch "
              "misprediction — frontend resteer plus\nrecovery drain at the "
              "machine clear — i.e. the Whisper channel's root cause "
              "(§5.2.2/§5.2.3).\n");

  // Rule out the memory subsystem, as the paper does (§5.2.1).
  const auto mem_any = toolset.measure(
      uarch::PmuEvent::CYCLE_ACTIVITY_CYCLES_MEM_ANY,
      core::scenario_tet_cc(false), core::scenario_tet_cc(true));
  std::printf("\ntrue-negative check: CYCLE_ACTIVITY.CYCLES_MEM_ANY fast=%.0f "
              "slow=%.0f — memory stalls do not explain it.\n",
              mem_any.baseline, mem_any.variant);
  return 0;
}

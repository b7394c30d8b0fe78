// The traced trial runner: runs a list of (spec, trial index) tasks through
// the runner's public entry points one call at a time, with a span around
// each call —
//
//   acquire    MachinePool::acquire (construction + snapshot() on a miss)
//   reset      os::Machine::reset(seed)
//   run_trial  runner::run_trial(spec, seed, machine)
//
// inside one "trial" span per task. Seeds are derived exactly as
// runner::run_scheduled_trial derives them (trial_seed(base, i) and
// payload_seed ^ i), so every result must equal the untraced sweep's.
//
// Tasks are dealt round-robin to kPartitions fixed partitions, each with its
// own MachinePool of the runner's per-thread capacity, and each partition
// runs its tasks in order on one host thread. Pool hits and decode-cache
// counts are therefore exact for a task list, whatever the host's thread
// count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "noise/noise.h"
#include "runner/machine_pool.h"
#include "runner/runner.h"

namespace whisper::bench {

inline constexpr std::size_t kPartitions = 4;
inline constexpr std::size_t kPoolCapacity = 4;  // MachinePool::this_thread()

struct TrialTask {
  const runner::RunSpec* spec = nullptr;
  std::size_t index = 0;
};

/// The tasks of `specs` in run_many's order: spec by spec, trial by trial.
/// The tasks point into `specs`, which must outlive them.
[[nodiscard]] std::vector<TrialTask> tasks_of(
    const std::vector<runner::RunSpec>& specs);

struct TracedTrial {
  runner::ScheduledTrial trial;  // outcome as run_scheduled_trial reports it
  bool constructed = false;      // acquire() missed and built a machine
  double acquire_ms = 0.0;
  double reset_ms = 0.0;
  double run_trial_ms = 0.0;
  double trial_ms = 0.0;  // the enclosing span, lease release included
  std::uint64_t decode_hits = 0;
  std::uint64_t decode_misses = 0;
  noise::NoiseStats noise{};
};

struct TracedRun {
  std::vector<TracedTrial> trials;  // index-aligned with the task list
  runner::MachinePoolStats pool{};  // summed over partitions
  double wall_s = 0.0;
  std::vector<Span> spans;
};

/// Run `tasks` traced on up to host_threads() threads. With `warm`, each
/// partition's pool first builds one machine per distinct machine key
/// (untimed, and excluded from the pool counts), as a warmed runner
/// executor would hold them.
[[nodiscard]] TracedRun run_traced(const std::vector<TrialTask>& tasks,
                                   bool warm);

/// Per-layer metrics of a traced run (README.md "Per-layer metrics").
void add_layer_metrics(const TracedRun& run, Metrics& out);

/// Exact counts of a traced run.
[[nodiscard]] Fingerprint fingerprint(const TracedRun& run);
/// Exact counts of untraced results (no decode-cache counts).
[[nodiscard]] Fingerprint fingerprint(
    const std::vector<runner::TrialResult>& trials);

/// The "fingerprint <workload> seed=N sim_cycles=..." line every run
/// prints; two runs of one seed must print the same one.
[[nodiscard]] std::string fingerprint_note(const char* workload,
                                           std::uint64_t seed,
                                           const Fingerprint& f);

/// The one-line JSON form of a trial (the daemon's trial response with id
/// 0): the byte-identity surface every output check compares.
[[nodiscard]] std::string trial_line(std::size_t index,
                                     const runner::ScheduledTrial& t);

/// Run one task on a freshly constructed machine
/// (runner::run_trial(spec, seed)), outside any pool.
[[nodiscard]] runner::ScheduledTrial run_fresh(const TrialTask& task);

/// Every daemon-only per-layer metric, set to 0 for workloads without one.
void add_idle_serve_metrics(Metrics& out);

}  // namespace whisper::bench

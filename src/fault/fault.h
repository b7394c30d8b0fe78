// whisper::fault — deterministic fault injection for the trial runner.
//
// A FaultPlan is a seeded schedule of injection points the runner consults
// while executing trials: throw an exception before the attack phase,
// corrupt a pooled machine's physical memory outside the copy-on-write log
// (mem::PhysicalMemory::corrupt_frame_for_test), so reset() cannot restore
// it and the post-reset() digest check trips, stall the simulated clock past the trial's cycle budget, or
// sleep the host thread past its wall-clock watchdog. Every point is a pure
// function of (trial index, attempt index), never of scheduling, so a
// faulted sweep fires the same faults at the same trials whatever --jobs
// is — which is what lets tests assert that a recovered run is
// bit-identical to an unfaulted one.
//
// Plan grammar (whisper_cli --fault-plan, RunSpec::fault_plan):
//
//   plan   := point (';' point)*            (',' also accepted)
//   point  := kind '@' trial                fire at trial N, first attempt
//           | kind '@' trial '.' attempt    fire at trial N, attempt A only
//           | kind '@' trial '*'            fire at trial N, EVERY attempt
//                                           (retries cannot recover: the
//                                           trial ends degraded)
//           | kind '~' permille '@' seed    seeded random: fire on the first
//                                           attempt of trial i iff
//                                           mix(seed, i) % 1000 < permille
//   kind   := 'throw' | 'corrupt' | 'stall' | 'sleep'
//           | 'drop' | 'shortread'             (transport faults, below)
//
//   "throw@2;corrupt@5;stall@8"   — one fault of three classes
//   "throw@3*"                    — trial 3 can never succeed
//   "throw~50@1234"               — ~5% of trials throw once, seeded
//
// The same grammar doubles as the sweep client's flaky-transport plan
// (whisper_cli sweep --flaky-plan, client::FlakyConnection): there the
// coordinate is the per-endpoint request ordinal instead of the trial
// index, and the transport kinds apply — 'drop' severs the connection at
// that request, 'shortread' truncates its next response line, 'stall'
// freezes reads until the deadline. runner::validate() rejects the
// transport kinds in RunSpec::fault_plan, and the sweep client rejects
// the trial-only kinds in a flaky plan, so a plan pasted into the wrong
// knob fails loudly.
//
// FaultPlan::parse() throws std::invalid_argument with a pointed message on
// any malformed spec; runner::validate() calls it before the fan-out so a
// bad plan fails fast with zero trials spawned.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace whisper::fault {

/// The injectable fault classes, each exercising one runner recovery path.
enum class Kind : std::uint8_t {
  kThrow,    // throw std::runtime_error before the attack phase
  kCorrupt,  // flip a byte in a pooled machine's physical memory
  kStall,    // advance the simulated clock past the trial cycle budget
  kSleep,    // sleep the host thread past the wall-clock watchdog
  // Transport faults (client::FlakyConnection only; invalid in a trial
  // plan — runner::validate() refuses them):
  kDrop,       // sever the connection when writing this request
  kShortRead,  // truncate the next response line, then sever
};
[[nodiscard]] const char* to_string(Kind k) noexcept;

/// One injection point of a plan. Either a deterministic (trial, attempt)
/// coordinate or a seeded per-trial coin flip; see the grammar above.
struct Point {
  Kind kind = Kind::kThrow;
  std::uint64_t trial = 0;
  int attempt = 0;  // -1 = every attempt of `trial`
  bool random = false;
  std::uint32_t rate_permille = 0;  // random form: firing rate out of 1000
  std::uint64_t seed = 0;           // random form: coin-flip seed

  /// Does this point fire at (trial, attempt)? Pure: depends only on the
  /// point and the coordinates, never on scheduling.
  [[nodiscard]] bool matches(std::uint64_t trial_index,
                             int attempt_index) const noexcept;
};

class FaultPlan {
 public:
  FaultPlan() = default;

  /// Parse a plan spec (see the grammar above). An empty/whitespace spec
  /// yields an empty plan. Throws std::invalid_argument on malformed input.
  [[nodiscard]] static FaultPlan parse(const std::string& spec);

  [[nodiscard]] bool empty() const noexcept { return points_.empty(); }
  /// Whether any point injects `k` (runner::validate() uses this to demand
  /// a budget before scheduling a stall/sleep that nothing would bound).
  [[nodiscard]] bool uses(Kind k) const noexcept;
  /// Should fault `k` be injected into attempt `attempt` of trial `trial`?
  [[nodiscard]] bool fires(Kind k, std::uint64_t trial,
                           int attempt) const noexcept;

  [[nodiscard]] const std::vector<Point>& points() const noexcept {
    return points_;
  }
  /// The spec string this plan was parsed from (for labels and JSON).
  [[nodiscard]] const std::string& spec() const noexcept { return spec_; }

 private:
  std::vector<Point> points_;
  std::string spec_;
};

}  // namespace whisper::fault

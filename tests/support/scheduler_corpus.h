// Shared test support: the scheduler corpus (invariant 10,
// docs/ARCHITECTURE.md). A corpus case runs one attack trial or one program
// and reduces everything observable about it to one 64-bit FNV-1a digest;
// tests/golden/scheduler_corpus.golden records one "<case> <digest>" line
// per case. tests/test_scheduler_corpus.cpp owns the file (its case list
// and --update-golden); the attack and defense cases live here so the
// suites that own those grids (the preset cells in the corpus binary, the
// defense stacks in tests/test_defense.cpp) check them against the same
// recording.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/attacks/registry.h"
#include "defense/defense.h"
#include "fault/fault.h"
#include "noise/noise.h"
#include "runner/runner.h"
#include "serve/protocol.h"
#include "uarch/pmu.h"
#include "uarch/trace.h"

#ifndef WHISPER_GOLDEN_DIR
#define WHISPER_GOLDEN_DIR "tests/golden"
#endif

namespace whisper::test_support::corpus {

inline constexpr const char* kGoldenName = "scheduler_corpus.golden";

// ---------------------------------------------------------------------------
// Digest
// ---------------------------------------------------------------------------

class Fnv {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void pmu(const uarch::PmuSnapshot& s) {
    for (std::uint64_t v : s) u64(v);
  }
  void record(const uarch::TraceRecord& r) {
    // Field by field: struct padding must not reach the digest.
    u64(r.cycle);
    u64(static_cast<std::uint64_t>(r.thread));
    u64(static_cast<std::uint64_t>(r.event));
    u64(r.seq);
    u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(r.pc)));
    u64(static_cast<std::uint64_t>(r.op));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Streams trace records straight into a digest, so long program traces
/// never sit in memory.
class HashingSink final : public uarch::TraceSink {
 public:
  explicit HashingSink(Fnv& fnv) : fnv_(fnv) {}
  void record(const uarch::TraceRecord& r) override {
    fnv_.record(r);
    ++count_;
  }
  [[nodiscard]] std::uint64_t count() const { return count_; }

 private:
  Fnv& fnv_;
  std::uint64_t count_ = 0;
};

/// One corpus case: its golden-file name and how to compute its digest.
struct Case {
  std::string name;
  std::function<std::uint64_t()> digest;
};

// ---------------------------------------------------------------------------
// Attack cases: one scheduled trial, digested through its wire line
// ---------------------------------------------------------------------------

inline constexpr uarch::CpuModel kModels[] = {
    uarch::CpuModel::SkylakeI7_6700, uarch::CpuModel::KabyLakeI7_7700,
    uarch::CpuModel::CometLakeI9_10980XE, uarch::CpuModel::RaptorLakeI9_13900K,
    uarch::CpuModel::Zen3Ryzen5_5600G};
inline constexpr const char* kModelNames[] = {"skylake", "kabylake",
                                              "cometlake", "raptorlake", "zen3"};

/// The defense stacks of test_defense's DefenseIdentityTest (its
/// kNewDefenseStacks).
inline constexpr const char* kDefenseStacks[] = {
    "lfence", "window:depth=6", "retpoline", "flushclear:levels=3",
    "lfence+window:depth=6+retpoline+flushclear:levels=2"};

inline runner::RunSpec attack_spec(const std::string& attack,
                                   uarch::CpuModel model) {
  runner::RunSpec spec;
  spec.model = model;
  spec.attack = attack;
  spec.base_seed = 0x777ull;
  spec.batches = 1;  // smallest cell: the digest pins behaviour, not accuracy
  spec.rounds = 1;
  spec.payload_bytes = 2;
  spec.collect_trace = true;
  return spec;
}

inline std::uint64_t trial_digest(const runner::RunSpec& spec) {
  const runner::ScheduledTrial st =
      runner::run_scheduled_trial(spec, 0, fault::FaultPlan{});
  Fnv fnv;
  fnv.str(serve::response_trial(0, 0, st));
  fnv.pmu(st.result.pmu);
  fnv.u64(st.result.events.size());
  for (const uarch::TraceRecord& r : st.result.events.records()) fnv.record(r);
  return fnv.value();
}

inline std::vector<Case> attack_cases(std::size_t mi, bool noisy) {
  std::vector<Case> out;
  for (const core::AttackInfo& info : core::attack_registry()) {
    runner::RunSpec spec = attack_spec(info.name, kModels[mi]);
    if (noisy) spec.noise = noise::NoiseProfile::desktop();
    out.push_back({"attack/" + info.name + "/" + kModelNames[mi] +
                       (noisy ? "/desktop" : "/off"),
                   [spec] { return trial_digest(spec); }});
  }
  return out;
}

inline std::vector<Case> defense_cases(const char* stack) {
  std::vector<Case> out;
  for (const core::AttackInfo& info : core::attack_registry()) {
    runner::RunSpec spec =
        attack_spec(info.name, uarch::CpuModel::KabyLakeI7_7700);
    spec.defenses = defense::parse_list(stack);
    out.push_back({"defense/" + std::string(stack) + "/" + info.name,
                   [spec] { return trial_digest(spec); }});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Golden comparison
// ---------------------------------------------------------------------------

inline std::string golden_path() {
  return std::string(WHISPER_GOLDEN_DIR) + "/" + kGoldenName;
}

inline std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// The recorded corpus, in file order.
inline const std::vector<std::pair<std::string, std::string>>& golden() {
  static const auto lines = [] {
    std::vector<std::pair<std::string, std::string>> out;
    std::ifstream in(golden_path());
    std::string line;
    while (std::getline(in, line)) {
      const std::size_t sp = line.rfind(' ');
      if (sp != std::string::npos)
        out.emplace_back(line.substr(0, sp), line.substr(sp + 1));
    }
    return out;
  }();
  return lines;
}

/// Every case must reproduce its recorded digest.
inline void expect_recorded(const std::vector<Case>& cases) {
  std::map<std::string, std::string> want(golden().begin(), golden().end());
  ASSERT_FALSE(want.empty()) << "golden file " << golden_path()
                             << " is missing or empty";
  for (const Case& c : cases) {
    const auto it = want.find(c.name);
    if (it == want.end()) {
      ADD_FAILURE() << "case " << c.name << " is not in " << golden_path();
      continue;
    }
    EXPECT_EQ(hex(c.digest()), it->second)
        << "scheduler diverged from the recorded corpus on " << c.name;
  }
}

}  // namespace whisper::test_support::corpus

// Name-keyed attack registry: the one place that knows how to build each
// attack class. whisper_cli's dispatch, the runner's trial loop and the
// bench harnesses all construct attacks through make_attack(), so a new
// attack registered here appears everywhere at once (`whisper_cli
// attacks`, bench/defense_matrix, noise_sweep, ...).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/attacks/attack.h"

namespace whisper::core {

struct AttackInfo {
  std::string name;         // CLI spelling: "cc", "md", "zbl", ...
  std::string description;  // one line for `whisper_cli attacks`
  /// True when run(payload) moves a byte stream (all attacks but KASLR);
  /// callers use this to decide whether to generate a payload.
  bool channel = true;
  std::function<std::unique_ptr<Attack>(os::Machine&, const AttackOptions&)>
      make;
};

/// The registered attacks: the paper's Table 2 column order for the TET
/// set, then the extensions (cc, md, zbl, rsb, v1, rewind, kaslr).
[[nodiscard]] const std::vector<AttackInfo>& attack_registry();

/// Lookup by name; nullptr when unknown.
[[nodiscard]] const AttackInfo* find_attack(std::string_view name);

/// Registered names, in registry order.
[[nodiscard]] std::vector<std::string> attack_names();

/// Construct `name` on `m` with the shared options (class-specific knobs
/// keep their defaults). Throws std::invalid_argument for unknown names.
[[nodiscard]] std::unique_ptr<Attack> make_attack(
    std::string_view name, os::Machine& m, const AttackOptions& opt = {});

}  // namespace whisper::core

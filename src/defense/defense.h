// whisper::defense — the composable defense registry.
//
// A defense is a named, parameterizable countermeasure that installs hooks
// into a machine before construction: a KernelOptions rewrite (KPTI, FLARE,
// FGKASLR) or a uarch speculation knob (LFENCE insertion, transient-window
// clamping, retpoline, flush-on-clear). Defenses are named, not enumerated —
// `defense::registry()` mirrors `core::attack_registry()`, so a defense
// registered here is immediately reachable from the CLI (`--defense`), the
// serve wire (`"defenses"` run field, `list` response), the JSON trajectory
// writer and the machine-pool key, all through the single
// parse()/format()/hash_list() path below.
//
//   runner::RunSpec spec{.attack = "kaslr"};
//   spec.defenses.push_back(defense::parse("kpti"));
//   spec.defenses.push_back(defense::parse("window:depth=8"));
//
// The textual grammar is `name[:key=value]...` for one defense and
// `spec[+spec]...` for a combo ("kpti+window:depth=8"). format() is the
// canonical spelling: defaults are preserved as written, so parse(format(s))
// == s and format(parse(t)) == t for canonical t — the round-trip the wire
// and the pool key rely on (tests/test_defense.cpp pins both directions).
//
// Every defense applies at machine-construction time only (options rewrite,
// never a mutation of a live machine), so snapshot()/reset() identity and
// the recorded scheduler corpus — invariants 8 and 10 — hold with any
// defense stack active.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "os/machine.h"

namespace whisper::defense {

/// One requested defense: a registry name plus ordered key=value parameters.
/// The canonical text form is format(); equality is field-wise.
struct DefenseSpec {
  std::string name;
  /// Ordered (key, value) pairs, exactly as parsed. Order is preserved so
  /// format() reproduces the input byte-for-byte.
  std::vector<std::pair<std::string, std::string>> params;

  /// The value of `key`, or nullptr when absent.
  [[nodiscard]] const std::string* param(std::string_view key) const;

  friend bool operator==(const DefenseSpec&, const DefenseSpec&) = default;
};

/// Parse one defense spec: `name[:key=value]...` ("kpti",
/// "window:depth=8"). Grammar errors throw std::invalid_argument; the name
/// is NOT checked against the registry here (validate() does that), so the
/// wire can parse before the registry decides.
[[nodiscard]] DefenseSpec parse(std::string_view text);

/// Canonical text form, the exact inverse of parse().
[[nodiscard]] std::string format(const DefenseSpec& spec);

/// Parse a '+'-joined combo ("kpti+window:depth=8"). "" and "none" both
/// mean the empty list.
[[nodiscard]] std::vector<DefenseSpec> parse_list(std::string_view text);

/// '+'-joined canonical combo; "none" for the empty list. This string is
/// the defense fragment of the machine-pool key (runner/machine_pool.cpp)
/// and the cell key of bench/defense_matrix.
[[nodiscard]] std::string format_list(const std::vector<DefenseSpec>& specs);

/// FNV-1a of format_list(): one stable hash for caches keyed on a defense
/// stack.
[[nodiscard]] std::uint64_t hash_list(const std::vector<DefenseSpec>& specs);

/// One declared parameter of a registered defense.
struct DefenseParamInfo {
  std::string name;
  std::string default_value;
  std::string description;
};

/// One registered defense: name, docs, declared parameters, and the hook
/// that installs it into a machine's construction options.
struct DefenseInfo {
  std::string name;
  std::string description;
  std::vector<DefenseParamInfo> params;
  /// Rewrite `mo` (KernelOptions bits and/or the uarch config override) so
  /// the constructed machine runs under this defense. Unknown parameter
  /// keys or unparsable values throw std::invalid_argument.
  void (*apply)(const DefenseSpec& spec, os::MachineOptions& mo);
};

/// All registered defenses, in registration order (the `list` verb and the
/// matrix column order).
[[nodiscard]] const std::vector<DefenseInfo>& registry();

/// Lookup by name; nullptr when unknown.
[[nodiscard]] const DefenseInfo* find_defense(std::string_view name);

/// Registry names, in registration order.
[[nodiscard]] std::vector<std::string> defense_names();

/// Check a defense stack without a machine: unknown names (the message
/// lists the registered keys, mirroring runner's unknown-attack contract),
/// duplicate names, unknown parameter keys and malformed values all throw
/// std::invalid_argument.
void validate(const std::vector<DefenseSpec>& specs);

/// validate() + install every defense into `mo`, in list order. uarch
/// defenses materialize mo.config from the model preset on first touch, so
/// an empty stack leaves mo byte-identical to untouched options.
void apply(const std::vector<DefenseSpec>& specs, os::MachineOptions& mo);

}  // namespace whisper::defense

#include "serve/protocol.h"

#include <charconv>
#include <cmath>
#include <limits>
#include <system_error>
#include <type_traits>

#include "core/attacks/registry.h"
#include "defense/defense.h"
#include "noise/noise.h"
#include "stats/json.h"
#include "uarch/config.h"

namespace whisper::serve {

using stats::JsonValue;

// --- Request schema --------------------------------------------------------

namespace {

double want_number(const JsonValue& v, const char* field) {
  if (!v.is_number())
    throw ProtocolError(std::string("field '") + field + "' must be a number");
  return v.number;
}

/// The exact value of an integer field of type T. A plain integer literal
/// is parsed digit for digit; one with a fraction or an exponent must still
/// name an integer, below 2^53 where its double is exact. Values outside T
/// are refused, never wrapped or rounded.
template <typename T>
T want_integer(const JsonValue& v, const char* field, const char* kind) {
  const double d = want_number(v, field);
  auto refuse = [&](const char* why) -> T {
    throw ProtocolError(std::string("field '") + field + "' " + why);
  };
  const std::string& text = v.literal;
  if (text.find_first_of(".eE") == std::string::npos) {
    if (std::is_unsigned_v<T> && text.front() == '-')
      return d == 0 ? T{0} : refuse(kind);  // "-0" is zero
    T out{};
    const char* last = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), last, out);
    if (ec == std::errc::result_out_of_range) return refuse("is out of range");
    if (ec != std::errc() || ptr != last) return refuse(kind);
    return out;
  }
  if (d != std::floor(d) || (std::is_unsigned_v<T> && d < 0))
    return refuse(kind);
  constexpr double kExact = 9007199254740992.0;  // 2^53
  if (std::fabs(d) >= kExact ||
      d < static_cast<double>(std::numeric_limits<T>::min()) ||
      d > static_cast<double>(std::numeric_limits<T>::max()))
    return refuse("is out of range");
  return static_cast<T>(d);
}

std::uint64_t want_u64(const JsonValue& v, const char* field) {
  return want_integer<std::uint64_t>(v, field,
                                     "must be a non-negative integer");
}

int want_int(const JsonValue& v, const char* field) {
  return want_integer<int>(v, field, "must be an integer");
}

bool want_bool(const JsonValue& v, const char* field) {
  if (!v.is_bool())
    throw ProtocolError(std::string("field '") + field +
                        "' must be a boolean");
  return v.boolean;
}

std::string want_string(const JsonValue& v, const char* field) {
  if (!v.is_string())
    throw ProtocolError(std::string("field '") + field + "' must be a string");
  return v.string;
}

std::string join_verbs() {
  std::string out;
  for (const char* v : kVerbs) {
    if (!out.empty()) out += ", ";
    out += v;
  }
  return out;
}

/// Apply one run-request member onto the spec. Returns false for a member
/// the schema does not know — the caller turns that into an error rather
/// than silently running a default (a typoed "trails" must not run 1 trial).
bool apply_run_field(runner::RunSpec& spec, const std::string& key,
                     const JsonValue& v) {
  if (key == "attack") {
    spec.attack = want_string(v, "attack");
  } else if (key == "cpu") {
    // Same convention as whisper_cli --cpu: an index into all_models().
    const auto models = uarch::all_models();
    const std::uint64_t n = want_u64(v, "cpu");
    if (n >= models.size())
      throw ProtocolError("field 'cpu' out of range (0.." +
                          std::to_string(models.size() - 1) + ")");
    spec.model = models[static_cast<std::size_t>(n)];
  } else if (key == "trials") {
    spec.trials = want_int(v, "trials");
  } else if (key == "seed") {
    spec.base_seed = want_u64(v, "seed");
  } else if (key == "noise") {
    const std::string name = want_string(v, "noise");
    const auto profile = noise::NoiseProfile::by_name(name);
    if (!profile) {
      std::string known;
      for (const auto& p : noise::NoiseProfile::preset_names()) {
        if (!known.empty()) known += ", ";
        known += p;
      }
      throw ProtocolError("unknown noise preset '" + name +
                          "' (presets: " + known + ")");
    }
    const std::uint64_t keep_seed = spec.noise.seed;
    spec.noise = *profile;
    if (keep_seed != 0) spec.noise.seed = keep_seed;
  } else if (key == "noise_seed") {
    spec.noise.seed = want_u64(v, "noise_seed");
  } else if (key == "defenses") {
    // The defense stack: an array of defense::parse() strings
    // ("kpti", "window:depth=8"). Grammar errors become protocol errors
    // here; unknown names surface through runner::validate() on the server,
    // keeping the registry's message contract.
    if (!v.is_array())
      throw ProtocolError("field 'defenses' must be an array of strings");
    spec.defenses.clear();
    for (const JsonValue& d : v.array) {
      try {
        spec.defenses.push_back(defense::parse(want_string(d, "defenses")));
      } catch (const std::invalid_argument& e) {
        throw ProtocolError(e.what());
      }
    }
  } else if (key == "kpti") {
    // Back-compat aliases for the pre-defense-API wire: the bools land on
    // the kernel options, which runner::normalized_defenses() folds in
    // ahead of the "defenses" array.
    spec.kernel.kpti = want_bool(v, "kpti");
  } else if (key == "flare") {
    spec.kernel.flare = want_bool(v, "flare");
  } else if (key == "fgkaslr") {
    spec.kernel.fgkaslr = want_bool(v, "fgkaslr");
  } else if (key == "docker") {
    spec.docker = want_bool(v, "docker");
  } else if (key == "rounds") {
    spec.rounds = want_int(v, "rounds");
  } else if (key == "batches") {
    spec.batches = want_int(v, "batches");
  } else if (key == "payload_bytes") {
    spec.payload_bytes = static_cast<std::size_t>(want_u64(v, "payload_bytes"));
  } else if (key == "payload_seed") {
    spec.payload_seed = want_u64(v, "payload_seed");
  } else if (key == "adaptive") {
    spec.adaptive = want_bool(v, "adaptive");
  } else if (key == "confidence_threshold") {
    spec.confidence_threshold = want_number(v, "confidence_threshold");
  } else if (key == "batch_budget") {
    spec.batch_budget = want_int(v, "batch_budget");
  } else if (key == "reuse_machine") {
    spec.reuse_machine = want_bool(v, "reuse_machine");
  } else if (key == "retries") {
    spec.retries = want_int(v, "retries");
  } else if (key == "trial_cycle_budget") {
    spec.trial_cycle_budget = want_u64(v, "trial_cycle_budget");
  } else if (key == "trial_wall_budget") {
    spec.trial_wall_budget = want_number(v, "trial_wall_budget");
  } else if (key == "verify_reset") {
    spec.verify_reset = want_bool(v, "verify_reset");
  } else if (key == "fault_plan") {
    spec.fault_plan = want_string(v, "fault_plan");
  } else {
    return false;
  }
  return true;
}

}  // namespace

Request parse_request(const std::string& line) {
  if (line.size() > kMaxRequestBytes)
    throw ProtocolError("request line exceeds " +
                        std::to_string(kMaxRequestBytes) + " bytes (got " +
                        std::to_string(line.size()) + ")");
  JsonValue doc;
  try {
    doc = stats::json_parse(line);
  } catch (const stats::JsonError& e) {
    throw ProtocolError(e.what());
  }
  if (!doc.is_object()) throw ProtocolError("request must be a JSON object");

  Request req;
  const JsonValue* id = doc.get("id");
  if (!id) throw ProtocolError("request missing numeric 'id'");
  req.id = want_u64(*id, "id");
  if (req.id == 0)
    throw ProtocolError("field 'id' must be positive (0 is reserved for "
                        "unparseable requests)");

  const JsonValue* verb = doc.get("verb");
  if (!verb) throw ProtocolError("request missing 'verb'");
  req.verb = want_string(*verb, "verb");
  bool known = false;
  for (const char* v : kVerbs)
    if (req.verb == v) known = true;
  if (!known)
    throw ProtocolError("unknown verb '" + req.verb +
                        "' (verbs: " + join_verbs() + ")");

  if (req.verb == "run") {
    for (const auto& [key, v] : doc.object) {
      if (key == "id" || key == "verb") continue;
      if (key == "trial_first") {
        // Shard window start (see Request::trial_first) — a request
        // member, not a RunSpec knob, so it is handled here rather than
        // in apply_run_field().
        req.trial_first = want_u64(v, "trial_first");
        continue;
      }
      if (!apply_run_field(req.spec, key, v))
        throw ProtocolError("unknown field '" + key + "' in run request");
    }
  } else {
    for (const auto& [key, v] : doc.object) {
      (void)v;
      if (key != "id" && key != "verb")
        throw ProtocolError("field '" + key + "' not allowed with verb '" +
                            req.verb + "'");
    }
  }
  return req;
}

// --- Response writers ------------------------------------------------------

namespace {

void head(stats::JsonWriter& w, std::uint64_t id, const char* type) {
  w.begin_object();
  w.key("id");
  w.value(id);
  w.key("type");
  w.value(type);
}

}  // namespace

std::string response_trial(std::uint64_t id, std::size_t index,
                           const runner::ScheduledTrial& t) {
  stats::JsonWriter w;
  head(w, id, "trial");
  w.key("index");
  w.value(static_cast<std::uint64_t>(index));
  // Fault-layer account first, then the result slot — the same key order
  // as runner trajectory files ("trials_detail"), minus anything
  // non-deterministic across worker counts (there is nothing: invariant 8
  // keeps pool identity out of results, and no wall-clock is emitted).
  w.key("ok");
  w.value(t.outcome.ok);
  w.key("attempts");
  w.value(t.outcome.attempts);
  w.key("quarantined");
  w.value(t.outcome.quarantined);
  w.key("errors");
  w.begin_array();
  for (const runner::TrialError& e : t.outcome.errors) {
    w.begin_object();
    w.key("kind");
    w.value(std::string(runner::to_string(e.kind)));
    w.key("attempt");
    w.value(e.attempt);
    w.key("what");
    w.value(e.what);
    w.end_object();
  }
  w.end_array();
  w.key("seed");
  w.value(t.result.seed);
  w.key("success");
  w.value(t.result.success);
  w.key("cycles");
  w.value(t.result.cycles);
  w.key("seconds");
  w.value(t.result.seconds);
  w.key("probes");
  w.value(static_cast<std::uint64_t>(t.result.probes));
  w.key("bytes");
  w.value(static_cast<std::uint64_t>(t.result.bytes));
  w.key("byte_errors");
  w.value(static_cast<std::uint64_t>(t.result.byte_errors));
  w.key("found_slot");
  w.value(t.result.found_slot);
  w.key("confidence");
  w.value(t.result.confidence);
  w.key("gave_up");
  w.value(static_cast<std::uint64_t>(t.result.gave_up));
  w.key("tote_total");
  w.value(t.result.tote.total());
  w.end_object();
  return w.str();
}

std::string response_done(std::uint64_t id, const runner::RunResult& merged) {
  stats::JsonWriter w;
  head(w, id, "done");
  w.key("attack");
  w.value(merged.spec.attack);
  w.key("trials");
  w.value(static_cast<std::uint64_t>(merged.trials.size()));
  w.key("successes");
  w.value(static_cast<std::uint64_t>(merged.successes));
  w.key("completed");
  w.value(static_cast<std::uint64_t>(merged.completed));
  w.key("failed");
  w.value(static_cast<std::uint64_t>(merged.failed));
  w.key("retried");
  w.value(static_cast<std::uint64_t>(merged.retried));
  w.key("quarantined");
  w.value(static_cast<std::uint64_t>(merged.quarantined));
  w.key("total_attempts");
  w.value(static_cast<std::uint64_t>(merged.total_attempts));
  w.key("total_probes");
  w.value(static_cast<std::uint64_t>(merged.total_probes));
  w.key("total_bytes");
  w.value(static_cast<std::uint64_t>(merged.total_bytes));
  w.key("total_byte_errors");
  w.value(static_cast<std::uint64_t>(merged.total_byte_errors));
  w.key("errors");
  w.begin_object();
  for (std::size_t k = 0; k < runner::kNumTrialErrorKinds; ++k) {
    w.key(runner::to_string(static_cast<runner::TrialErrorKind>(k)));
    w.value(static_cast<std::uint64_t>(merged.error_counts[k]));
  }
  w.end_object();
  w.end_object();
  return w.str();
}

std::string response_error(std::uint64_t id, const std::string& message) {
  stats::JsonWriter w;
  head(w, id, "error");
  w.key("error");
  w.value(message);
  w.end_object();
  return w.str();
}

std::string response_pong(std::uint64_t id) {
  stats::JsonWriter w;
  head(w, id, "pong");
  w.end_object();
  return w.str();
}

std::string response_attacks(std::uint64_t id) {
  stats::JsonWriter w;
  head(w, id, "attacks");
  w.key("attacks");
  w.begin_array();
  for (const std::string& name : core::attack_names()) w.value(name);
  w.end_array();
  // The defense grid axis, appended after the attacks so pre-defense
  // clients keep parsing: name, docs, and declared parameters with their
  // defaults — everything needed to spell a "defenses" run field without
  // recompiling. Key order is fixed (invariant 11).
  w.key("defenses");
  w.begin_array();
  for (const defense::DefenseInfo& d : defense::registry()) {
    w.begin_object();
    w.key("name");
    w.value(d.name);
    w.key("description");
    w.value(d.description);
    w.key("params");
    w.begin_array();
    for (const defense::DefenseParamInfo& p : d.params) {
      w.begin_object();
      w.key("name");
      w.value(p.name);
      w.key("default");
      w.value(p.default_value);
      w.key("description");
      w.value(p.description);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::string response_metrics(std::uint64_t id,
                             const std::string& metrics_json) {
  stats::JsonWriter w;
  head(w, id, "metrics");
  w.end_object();
  // Splice the registry document in as the last member; the registry's
  // to_json() is already a complete, deterministic object.
  std::string out = w.str();
  out.pop_back();  // trailing '}'
  out += ",\"metrics\":";
  out += metrics_json;
  out += "}";
  return out;
}

std::string response_bye(std::uint64_t id) {
  stats::JsonWriter w;
  head(w, id, "bye");
  w.end_object();
  return w.str();
}

}  // namespace whisper::serve

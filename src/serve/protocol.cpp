#include "serve/protocol.h"

#include "core/attacks/registry.h"
#include "defense/defense.h"
#include "noise/noise.h"
#include "stats/json.h"
#include "uarch/config.h"

namespace whisper::serve {

using stats::JsonValue;

// --- Request schema --------------------------------------------------------

namespace {

using stats::json_bool;
using stats::json_number;
using stats::json_string;

std::uint64_t json_u64(const JsonValue& v, const char* field) {
  return stats::json_integer<std::uint64_t>(v, field);
}

int json_int(const JsonValue& v, const char* field) {
  return stats::json_integer<int>(v, field);
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
    spec.attack = json_string(v, "attack");
  } else if (key == "cpu") {
    // Same convention as whisper_cli --cpu: an index into all_models().
    const auto models = uarch::all_models();
    const std::uint64_t n = json_u64(v, "cpu");
    if (n >= models.size())
      throw ProtocolError("field 'cpu' out of range (0.." +
                          std::to_string(models.size() - 1) + ")");
    spec.model = models[static_cast<std::size_t>(n)];
  } else if (key == "trials") {
    spec.trials = json_int(v, "trials");
  } else if (key == "seed") {
    spec.base_seed = json_u64(v, "seed");
  } else if (key == "noise") {
    const std::string name = json_string(v, "noise");
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
    spec.noise.seed = json_u64(v, "noise_seed");
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
        spec.defenses.push_back(defense::parse(json_string(d, "defenses")));
      } catch (const std::invalid_argument& e) {
        throw ProtocolError(e.what());
      }
    }
  } else if (key == "docker") {
    spec.docker = json_bool(v, "docker");
  } else if (key == "rounds") {
    spec.rounds = json_int(v, "rounds");
  } else if (key == "batches") {
    spec.batches = json_int(v, "batches");
  } else if (key == "payload_bytes") {
    spec.payload_bytes = static_cast<std::size_t>(json_u64(v, "payload_bytes"));
  } else if (key == "payload_seed") {
    spec.payload_seed = json_u64(v, "payload_seed");
  } else if (key == "adaptive") {
    spec.adaptive = json_bool(v, "adaptive");
  } else if (key == "confidence_threshold") {
    spec.confidence_threshold = json_number(v, "confidence_threshold");
  } else if (key == "batch_budget") {
    spec.batch_budget = json_int(v, "batch_budget");
  } else if (key == "retries") {
    spec.retries = json_int(v, "retries");
  } else if (key == "trial_cycle_budget") {
    spec.trial_cycle_budget = json_u64(v, "trial_cycle_budget");
  } else if (key == "trial_wall_budget") {
    spec.trial_wall_budget = json_number(v, "trial_wall_budget");
  } else if (key == "verify_reset") {
    spec.verify_reset = json_bool(v, "verify_reset");
  } else if (key == "fault_plan") {
    spec.fault_plan = json_string(v, "fault_plan");
  } else {
    return false;
  }
  return true;
}

/// The request schema over a parsed document. The typed readers throw
/// stats::JsonError; parse_request() turns those into ProtocolErrors.
Request parse_request_doc(const JsonValue& doc) {
  if (!doc.is_object()) throw ProtocolError("request must be a JSON object");

  Request req;
  const JsonValue* id = doc.get("id");
  if (!id) throw ProtocolError("request missing numeric 'id'");
  req.id = json_u64(*id, "id");
  if (req.id == 0)
    throw ProtocolError("field 'id' must be positive (0 is reserved for "
                        "unparseable requests)");

  const JsonValue* verb = doc.get("verb");
  if (!verb) throw ProtocolError("request missing 'verb'");
  req.verb = json_string(*verb, "verb");
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
        req.trial_first = json_u64(v, "trial_first");
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

}  // namespace

Request parse_request(const std::string& line) {
  if (line.size() > kMaxRequestBytes)
    throw ProtocolError("request line exceeds " +
                        std::to_string(kMaxRequestBytes) + " bytes (got " +
                        std::to_string(line.size()) + ")");
  try {
    return parse_request_doc(stats::json_parse(line));
  } catch (const stats::JsonError& e) {
    throw ProtocolError(e.what());
  }
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

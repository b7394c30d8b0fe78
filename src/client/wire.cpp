#include "client/wire.h"

#include <cctype>
#include <cstdio>
#include <stdexcept>

#include "defense/defense.h"
#include "noise/noise.h"
#include "serve/protocol.h"
#include "stats/json.h"
#include "uarch/config.h"

namespace whisper::client {

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void append_double(std::string& out, double v) {
  // %.17g round-trips every finite double through strtod — unlike the
  // %.9g the response writers use. Requests are inputs, not the identity
  // surface: the server must reconstruct the client's spec EXACTLY or the
  // shard would run subtly different physics.
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

const char* bool_str(bool b) { return b ? "true" : "false"; }

std::size_t cpu_index(uarch::CpuModel model) {
  const auto models = uarch::all_models();
  for (std::size_t i = 0; i < models.size(); ++i)
    if (models[i] == model) return i;
  throw std::invalid_argument(
      "client: spec.model is not in uarch::all_models()");
}

}  // namespace

std::string run_request_json(std::uint64_t id, const runner::RunSpec& spec,
                             std::uint64_t trial_first, int trials) {
  if (spec.collect_trace)
    throw std::invalid_argument(
        "client: collect_trace cannot cross the wire (the protocol carries "
        "no event logs); run traced specs locally");
  if (!noise::NoiseProfile::by_name(spec.noise.name))
    throw std::invalid_argument(
        "client: noise profile '" + spec.noise.name +
        "' is not a named preset; the wire carries preset name + seed only");

  // Every representable field is spelled explicitly — a request must not
  // depend on the server's defaults matching the client's.
  std::string out = "{\"id\":" + std::to_string(id) + ",\"verb\":\"run\"";
  out += ",\"attack\":";
  append_escaped(out, spec.attack);
  out += ",\"cpu\":" + std::to_string(cpu_index(spec.model));
  out += ",\"trials\":" + std::to_string(trials);
  out += ",\"trial_first\":" + std::to_string(trial_first);
  out += ",\"seed\":" + std::to_string(spec.base_seed);
  out += ",\"noise\":";
  append_escaped(out, spec.noise.name);
  out += ",\"noise_seed\":" + std::to_string(spec.noise.seed);
  out += ",\"defenses\":[";
  for (std::size_t i = 0; i < spec.defenses.size(); ++i) {
    if (i) out.push_back(',');
    append_escaped(out, defense::format(spec.defenses[i]));
  }
  out += "]";
  out += ",\"docker\":" + std::string(bool_str(spec.docker));
  out += ",\"rounds\":" + std::to_string(spec.rounds);
  out += ",\"batches\":" + std::to_string(spec.batches);
  out += ",\"payload_bytes\":" + std::to_string(spec.payload_bytes);
  out += ",\"payload_seed\":" + std::to_string(spec.payload_seed);
  out += ",\"adaptive\":" + std::string(bool_str(spec.adaptive));
  out += ",\"confidence_threshold\":";
  append_double(out, spec.confidence_threshold);
  out += ",\"batch_budget\":" + std::to_string(spec.batch_budget);
  out += ",\"retries\":" + std::to_string(spec.retries);
  out += ",\"trial_cycle_budget\":" + std::to_string(spec.trial_cycle_budget);
  out += ",\"trial_wall_budget\":";
  append_double(out, spec.trial_wall_budget);
  out += ",\"verify_reset\":" + std::string(bool_str(spec.verify_reset));
  out += ",\"fault_plan\":";
  append_escaped(out, spec.fault_plan);
  out += "}";
  return out;
}

std::string normalize_id(const std::string& line) {
  constexpr const char* kPrefix = "{\"id\":";
  constexpr std::size_t kPrefixLen = 6;
  if (line.compare(0, kPrefixLen, kPrefix) != 0) return line;
  std::size_t p = kPrefixLen;
  while (p < line.size() &&
         std::isdigit(static_cast<unsigned char>(line[p])))
    ++p;
  if (p == kPrefixLen || p >= line.size() || line[p] != ',') return line;
  return std::string(kPrefix) + "0" + line.substr(p);
}

std::vector<std::string> canonical_trial_lines(const runner::RunResult& r) {
  std::vector<std::string> lines;
  lines.reserve(r.trials.size());
  for (std::size_t i = 0; i < r.trials.size(); ++i) {
    runner::ScheduledTrial t;
    t.result = r.trials[i];
    t.outcome = r.outcomes[i];
    lines.push_back(serve::response_trial(0, i, t));
  }
  return lines;
}

std::string canonical_done_line(const runner::RunResult& r) {
  return serve::response_done(0, r);
}

namespace {

runner::TrialErrorKind error_kind(const std::string& name) {
  for (std::size_t k = 0; k < runner::kNumTrialErrorKinds; ++k) {
    const auto kind = static_cast<runner::TrialErrorKind>(k);
    if (name == runner::to_string(kind)) return kind;
  }
  throw stats::JsonError("field 'kind' names no trial error kind ('" + name +
                         "')");
}

}  // namespace

runner::ScheduledTrial decode_trial_line(const stats::JsonValue& doc) {
  using stats::json_bool;
  using stats::json_integer;
  runner::ScheduledTrial t;
  runner::TrialOutcome& oc = t.outcome;
  oc.ok = json_bool(doc.at("ok"), "ok");
  oc.attempts = json_integer<int>(doc.at("attempts"), "attempts");
  oc.quarantined = json_bool(doc.at("quarantined"), "quarantined");
  const stats::JsonValue& errors = doc.at("errors");
  if (!errors.is_array())
    throw stats::JsonError("field 'errors' must be an array");
  for (const stats::JsonValue& e : errors.array) {
    runner::TrialError err;
    err.kind = error_kind(stats::json_string(e.at("kind"), "kind"));
    oc.errors.push_back(std::move(err));
  }
  runner::TrialResult& r = t.result;
  r.success = json_bool(doc.at("success"), "success");
  const auto count = [&doc](const char* field) {
    return static_cast<std::size_t>(
        json_integer<std::uint64_t>(doc.at(field), field));
  };
  r.probes = count("probes");
  r.bytes = count("bytes");
  r.byte_errors = count("byte_errors");
  r.gave_up = count("gave_up");
  return t;
}

std::string fold_done_line(const runner::RunSpec& spec,
                           const std::vector<std::string>& trial_lines) {
  // The same runner::tally_trial() the local merge and the daemon call,
  // so the done line comes out byte-identical whether the trials were
  // executed here, by one daemon, or by four.
  runner::RunResult merged;
  merged.spec = spec;
  merged.trials.resize(trial_lines.size());
  for (const std::string& line : trial_lines) {
    try {
      const runner::ScheduledTrial t =
          decode_trial_line(stats::json_parse(line));
      runner::tally_trial(merged, t.outcome, t.result);
    } catch (const stats::JsonError& e) {
      throw std::runtime_error(std::string("client: bad trial line: ") +
                               e.what());
    }
  }
  return serve::response_done(0, merged);
}

}  // namespace whisper::client

// Client-side wire helpers: spell a RunSpec shard as a run-request line,
// and normalize response lines into the canonical form invariant 13 is
// stated over.
//
// The canonical form of a distributed sweep is the response stream a
// single-process runner::run would produce, with every "id" rewritten to
// 0 (request ids are routing, not results): one response_trial(0, i, ...)
// line per trial in index order, then one response_done(0, merged) line.
// canonical_trial_lines()/canonical_done_line() build that reference from
// a local RunResult; normalize_id()/fold_done_line() build the same bytes
// from the lines a SweepClient gathered off N endpoints. Equality of the
// two is the invariant.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runner/runner.h"
#include "stats/json.h"

namespace whisper::client {

/// Serialize the shard [trial_first, trial_first + trials) of `spec` as a
/// whisper_serve run-request line. Lossless for everything the wire can
/// carry; throws std::invalid_argument for specs it cannot represent
/// (collect_trace, a noise profile that is not a named preset) — those
/// must fail loudly, not silently run different physics on the server.
[[nodiscard]] std::string run_request_json(std::uint64_t id,
                                           const runner::RunSpec& spec,
                                           std::uint64_t trial_first,
                                           int trials);

/// Rewrite a response line's leading "id" member to 0. Response writers
/// put "id" first with fixed formatting, so this is a textual prefix
/// rewrite, not a reparse; a line that does not look like a response is
/// returned unchanged.
[[nodiscard]] std::string normalize_id(const std::string& line);

/// The reference side of invariant 13: the canonical per-trial lines and
/// done line of a locally-executed RunResult.
[[nodiscard]] std::vector<std::string> canonical_trial_lines(
    const runner::RunResult& r);
[[nodiscard]] std::string canonical_done_line(const runner::RunResult& r);

/// Decode the members of a trial response line that the done-line fold
/// reads (ok, attempts, quarantined, error kinds, success, probes, bytes,
/// byte_errors, gave_up). Throws stats::JsonError on a missing or
/// malformed member; the sweep client treats such a line as torn.
[[nodiscard]] runner::ScheduledTrial decode_trial_line(
    const stats::JsonValue& doc);

/// The distributed side: fold canonical per-trial lines (index order,
/// all non-empty) into the canonical done line through runner::
/// tally_trial(), the runner's own merge accounting. Throws
/// std::runtime_error on a line that does not decode as a trial response.
[[nodiscard]] std::string fold_done_line(
    const runner::RunSpec& spec, const std::vector<std::string>& trial_lines);

}  // namespace whisper::client

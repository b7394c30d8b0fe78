// serve_open — the daemon under open-loop, fixed-rate traffic.
//
// An in-process serve::Server on a LoopbackTransport with one worker per
// host thread but one, so the load generator keeps a core. Requests are sent
// on a fixed schedule regardless of replies (independent users, so an open
// loop). Their mix is serve_soak's (bench/serve_soak.cpp): mostly short
// one-trial channel requests with every seventh a v1 and every thirteenth a
// kaslr request, and every fifth two trials. Short cc/md requests go out on
// one connection and v1/kaslr requests on the other, so FairScheduler
// rotation and MachinePool leases are both exercised. Loopback keeps
// transport cost far below the time a request spends in trials; no faults
// are injected.
//
// The run alternates two offered rates, each a fixed share of the daemon's
// measured capacity per worker times the worker count, so the load regime is
// the same on any host size. Every request is timed from the moment it was
// due to be sent, so a stalled generator or daemon shows as latency, and the
// generator's own lateness is reported; a run in which the generator fell
// behind is marked invalid. The traced run adds a ladder of higher rates for
// max_rps and replays the distinct request specs through the traced trial
// runner for the per-layer split.
#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "client/wire.h"
#include "runner/executor.h"
#include "serve/server.h"
#include "serve/transport_loopback.h"
#include "traced_trials.h"

namespace whisper::bench {

namespace {

constexpr int kSetupRepeats = 5;
/// Latency limit on a request (and so on p99); a request over it counts as
/// failed.
constexpr double kLatencyLimitMs = 1000.0;
/// A run whose generator sent its p99 request later than this is invalid.
constexpr double kGenLateLimitMs = 20.0;
constexpr int kConnections = 2;
constexpr std::uint64_t kWarmSeed = 0x3a53;

/// Requests the daemon completes per second per worker before p99 passes
/// the latency limit or a backlog grows: serve.max_rps over the worker count
/// as the traced run's ladder measured it (perfbench/README.md).
constexpr double kCapacityPerWorker = 75.0;
/// The two fixed offered rates as shares of that capacity.
constexpr double kLowShare = 0.2;
constexpr double kHighShare = 0.5;
/// Traced-run ladder, as shares of capacity, for max_rps.
constexpr double kLadder[] = {0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2};
constexpr double kLadderStepS = 2.0;

int workers() { return std::max(1, host_threads() - 1); }
double offered_rate(double share) {
  return share * kCapacityPerWorker * workers();
}

/// Distinct request specs: one whole period of the mix (13 × 7 × 5), each
/// with its own seeds; request r carries spec r % kSpecs. The output check
/// needs one local reference run per spec.
constexpr std::size_t kSpecs = 455;

/// Request r of serve_soak's mix, with every other short request md
/// instead of cc.
runner::RunSpec request_shape(std::size_t r) {
  runner::RunSpec spec;
  if (r % 13 == 0)
    spec.attack = "kaslr";
  else if (r % 7 == 0)
    spec.attack = "v1";
  else
    spec.attack = r % 2 == 0 ? "cc" : "md";
  spec.trials = (r % 5 == 0 && r % 13 != 0) ? 2 : 1;
  spec.payload_bytes = 2;
  spec.batches = 2;
  spec.rounds = 1;
  return spec;
}

/// Connection 0 carries the cc/md requests, connection 1 v1/kaslr.
int connection_of(std::size_t r) { return r % 13 == 0 || r % 7 == 0 ? 1 : 0; }

std::vector<runner::RunSpec> request_specs(std::uint64_t seed) {
  std::vector<runner::RunSpec> specs;
  for (std::size_t r = 0; r < kSpecs; ++r) {
    runner::RunSpec spec = request_shape(r);
    // The wire carries numbers as JSON doubles, so seeds stay below 2^53
    // to cross it exactly.
    spec.base_seed = mix(seed, r) >> 11;
    spec.payload_seed = mix(seed, 0x5e7e + r) >> 11;
    specs.push_back(spec);
  }
  return specs;
}

struct Request {
  std::uint64_t id = 0;
  int conn = 0;
  std::size_t spec = 0;
  Clock::time_point due, sent, first, done;
  double encode_us = 0.0;
  bool finished = false;
  bool error = false;
  std::vector<std::string> lines;
};

/// A phase: one offered rate for a duration.
struct Phase {
  std::string name;
  double rate = 0.0;  // requests/s, both connections together
  double seconds = 0.0;
};

/// The daemon plus the two client connections.
struct Daemon {
  serve::LoopbackTransport transport;
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<serve::LoopbackClient> clients[kConnections];
  runner::MachinePoolStats pool_baseline{};
  std::uint64_t errors_baseline = 0;

  ~Daemon() {
    if (server) server->stop();
    for (auto& c : clients)
      if (c) c->close();
  }
};

std::uint64_t error_count(const serve::Server& server) {
  const obs::MetricsRegistry reg = server.metrics();
  return reg.has_counter("serve.errors") ? reg.counter("serve.errors") : 0;
}

/// "{"id":N,"type":"T",..." — the response writers' fixed prefix.
bool parse_head(const std::string& line, std::uint64_t& id, std::string& type) {
  const std::string id_key = "{\"id\":";
  if (line.compare(0, id_key.size(), id_key) != 0) return false;
  char* end = nullptr;
  id = std::strtoull(line.c_str() + id_key.size(), &end, 10);
  const std::string type_key = ",\"type\":\"";
  if (line.compare(static_cast<std::size_t>(end - line.c_str()),
                   type_key.size(), type_key) != 0)
    return false;
  const std::size_t from =
      static_cast<std::size_t>(end - line.c_str()) + type_key.size();
  type = line.substr(from, line.find('"', from) - from);
  return true;
}

/// Build the daemon and warm its machine pool with one request per attack.
std::unique_ptr<Daemon> set_up(const std::vector<runner::RunSpec>& specs) {
  auto d = std::make_unique<Daemon>();
  d->server = std::make_unique<serve::Server>(
      d->transport,
      serve::ServerOptions{.jobs = workers(), .pool_capacity = 4});
  d->server->start();
  for (auto& c : d->clients) c = d->transport.connect();
  // Set-up does the same work whatever the seed: the warm-up requests
  // use the shapes of the seed's specs with a fixed seed. Requests 0, 7, 1
  // and 2 are kaslr, v1, md and cc, two on each connection.
  std::uint64_t id = 1;
  for (const std::size_t r : {0, 7, 1, 2}) {
    runner::RunSpec spec = specs[r];
    spec.base_seed = kWarmSeed;
    spec.payload_seed = kWarmSeed;
    d->clients[connection_of(r)]->send(
        client::run_request_json(id++, spec, 0, 1));
  }
  for (auto& client : d->clients)
    for (int done = 0; done < 2;) {
      std::string line, type;
      std::uint64_t rid = 0;
      if (!client->recv(line) || !parse_head(line, rid, type))
        throw std::runtime_error("serve_open: warm-up request got no reply");
      if (type == "error")
        throw std::runtime_error("serve_open: warm-up request failed: " + line);
      if (type == "done") ++done;
    }
  d->pool_baseline = d->server->pool_stats();
  d->errors_baseline = error_count(*d->server);
  return d;
}

/// Requests of one phase on its fixed schedule; `next` numbers requests
/// across phases, so the mix runs on from one phase to the next.
void schedule(const Phase& phase, std::vector<Request>& out,
              std::size_t& next) {
  const auto n = static_cast<std::size_t>(phase.seconds * phase.rate);
  for (std::size_t i = 0; i < n; ++i, ++next) {
    Request r;
    r.spec = next % kSpecs;
    r.conn = connection_of(r.spec);
    r.due = Clock::time_point{} +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(i / phase.rate));
    out.push_back(r);
  }
}

struct PhaseStats {
  std::vector<double> latency_ms;  // completed requests, from due time
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // errored, refused, lost or over the limit
  bool backlog = false;
};

struct Traffic {
  std::vector<Request> requests;
  /// One entry per distinct phase name, in first-seen order: blocks that
  /// share a name are folded together.
  std::vector<Phase> rates;
  std::vector<PhaseStats> phases;
  std::vector<double> late_ms;
  std::vector<double> first_line_ms;
  std::vector<double> encode_us;
  std::size_t queue_depth_max = 0;
};

/// Drive `phases` back to back against `d`; each phase drains before the
/// next starts, so a phase's backlog never leaks into the next. Phases with
/// the same name are reported as one.
Traffic drive(Daemon& d, const std::vector<runner::RunSpec>& specs,
              const std::vector<Phase>& phases, std::uint64_t first_id) {
  Traffic tr;
  std::size_t next = 0;
  std::vector<std::size_t> phase_begin;
  for (std::size_t p = 0; p < phases.size(); ++p) {
    phase_begin.push_back(tr.requests.size());
    schedule(phases[p], tr.requests, next);
  }
  phase_begin.push_back(tr.requests.size());
  for (std::size_t i = 0; i < tr.requests.size(); ++i)
    tr.requests[i].id = first_id + i;

  std::mutex mu;
  std::condition_variable cv;
  std::size_t finished = 0;
  std::vector<std::thread> receivers;
  // Stopping the daemon ends every connection, which ends the receivers;
  // this runs on every exit path so no receiver outlives the traffic.
  struct Joiner {
    Daemon& d;
    std::vector<std::thread>& threads;
    ~Joiner() {
      d.server->stop();
      for (auto& c : d.clients) c->close();
      for (std::thread& t : threads) t.join();
    }
  };
  {
    const Joiner joiner{d, receivers};
    for (int c = 0; c < kConnections; ++c)
      receivers.emplace_back([&, c] {
        std::string line, type;
        std::uint64_t id = 0;
        while (d.clients[c]->recv(line)) {
          const Clock::time_point now = Clock::now();
          if (!parse_head(line, id, type) || id < first_id ||
              id - first_id >= tr.requests.size())
            continue;  // not ours: counted as lost below
          Request& r = tr.requests[id - first_id];
          if (r.lines.empty()) r.first = now;
          r.lines.push_back(line);
          if (type == "done" || type == "error") {
            r.done = now;
            r.error = type == "error";
            {
              std::lock_guard<std::mutex> lock(mu);
              r.finished = true;
              ++finished;
            }
            cv.notify_all();
          }
        }
      });

    for (std::size_t p = 0; p < phases.size(); ++p) {
      const Clock::time_point start = Clock::now();
      for (std::size_t i = phase_begin[p]; i < phase_begin[p + 1]; ++i) {
        Request& r = tr.requests[i];
        r.due = start + (r.due - Clock::time_point{});
        std::this_thread::sleep_until(r.due);
        const Clock::time_point e0 = Clock::now();
        const runner::RunSpec& spec = specs[r.spec];
        const std::string line =
            client::run_request_json(r.id, spec, 0, spec.trials);
        r.sent = Clock::now();
        r.encode_us = std::chrono::duration<double, std::micro>(r.sent - e0)
                          .count();
        d.clients[r.conn]->send(line);
        tr.queue_depth_max =
            std::max(tr.queue_depth_max, d.server->queue_stats().depth);
      }
      std::unique_lock<std::mutex> lock(mu);
      cv.wait_for(lock, std::chrono::duration<double>(kLatencyLimitMs * 4e-3),
                  [&] { return finished == phase_begin[p + 1]; });
    }
  }  // every reply is in once the joiner has run

  for (std::size_t p = 0; p < phases.size(); ++p) {
    PhaseStats ps;
    std::vector<double> head_lat, tail_lat;
    const std::size_t n = phase_begin[p + 1] - phase_begin[p];
    for (std::size_t i = phase_begin[p]; i < phase_begin[p + 1]; ++i) {
      const Request& r = tr.requests[i];
      ++ps.attempted;
      tr.late_ms.push_back(ms_between(r.due, r.sent));
      tr.encode_us.push_back(r.encode_us);
      if (!r.finished || r.error) {
        ++ps.failed;
        continue;
      }
      const double lat = ms_between(r.due, r.done);
      ps.latency_ms.push_back(lat);
      tr.first_line_ms.push_back(ms_between(r.sent, r.first));
      if (lat > kLatencyLimitMs) ++ps.failed;
      const std::size_t k = i - phase_begin[p];
      if (k < n / 5) head_lat.push_back(lat);
      if (k >= n - n / 5) tail_lat.push_back(lat);
    }
    // A growing backlog shows as latency rising through the phase.
    ps.backlog = median(tail_lat) > 2.0 * median(head_lat) + 5.0;

    std::size_t f = 0;
    while (f < tr.rates.size() && tr.rates[f].name != phases[p].name) ++f;
    if (f == tr.rates.size()) {
      tr.rates.push_back(phases[p]);
      tr.phases.push_back(std::move(ps));
      continue;
    }
    PhaseStats& into = tr.phases[f];
    tr.rates[f].seconds += phases[p].seconds;
    into.latency_ms.insert(into.latency_ms.end(), ps.latency_ms.begin(),
                           ps.latency_ms.end());
    into.attempted += ps.attempted;
    into.failed += ps.failed;
    into.backlog = into.backlog || ps.backlog;
  }
  return tr;
}

/// Output check: every response stream, ids normalized, must equal the
/// canonical lines of a local runner::run of the same spec.
void check_streams(const Traffic& tr,
                   const std::vector<runner::RunResult>& reference,
                   Outcome& out) {
  std::size_t mismatched = 0;
  for (const Request& r : tr.requests) {
    if (!r.finished || r.error) continue;  // counted as failed instead
    std::vector<std::string> want =
        client::canonical_trial_lines(reference[r.spec]);
    want.push_back(client::canonical_done_line(reference[r.spec]));
    bool same = want.size() == r.lines.size();
    for (std::size_t i = 0; same && i < want.size(); ++i)
      same = client::normalize_id(r.lines[i]) == want[i];
    if (!same) ++mismatched;
  }
  if (mismatched > 0)
    out.fail(std::to_string(mismatched) +
             " response streams differ from a local runner::run");
}

void check_generator(const Traffic& tr, Outcome& out) {
  const double late = percentile(tr.late_ms, 0.99);
  if (late > kGenLateLimitMs)
    out.fail("load generator fell behind: p99 send lateness " +
             std::to_string(late) + " ms > " +
             std::to_string(kGenLateLimitMs) + " ms; the run is invalid");
}

std::vector<runner::RunResult> local_reference(
    const std::vector<runner::RunSpec>& specs, double* wall_s = nullptr) {
  runner::Executor ex(host_threads());
  const Clock::time_point t0 = Clock::now();
  std::vector<runner::RunResult> rs = runner::run_many(specs, ex);
  if (wall_s) *wall_s = seconds_since(t0);
  return rs;
}

void count_phases(const Traffic& tr, Outcome& out) {
  for (const PhaseStats& ps : tr.phases) {
    out.attempted += ps.attempted;
    out.failed += ps.failed;
  }
}

std::string phase_note(const Phase& ph, const PhaseStats& ps) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "serve_open %-5s %6.1f req/s offered: n=%zu p50=%.2f ms "
                "p99=%.2f ms failed=%llu%s",
                ph.name.c_str(), ph.rate, ps.latency_ms.size(),
                median(ps.latency_ms), percentile(ps.latency_ms, 0.99),
                static_cast<unsigned long long>(ps.failed),
                ps.backlog ? " backlog" : "");
  return buf;
}

/// <name>.<rate>: the p-th percentile of each rate's request latency,
/// from the due time.
void add_latency_metrics(const Traffic& tr, const std::string& name, double p,
                         Metrics& m) {
  for (std::size_t i = 0; i < tr.rates.size(); ++i)
    m.set(name + "." + tr.rates[i].name,
          percentile(tr.phases[i].latency_ms, p), "ms");
}

/// The two fixed rates in alternating blocks of about two seconds each, so
/// both rates see the same spells of host slowness within a run.
std::vector<Phase> fixed_phases(int seconds) {
  const int blocks = std::max(1, seconds / 4);
  const double block_s = seconds / (2.0 * blocks);
  std::vector<Phase> out;
  for (int b = 0; b < blocks; ++b) {
    out.push_back({"low", offered_rate(kLowShare), block_s});
    out.push_back({"high", offered_rate(kHighShare), block_s});
  }
  return out;
}

Outcome measure(const Options& opt) {
  Outcome out;
  const std::vector<runner::RunSpec> specs = request_specs(opt.seed);
  std::vector<double> setup_s;
  Clock::time_point t0 = Clock::now();
  std::unique_ptr<Daemon> daemon = set_up(specs);
  setup_s.push_back(seconds_since(t0));
  const std::vector<Phase> phases = fixed_phases(opt.seconds);
  const Traffic tr = drive(*daemon, specs, phases, 1000);
  // The peak of the one daemon that served the traffic: read before the
  // other set-ups and the output check's local runs, which allocate
  // machines of their own.
  const double rss_mb = peak_rss_mb();
  daemon.reset();
  for (int r = 1; r < kSetupRepeats; ++r) {
    t0 = Clock::now();
    daemon = set_up(specs);
    setup_s.push_back(seconds_since(t0));
    daemon.reset();  // stops untimed
  }
  count_phases(tr, out);
  check_generator(tr, out);
  const std::vector<runner::RunResult> reference = local_reference(specs);
  check_streams(tr, reference, out);

  // Throughput over the daemon's busy time, not the offered rate: the
  // summed send-to-done time of the served requests, spread over the
  // workers. A daemon that serves each request more slowly reads lower
  // even while it keeps up with the offered load.
  std::uint64_t trials = 0, cycles = 0;
  double service_s = 0.0;
  for (const Request& r : tr.requests)
    if (r.finished && !r.error) {
      service_s += ms_between(r.sent, r.done) / 1e3;
      for (const runner::TrialResult& t : reference[r.spec].trials) {
        ++trials;
        cycles += t.cycles;
      }
    }
  const double busy_s = service_s / workers();
  for (std::size_t p = 0; p < tr.rates.size(); ++p)
    out.notes.push_back(phase_note(tr.rates[p], tr.phases[p]));
  std::vector<runner::TrialResult> all;
  for (const runner::RunResult& r : reference)
    all.insert(all.end(), r.trials.begin(), r.trials.end());
  out.fingerprint = fingerprint(all);
  out.notes.push_back(
      fingerprint_note("serve_open", opt.seed, out.fingerprint));

  Metrics& m = out.metrics;
  m.set("setup_s", median(setup_s), "s");
  m.set("peak_rss_mb", rss_mb, "MB");
  m.set("ok_share", ok_share(out), "ratio");
  m.set("trials_per_s", busy_s > 0 ? static_cast<double>(trials) / busy_s : 0.0,
        "1/s");
  m.set("sim_mcyc_per_s",
        busy_s > 0 ? static_cast<double>(cycles) / busy_s / 1e6 : 0.0,
        "Mcyc/s");
  add_latency_metrics(tr, "req_p99_ms", 0.99, m);
  return out;
}

std::vector<Span> request_spans(const Traffic& tr) {
  std::vector<Span> spans;
  for (const Request& r : tr.requests) {
    const auto tid = static_cast<std::uint32_t>(100 + r.conn);
    const Clock::time_point end = r.finished ? r.done : r.sent;
    spans.push_back({"request", tid, r.id, r.due, end});
    spans.push_back({"send", tid, r.id, r.due, r.sent});
    if (r.finished) {
      spans.push_back({"first_line", tid, r.id, r.sent, r.first});
      spans.push_back({"stream", tid, r.id, r.first, r.done});
    }
  }
  return spans;
}

Outcome trace(const Options& opt) {
  Outcome out;
  const std::vector<runner::RunSpec> specs = request_specs(opt.seed);
  const Clock::time_point origin = Clock::now();

  // The two fixed rates, as in the untraced run, with request spans.
  std::unique_ptr<Daemon> daemon = set_up(specs);
  const std::vector<Phase> phases = fixed_phases(opt.seconds);
  const Traffic tr = drive(*daemon, specs, phases, 1000);
  count_phases(tr, out);
  check_generator(tr, out);
  const runner::MachinePoolStats pool = daemon->server->pool_stats();
  const serve::SchedulerStats queue = daemon->server->queue_stats();
  const std::uint64_t errors =
      error_count(*daemon->server) - daemon->errors_baseline;
  const runner::MachinePoolStats base = daemon->pool_baseline;
  daemon.reset();

  // max_rps: the highest offered rate whose p99 meets the limit with no
  // growing backlog, over the fixed rates and a ladder above them.
  double max_rps = 0.0;
  for (std::size_t p = 0; p < tr.rates.size(); ++p) {
    const PhaseStats& ps = tr.phases[p];
    if (ps.failed == 0 && !ps.backlog) max_rps = tr.rates[p].rate;
  }
  std::vector<std::string> ladder_notes;
  if (max_rps >= offered_rate(kHighShare)) {
    for (const double f : kLadder) {
      const Phase step{"x" + std::to_string(f).substr(0, 4),
                       offered_rate(f), kLadderStepS};
      std::unique_ptr<Daemon> d = set_up(specs);
      const Traffic lt = drive(*d, specs, {step}, 1000);
      d.reset();
      ladder_notes.push_back(phase_note(step, lt.phases[0]));
      const PhaseStats& ps = lt.phases[0];
      if (ps.failed > 0 || ps.backlog) break;
      max_rps = step.rate;
    }
  }

  // Layer split of the daemon's trials: the distinct request specs, once
  // untraced (the output-check reference) and once through the traced
  // trial runner on warm pools.
  double plain_wall = 0.0;
  const std::vector<runner::RunResult> reference =
      local_reference(specs, &plain_wall);
  check_streams(tr, reference, out);
  const TracedRun traced = run_traced(tasks_of(specs), true);
  std::size_t k = 0;
  for (const runner::RunResult& r : reference)
    for (std::size_t i = 0; i < r.trials.size(); ++i, ++k)
      if (trial_line(i, traced.trials[k].trial) !=
          trial_line(i, {r.trials[i], r.outcomes[i]}))
        out.fail("traced replay of trial " + std::to_string(k) +
                 " differs from the untraced run");
  out.fingerprint = fingerprint(traced);
  out.notes.push_back(
      fingerprint_note("serve_open", opt.seed, out.fingerprint));

  for (std::size_t p = 0; p < tr.rates.size(); ++p)
    out.notes.push_back(phase_note(tr.rates[p], tr.phases[p]));
  for (const std::string& n : ladder_notes) out.notes.push_back(n);

  Metrics& m = out.metrics;
  add_layer_metrics(traced, m);
  m.set("trace.overhead_share", traced.wall_s / plain_wall - 1.0, "ratio");
  m.set("serve.first_line_ms.p50", median(tr.first_line_ms), "ms");
  m.set("serve.first_line_ms.p99", percentile(tr.first_line_ms, 0.99), "ms");
  m.set("serve.queue_depth.max", static_cast<double>(tr.queue_depth_max),
        "count");
  m.set("serve.pool.waited", static_cast<double>(pool.waited - base.waited),
        "count");
  m.set("serve.pool.created", static_cast<double>(pool.created - base.created),
        "count");
  m.set("serve.pool.reused", static_cast<double>(pool.reused - base.reused),
        "count");
  m.set("serve.errors", static_cast<double>(errors), "count");
  m.set("serve.rejected", static_cast<double>(queue.rejected), "count");
  m.set("serve.max_rps", max_rps, "1/s");
  m.set("gen.late_ms.p50", median(tr.late_ms), "ms");
  m.set("gen.late_ms.p99", percentile(tr.late_ms, 0.99), "ms");
  m.set("gen.sent", static_cast<double>(tr.requests.size()), "count");
  m.set("gen.samples.low", static_cast<double>(tr.phases[0].latency_ms.size()),
        "count");
  m.set("gen.samples.high",
        static_cast<double>(tr.phases[1].latency_ms.size()), "count");
  m.set("client.encode_us.p50", median(tr.encode_us), "us");
  // Per-layer, not end-to-end: run to run, the median short request
  // follows the host's speed more closely than the bound allows
  // (perfbench/README.md).
  add_latency_metrics(tr, "req_p50_ms", 0.5, m);

  if (!opt.trace_out.empty()) {
    std::vector<Span> spans = request_spans(tr);
    spans.insert(spans.end(), traced.spans.begin(), traced.spans.end());
    if (!write_chrome_trace(opt.trace_out, spans, origin))
      out.fail("cannot write " + opt.trace_out);
  }
  return out;
}

}  // namespace

Outcome run_serve_open(const Options& opt) {
  return opt.trace ? trace(opt) : measure(opt);
}

}  // namespace whisper::bench

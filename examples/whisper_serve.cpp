// whisper_serve — the attack-as-a-service daemon.
//
//   whisper_serve [--endpoint ADDRESS] [--jobs J] [--pool N]
//   whisper_serve --request JSON [--endpoint ADDRESS]
//   whisper_serve --shutdown [--endpoint ADDRESS]
//   whisper_serve --selftest
//
// ADDRESS is unix:/path, /path, tcp:host:port or host:port (default
// unix:/tmp/whisper_serve.sock; src/serve/socket_transport.h). Daemon mode
// listens on it — same protocol, same bytes on either kind; a TCP daemon is
// one endpoint of a sweep pool (whisper_cli sweep --endpoints). The
// newline-framed JSON protocol of src/serve/protocol.h has verbs run, ping,
// list, metrics, shutdown. Try it with nothing fancier than nc:
//
//   whisper_serve --endpoint /tmp/w.sock &
//   printf '%s\n' '{"id":1,"verb":"run","attack":"cc","trials":2,"seed":7}' |
//     nc -U /tmp/w.sock
//
// --request dials ADDRESS, sends one request line from the command line,
// prints every response line to stdout, and exits when the request's
// stream terminates (done/error/pong/attacks/metrics/bye). --shutdown is
// shorthand for sending the shutdown verb. --selftest runs a loopback
// round-trip with no socket at all and exits 0 on success (used as a
// smoke check).
//
// --jobs sets the worker count (throughput only: response bytes are
// byte-identical for any value — invariant 11, docs/ARCHITECTURE.md);
// --pool caps the shared machine pool (admission control).
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/flags.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/socket_transport.h"
#include "serve/transport_loopback.h"

using namespace whisper;

namespace {

const cli::Table& flags() {
  static const cli::Table table = {
      {.name = "--selftest", .help = "loopback round-trip, no socket"},
      {.name = "--endpoint", .kind = cli::Kind::String,
       .def = "unix:/tmp/whisper_serve.sock",
       .help = "address to listen on, or to dial with --request/--shutdown: "
               "unix:/path, /path, tcp:host:port or host:port"},
      {.name = "--request", .kind = cli::Kind::String,
       .help = "send one JSON request line (verbs run, ping, list, metrics, "
               "shutdown; src/serve/protocol.h), print the response stream"},
      {.name = "--shutdown", .help = "ask a running daemon to exit"},
      {.name = "--jobs", .kind = cli::Kind::Int, .def = "1",
       .help = "worker threads", .min = 1},
      {.name = "--pool", .kind = cli::Kind::Uint, .def = "4",
       .help = "shared machine pool capacity", .min = 1},
  };
  return table;
}

/// Is `line` the last response of its request's stream?
bool terminal_response(const std::string& line) {
  for (const char* t : {"\"done\"", "\"error\"", "\"pong\"", "\"attacks\"",
                        "\"metrics\"", "\"bye\""})
    if (line.find(std::string("\"type\":") + t) != std::string::npos)
      return true;
  return false;
}

/// One-shot client: send `request`, print responses until the stream ends.
int send_request(const serve::Address& endpoint, const std::string& request) {
  auto conn = serve::dial(endpoint);
  if (!conn->write_line(request)) {
    std::fprintf(stderr, "whisper_serve: send failed\n");
    return 1;
  }
  std::string line;
  bool saw_error = false;
  while (conn->read_line(line)) {
    std::printf("%s\n", line.c_str());
    if (line.find("\"type\":\"error\"") != std::string::npos) saw_error = true;
    if (terminal_response(line)) break;
  }
  return saw_error ? 1 : 0;
}

/// Loopback smoke test: no socket, one run request, assert the stream
/// terminates with a done line.
int selftest() {
  serve::LoopbackTransport transport;
  serve::ServerOptions opts;
  opts.jobs = 2;
  serve::Server server(transport, opts);
  server.start();
  auto client = transport.connect();
  client->send(R"({"id":1,"verb":"run","attack":"cc","trials":2,"seed":7})");
  client->close_send();
  std::string line;
  bool done = false;
  while (client->recv(line)) {
    std::printf("%s\n", line.c_str());
    if (line.find("\"type\":\"done\"") != std::string::npos) {
      done = true;
      break;
    }
    if (line.find("\"type\":\"error\"") != std::string::npos) break;
  }
  server.stop();
  if (!done) {
    std::fprintf(stderr, "whisper_serve: selftest failed\n");
    return 1;
  }
  std::puts("selftest ok");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const cli::Args args = cli::parse_or_exit("whisper_serve", flags(), argc,
                                            argv);
  if (args.has("--selftest")) return selftest();

  serve::Address endpoint;
  try {
    endpoint = serve::parse_address(args.str("--endpoint"));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "whisper_serve: --endpoint: %s\n", e.what());
    return 2;
  }

  try {
    if (args.has("--request"))
      return send_request(endpoint, args.str("--request"));
    if (args.has("--shutdown"))
      return send_request(endpoint, R"({"id":1,"verb":"shutdown"})");

    serve::ServerOptions opts;
    opts.jobs = args.integer("--jobs");
    opts.pool_capacity = args.uint("--pool");
    serve::SocketTransport transport(endpoint);
    serve::Server server(transport, opts);
    server.start();
    std::fprintf(stderr,
                 "whisper_serve: listening on %s (jobs=%d, pool=%zu)\n",
                 transport.address().canonical().c_str(), opts.jobs,
                 opts.pool_capacity);
    server.wait_shutdown();
    server.stop();
    std::fprintf(stderr, "whisper_serve: bye\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "whisper_serve: %s\n", e.what());
    return 1;
  }
}

// whisper_serve — the attack-as-a-service daemon.
//
//   whisper_serve [--socket PATH] [--jobs J] [--pool N]
//   whisper_serve --listen HOST:PORT [--jobs J] [--pool N]
//   whisper_serve --request JSON [--socket PATH | --connect HOST:PORT]
//   whisper_serve --shutdown [--socket PATH | --connect HOST:PORT]
//   whisper_serve --selftest
//
// Daemon mode binds a unix-domain socket (default /tmp/whisper_serve.sock)
// or, with --listen, a TCP host:port — same protocol, same bytes; TCP is
// what makes a daemon one endpoint of a sweep pool (whisper_cli sweep
// --endpoints). The newline-framed JSON protocol of src/serve/protocol.h
// has verbs run, ping, list, metrics, shutdown. Try it with nothing
// fancier than nc:
//
//   whisper_serve --socket /tmp/w.sock &
//   printf '%s\n' '{"id":1,"verb":"run","attack":"cc","trials":2,"seed":7}' |
//     nc -U /tmp/w.sock
//
// --request sends one request line from the command line, prints every
// response line to stdout, and exits when the request's stream terminates
// (done/error/pong/attacks/metrics/bye); --connect targets a TCP daemon
// instead of the unix socket. --shutdown is shorthand for sending the
// shutdown verb. --selftest runs a loopback round-trip with no socket at
// all and exits 0 on success (used as a smoke check).
//
// --jobs sets the worker count (throughput only: response bytes are
// byte-identical for any value — invariant 11, docs/ARCHITECTURE.md);
// --pool caps the shared machine pool (admission control).
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "cli/flags.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/transport_loopback.h"
#include "serve/transport_tcp.h"
#include "serve/transport_unix.h"

using namespace whisper;

namespace {

const cli::Table& flags() {
  static const cli::Table table = {
      {.name = "--help", .help = "print this text and exit"},
      {.name = "--selftest", .help = "loopback round-trip, no socket"},
      {.name = "--socket", .kind = cli::Kind::String,
       .def = "/tmp/whisper_serve.sock", .help = "unix socket path"},
      {.name = "--listen", .kind = cli::Kind::String,
       .help = "serve on TCP HOST:PORT instead of the unix socket"},
      {.name = "--request", .kind = cli::Kind::String,
       .help = "send one JSON request line, print the response stream"},
      {.name = "--shutdown", .help = "ask a running daemon to exit"},
      {.name = "--connect", .kind = cli::Kind::String,
       .help = "client modes: dial TCP HOST:PORT, not the unix socket"},
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
/// `tcp_address` (from --connect) wins over the unix socket path.
int send_request(const std::string& socket_path, const std::string& tcp_address,
                 const std::string& request) {
  auto conn = tcp_address.empty()
                  ? serve::UnixSocketTransport::dial(socket_path)
                  : serve::TcpTransport::dial(tcp_address);
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
  if (args.has("--help")) {
    std::printf("%s\nProtocol: one JSON object per line; verbs run, ping, "
                "list, metrics,\nshutdown (src/serve/protocol.h; "
                "docs/REPRODUCING.md \"Serving\").\n",
                cli::usage("whisper_serve", flags()).c_str());
    return 0;
  }
  if (args.has("--selftest")) return selftest();

  const std::string socket_path = args.str("--socket");
  const std::string tcp_connect = args.str("--connect");
  const std::string tcp_listen = args.str("--listen");

  try {
    if (args.has("--request"))
      return send_request(socket_path, tcp_connect, args.str("--request"));
    if (args.has("--shutdown"))
      return send_request(socket_path, tcp_connect,
                          R"({"id":1,"verb":"shutdown"})");

    // Daemon mode: TCP with --listen, unix socket otherwise. Same server,
    // same protocol, same response bytes either way.
    serve::ServerOptions opts;
    opts.jobs = args.integer("--jobs");
    opts.pool_capacity = args.uint("--pool");
    std::unique_ptr<serve::Transport> transport;
    std::string where;
    if (!tcp_listen.empty()) {
      auto tcp = std::make_unique<serve::TcpTransport>(tcp_listen);
      where = tcp->address();
      transport = std::move(tcp);
    } else {
      transport = std::make_unique<serve::UnixSocketTransport>(socket_path);
      where = socket_path;
    }
    serve::Server server(*transport, opts);
    server.start();
    std::fprintf(stderr,
                 "whisper_serve: listening on %s (jobs=%d, pool=%zu)\n",
                 where.c_str(), opts.jobs, opts.pool_capacity);
    server.wait_shutdown();
    server.stop();
    std::fprintf(stderr, "whisper_serve: bye\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "whisper_serve: %s\n", e.what());
    return 1;
  }
}

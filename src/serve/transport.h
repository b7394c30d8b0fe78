// Pluggable byte transport for the whisper_serve daemon.
//
// The serving stack is transport-agnostic: the protocol is newline-framed
// JSON in both directions (src/serve/protocol.h), so a transport only has
// to move lines. Two implementations:
//
//   * LoopbackTransport (transport_loopback.h) — in-process queue pairs;
//     what the tests, bench/serve_soak and perfbench drive, no sockets, no
//     fds.
//   * SocketTransport (socket_transport.h) — a SOCK_STREAM socket on a TCP
//     host:port or a unix-domain path, one address grammar for both; what
//     examples/whisper_serve listens on (--endpoint) and what makes one
//     daemon an endpoint of a sweep pool (whisper_cli sweep --endpoints).
//
// Threading contract:
//   * accept() is called from exactly one thread (the server's accept
//     loop); it blocks until a client connects and returns nullptr once
//     shutdown() has been called. shutdown() may come from any thread,
//     while accept() is parked.
//   * Connection::read_line() / read_line_for() are called from exactly
//     one thread per connection (the server's per-connection reader, or
//     the sweep client's per-endpoint worker).
//   * Connection::write_line() is thread-safe — any worker may stream
//     response lines at any time; each line is written atomically (no
//     interleaving inside a line).
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

namespace whisper::serve {

/// Outcome of a timed read. kTimeout leaves the connection (and any
/// partially buffered line) intact — the caller may retry or tear down.
enum class ReadStatus : std::uint8_t { kLine, kTimeout, kClosed };

/// One connected peer: the server's view of a client, or (for dialed
/// connections) the client's view of a daemon.
class Connection {
 public:
  virtual ~Connection() = default;

  /// Block for the next newline-terminated request line (the newline is
  /// stripped). Returns false once the peer has closed and every buffered
  /// line has been consumed.
  virtual bool read_line(std::string& out) = 0;

  /// Timed read: block up to `timeout_ms` milliseconds for the next line.
  /// `timeout_ms < 0` blocks forever (== read_line). The base default has
  /// no timer — transports that can wait bounded (fd poll, channel
  /// wait_for) override; the server only ever blocks, so it keeps the
  /// plain path.
  virtual ReadStatus read_line_for(std::string& out, int timeout_ms) {
    (void)timeout_ms;
    return read_line(out) ? ReadStatus::kLine : ReadStatus::kClosed;
  }

  /// Queue one response line (a trailing newline is appended). Thread-safe;
  /// atomic per line. Returns false when the connection is gone.
  virtual bool write_line(const std::string& line) = 0;

  /// Tear the connection down in both directions; unblocks a pending
  /// read_line(). Idempotent.
  virtual void close() = 0;

  /// Short peer label for logs and metrics ("loopback:2", "unix:7",
  /// "dial:tcp:127.0.0.1:7777").
  [[nodiscard]] virtual std::string peer() const = 0;
};

/// A dial that could not produce a live connection: refused, unreachable,
/// nonexistent socket path, or connect timeout. Typed so the sweep client
/// can count it as `unreachable` and back off instead of aborting — a dead
/// endpoint is data, not a crash.
class DialError : public std::runtime_error {
 public:
  explicit DialError(const std::string& what)
      : std::runtime_error("serve: " + what) {}
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Block until the next client connects; nullptr after shutdown().
  virtual std::unique_ptr<Connection> accept() = 0;

  /// Stop accepting: unblock a pending accept() and make every later call
  /// return nullptr. Established connections are unaffected. Idempotent.
  virtual void shutdown() = 0;
};

}  // namespace whisper::serve

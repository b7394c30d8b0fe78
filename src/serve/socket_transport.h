// Socket transport: the newline-framed JSON protocol on a TCP host:port or
// a unix-domain socket path.
//
// One address grammar names both (whisper_serve --endpoint, whisper_cli
// sweep --endpoints):
//
//   tcp:host:port | host:port      TCP (IPv4)
//   unix:/path    | /path          unix-domain stream socket
//
// parse_address() is the only place an address is checked: the port must
// be decimal digits in 0..65535 and a unix path must fit sockaddr_un, so a
// parsed Address can always be listened on or dialed without a format
// error. What is left at bind or dial time is the network itself: an
// unresolvable host, a refused connection, a dead socket file.
//
// The wire bytes are the same on every transport (invariant 11 makes a
// response stream a pure function of its request line), so a sweep merged
// across socket endpoints is byte-identical to a local runner::run —
// invariant 13 builds on exactly this. Connections are FdConnections
// (fd_connection.h). POSIX-only; elsewhere the listener's constructor
// throws std::runtime_error and dial() throws DialError, so callers
// degrade to the loopback transport instead of crashing.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/transport.h"

namespace whisper::serve {

/// A checked socket address. Built only by parse_address() (and by
/// SocketTransport, which fills in the port the kernel chose), so every
/// Address in the program satisfies the grammar's limits.
class Address {
 public:
  enum class Kind : std::uint8_t { kTcp, kUnix };

  /// "tcp::0": every interface, an ephemeral port.
  Address() = default;

  [[nodiscard]] Kind kind() const { return kind_; }
  /// kTcp: the host ("" = every interface when listening, loopback when
  /// dialing) and port (0 = ephemeral when listening).
  [[nodiscard]] const std::string& host() const { return host_; }
  [[nodiscard]] std::uint16_t port() const { return port_; }
  /// kUnix: the socket path.
  [[nodiscard]] const std::string& path() const { return path_; }

  /// "tcp:host:port" or "unix:/path"; parses back to an equal Address.
  [[nodiscard]] std::string canonical() const;

  friend bool operator==(const Address&, const Address&) = default;

 private:
  friend Address parse_address(const std::string& text);
  friend class SocketTransport;

  Kind kind_ = Kind::kTcp;
  std::string host_;
  std::uint16_t port_ = 0;
  std::string path_;
};

/// Parse one address. Throws std::invalid_argument ("serve: ...") on an
/// empty address, a missing, non-numeric or out-of-range port, or an empty
/// or overlong unix path.
[[nodiscard]] Address parse_address(const std::string& text);

/// Parse a comma-separated list of addresses (spaces ignored). An empty
/// list or an empty element throws std::invalid_argument: the list order
/// decides which endpoint owns which chunks of a sweep.
[[nodiscard]] std::vector<Address> parse_address_list(const std::string& csv);

/// Listener on one Address. Binding port 0 picks an ephemeral port, which
/// address() then reports — how the tests avoid hard-coding ports. A TCP
/// listener sets SO_REUSEADDR so a restarted daemon does not fight
/// TIME_WAIT; a unix listener first unlinks a stale socket file left by a
/// crashed daemon.
class SocketTransport : public Transport {
 public:
  /// Bind and listen. Throws std::runtime_error when the host does not
  /// resolve or the socket cannot be created, bound or listened on.
  explicit SocketTransport(const Address& address);
  /// Shuts down, then closes the listening socket.
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  std::unique_ptr<Connection> accept() override;
  /// Wakes a parked accept() with ::shutdown() on the listening socket and
  /// removes a unix socket file; the descriptor itself stays open until
  /// the destructor, so a concurrent accept() never sees it closed or
  /// reused. Idempotent and safe from any thread.
  void shutdown() override;

  /// The bound address, with the resolved host and the real port.
  [[nodiscard]] const Address& address() const { return address_; }

 private:
  Address address_;
  int listen_fd_ = -1;  // set once by the constructor
  std::atomic<bool> down_{false};
  std::size_t next_id_ = 0;  // accept() thread only
};

/// Connect to `address` with a bounded connect wait (`timeout_ms` < 0 =
/// block). Throws DialError on an unresolvable host, a refused or timed-out
/// connection, or a missing or stale socket file — typed, so the sweep
/// client counts a dead box instead of aborting.
[[nodiscard]] std::unique_ptr<Connection> dial(const Address& address,
                                               int timeout_ms = -1);

}  // namespace whisper::serve

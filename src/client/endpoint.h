// Sweep endpoints: where a SweepClient dials daemons.
//
// An Endpoint is a dialable address — a serve::Address (TCP host:port or
// unix socket path; the grammar lives in serve/socket_transport.h) or an
// in-process LoopbackTransport (how the tests and bench/dist_soak run
// multi-daemon topologies without sockets). dial() either returns a live
// serve::Connection or throws serve::DialError; the sweep client counts
// the throw as `unreachable` and backs off, so a dead box is accounting,
// not an abort.
//
// KillSwitchEndpoint wraps any endpoint with a deterministic "this box
// just died" lever: kill() makes every later dial refuse and severs the
// connection currently in flight. It exists so the kill-one-daemon-
// mid-sweep schedule of invariant 13 is a scripted test scenario instead
// of a flaky race.
#pragma once

#include <memory>
#include <mutex>
#include <string>

#include "serve/socket_transport.h"
#include "serve/transport.h"
#include "serve/transport_loopback.h"

namespace whisper::client {

class Endpoint {
 public:
  virtual ~Endpoint() = default;

  /// Connect, or throw serve::DialError. `timeout_ms` bounds the connect
  /// (< 0 = block).
  [[nodiscard]] virtual std::unique_ptr<serve::Connection> dial(
      int timeout_ms) = 0;

  /// Stable label for accounting and logs ("tcp:127.0.0.1:7777").
  [[nodiscard]] virtual std::string label() const = 0;
};

/// A socket endpoint (TCP or unix): dials `address` with serve::dial().
[[nodiscard]] std::unique_ptr<Endpoint> make_endpoint(
    const serve::Address& address);

/// In-process endpoint over a LoopbackTransport (which must outlive it).
/// The returned connections adapt LoopbackClient's channel pair to the
/// Connection interface, including timed reads.
class LoopbackEndpoint : public Endpoint {
 public:
  explicit LoopbackEndpoint(serve::LoopbackTransport& transport,
                            std::string label = "loopback");
  [[nodiscard]] std::unique_ptr<serve::Connection> dial(
      int timeout_ms) override;
  [[nodiscard]] std::string label() const override;

 private:
  serve::LoopbackTransport& transport_;
  std::string label_;
};

/// Deterministic failure lever around any endpoint (see file comment).
class KillSwitchEndpoint : public Endpoint {
 public:
  explicit KillSwitchEndpoint(std::unique_ptr<Endpoint> inner);

  /// From any thread: refuse all future dials and sever the currently
  /// live connection (its next read reports closed, its writes fail).
  void kill();
  [[nodiscard]] bool killed() const;

  [[nodiscard]] std::unique_ptr<serve::Connection> dial(
      int timeout_ms) override;
  [[nodiscard]] std::string label() const override;

 private:
  std::unique_ptr<Endpoint> inner_;
  mutable std::mutex mu_;
  bool dead_ = false;
  std::weak_ptr<serve::Connection> live_;
};

}  // namespace whisper::client

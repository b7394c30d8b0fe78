#include "client/endpoint.h"

#include <utility>

namespace whisper::client {

namespace {

class SocketEndpoint : public Endpoint {
 public:
  explicit SocketEndpoint(serve::Address address)
      : address_(std::move(address)) {}
  std::unique_ptr<serve::Connection> dial(int timeout_ms) override {
    return serve::dial(address_, timeout_ms);
  }
  std::string label() const override { return address_.canonical(); }

 private:
  serve::Address address_;
};

/// Client side of a loopback connection pair as a serve::Connection.
class LoopbackClientConnection : public serve::Connection {
 public:
  LoopbackClientConnection(std::unique_ptr<serve::LoopbackClient> client,
                           std::string label)
      : client_(std::move(client)), label_(std::move(label)) {}
  ~LoopbackClientConnection() override { close(); }

  bool read_line(std::string& out) override { return client_->recv(out); }
  serve::ReadStatus read_line_for(std::string& out, int timeout_ms) override {
    return client_->recv_for(out, timeout_ms);
  }
  bool write_line(const std::string& line) override {
    return client_->send(line);
  }
  void close() override { client_->close(); }
  [[nodiscard]] std::string peer() const override { return label_; }

 private:
  std::unique_ptr<serve::LoopbackClient> client_;
  std::string label_;
};

/// Forwards to a shared inner connection so KillSwitchEndpoint can keep a
/// weak handle for severing while the sweep worker owns the unique_ptr.
class SharedConnection : public serve::Connection {
 public:
  explicit SharedConnection(std::shared_ptr<serve::Connection> inner)
      : inner_(std::move(inner)) {}
  bool read_line(std::string& out) override { return inner_->read_line(out); }
  serve::ReadStatus read_line_for(std::string& out, int timeout_ms) override {
    return inner_->read_line_for(out, timeout_ms);
  }
  bool write_line(const std::string& line) override {
    return inner_->write_line(line);
  }
  void close() override { inner_->close(); }
  [[nodiscard]] std::string peer() const override { return inner_->peer(); }

 private:
  std::shared_ptr<serve::Connection> inner_;
};

}  // namespace

std::unique_ptr<Endpoint> make_endpoint(const serve::Address& address) {
  return std::make_unique<SocketEndpoint>(address);
}

LoopbackEndpoint::LoopbackEndpoint(serve::LoopbackTransport& transport,
                                   std::string label)
    : transport_(transport), label_(std::move(label)) {}

std::unique_ptr<serve::Connection> LoopbackEndpoint::dial(int timeout_ms) {
  (void)timeout_ms;  // connect() never blocks
  auto client = transport_.connect();
  // A shut-down transport hands back a dead client whose first send fails;
  // probe with a blank keep-alive line (the server skips blanks) so a
  // dead daemon surfaces here as DialError, matching the socket paths.
  if (!client->send(""))
    throw serve::DialError("cannot connect to " + label_ +
                           ": transport shut down");
  return std::make_unique<LoopbackClientConnection>(std::move(client), label_);
}

std::string LoopbackEndpoint::label() const { return label_; }

KillSwitchEndpoint::KillSwitchEndpoint(std::unique_ptr<Endpoint> inner)
    : inner_(std::move(inner)) {}

void KillSwitchEndpoint::kill() {
  std::shared_ptr<serve::Connection> live;
  {
    std::lock_guard<std::mutex> lock(mu_);
    dead_ = true;
    live = live_.lock();
  }
  if (live) live->close();
}

bool KillSwitchEndpoint::killed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dead_;
}

std::unique_ptr<serve::Connection> KillSwitchEndpoint::dial(int timeout_ms) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (dead_)
      throw serve::DialError("cannot connect to " + inner_->label() +
                             ": endpoint killed");
  }
  std::shared_ptr<serve::Connection> conn = inner_->dial(timeout_ms);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (dead_) {
      conn->close();
      throw serve::DialError("cannot connect to " + inner_->label() +
                             ": endpoint killed");
    }
    live_ = conn;
  }
  return std::make_unique<SharedConnection>(std::move(conn));
}

std::string KillSwitchEndpoint::label() const { return inner_->label(); }

}  // namespace whisper::client

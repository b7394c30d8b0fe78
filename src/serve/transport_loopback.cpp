#include "serve/transport_loopback.h"

#include <chrono>

namespace whisper::serve {

bool LineChannel::push(const std::string& line) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return false;
    lines_.push_back(line);
  }
  cv_.notify_one();
  return true;
}

bool LineChannel::pop(std::string& out) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return closed_ || !lines_.empty(); });
  if (lines_.empty()) return false;  // closed and drained
  out = std::move(lines_.front());
  lines_.pop_front();
  return true;
}

ReadStatus LineChannel::pop_for(std::string& out, int timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto ready = [this] { return closed_ || !lines_.empty(); };
  if (timeout_ms < 0) {
    cv_.wait(lock, ready);
  } else if (!cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                           ready)) {
    return ReadStatus::kTimeout;
  }
  if (lines_.empty()) return ReadStatus::kClosed;  // closed and drained
  out = std::move(lines_.front());
  lines_.pop_front();
  return ReadStatus::kLine;
}

void LineChannel::close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

bool LoopbackClient::send(const std::string& line) {
  return to_server_->push(line);
}

bool LoopbackClient::recv(std::string& out) { return to_client_->pop(out); }

ReadStatus LoopbackClient::recv_for(std::string& out, int timeout_ms) {
  return to_client_->pop_for(out, timeout_ms);
}

void LoopbackClient::close_send() { to_server_->close(); }

void LoopbackClient::close() {
  to_server_->close();
  to_client_->close();
}

namespace {

class LoopbackConnection : public Connection {
 public:
  LoopbackConnection(std::shared_ptr<LineChannel> from_client,
                     std::shared_ptr<LineChannel> to_client, std::size_t id)
      : from_client_(std::move(from_client)),
        to_client_(std::move(to_client)),
        id_(id) {}

  ~LoopbackConnection() override { close(); }

  bool read_line(std::string& out) override { return from_client_->pop(out); }

  bool write_line(const std::string& line) override {
    return to_client_->push(line);
  }

  void close() override {
    from_client_->close();
    to_client_->close();
  }

  [[nodiscard]] std::string peer() const override {
    return "loopback:" + std::to_string(id_);
  }

 private:
  std::shared_ptr<LineChannel> from_client_;
  std::shared_ptr<LineChannel> to_client_;
  std::size_t id_;
};

}  // namespace

std::unique_ptr<LoopbackClient> LoopbackTransport::connect() {
  auto client = std::unique_ptr<LoopbackClient>(new LoopbackClient);
  client->to_server_ = std::make_shared<LineChannel>();
  client->to_client_ = std::make_shared<LineChannel>();
  std::unique_ptr<Connection> conn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (down_) {
      // Transport already shut down: hand back a dead client instead of
      // blocking or throwing, so racing connects during teardown are
      // harmless.
      client->to_server_->close();
      client->to_client_->close();
      return client;
    }
    conn = std::make_unique<LoopbackConnection>(client->to_server_,
                                                client->to_client_, next_id_++);
    pending_.push_back(std::move(conn));
  }
  cv_.notify_one();
  return client;
}

std::unique_ptr<Connection> LoopbackTransport::accept() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return down_ || !pending_.empty(); });
  if (pending_.empty()) return nullptr;  // shut down with nothing queued
  auto conn = std::move(pending_.front());
  pending_.pop_front();
  return conn;
}

void LoopbackTransport::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    down_ = true;
    // Connections handed to connect() but never accepted would leave the
    // client blocked in recv() forever; closing them delivers EOF.
    for (auto& conn : pending_) conn->close();
    pending_.clear();
  }
  cv_.notify_all();
}

}  // namespace whisper::serve

// File-descriptor Connection: the line framing of every socket connection,
// TCP or unix-domain, accepted by SocketTransport or opened by dial()
// (socket_transport.h). One hardened read/write path:
//
//   * read_line() buffers recv() chunks and serves newline-framed lines;
//     a final unterminated fragment at EOF still counts as a line.
//   * read_line_for() bounds the wait with poll(): the sweep client's
//     per-request deadline, not a wedged daemon, decides how long a
//     response may take.
//   * Lines are capped at kMaxLineBytes. An overlong line is delivered
//     truncated (so protocol.cpp's kMaxRequestBytes check rejects it with
//     a well-formed error response) and the tail through the next newline
//     is discarded — the connection resynchronizes instead of ballooning
//     server memory or going silent.
//   * write_line() survives partial writes and EINTR, and a peer that
//     disappeared mid-stream surfaces as `false` — never SIGPIPE
//     (MSG_NOSIGNAL on Linux, per-process SIG_IGN where the flag is
//     missing).
//
// POSIX-only, like the socket transport that uses it.
#pragma once

#include <cstddef>
#include <string>

#include "serve/transport.h"

#if defined(__unix__) || defined(__APPLE__)
#define WHISPER_HAVE_FD_CONNECTION 1

#include <atomic>
#include <mutex>

namespace whisper::serve {

class FdConnection : public Connection {
 public:
  /// A single buffered line larger than this is truncated and the rest of
  /// it discarded (see file comment). Deliberately above kMaxRequestBytes:
  /// a request at the protocol cap still arrives intact and is refused by
  /// parse_request() with an attributable error line.
  static constexpr std::size_t kMaxLineBytes = 256 * 1024;

  /// Takes ownership of `fd` (closed on destruction; close() only shuts
  /// it down). `peer` is the label peer() reports.
  FdConnection(int fd, std::string peer);
  ~FdConnection() override;

  bool read_line(std::string& out) override;
  ReadStatus read_line_for(std::string& out, int timeout_ms) override;
  bool write_line(const std::string& line) override;
  void close() override;
  [[nodiscard]] std::string peer() const override;

 private:
  /// Pull one recv() chunk into buf_, honouring the poll deadline.
  /// kLine here means "made progress, loop again".
  ReadStatus fill(int timeout_ms);

  const int fd_;  // closed only by the destructor
  std::atomic<bool> closed_{false};
  std::string peer_;
  std::string buf_;
  bool discarding_ = false;  // dropping an oversized line's tail until '\n'
  std::mutex write_mu_;
};

/// Nonblocking connect with a bounded wait, behind serve::dial():
/// create the socket, connect, poll for writability up to `timeout_ms`
/// (< 0 = block), check SO_ERROR, and return the connected fd with
/// blocking mode restored. Throws DialError (closing the fd) on refusal,
/// timeout, or any socket error; `what` names the target in the message.
[[nodiscard]] int dial_fd(int domain, const void* addr, std::size_t addr_len,
                          int timeout_ms, const std::string& what);

}  // namespace whisper::serve

#endif  // POSIX

#include "serve/socket_transport.h"

#include <stdexcept>

#include "serve/fd_connection.h"

#if WHISPER_HAVE_FD_CONNECTION
#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#endif

namespace whisper::serve {

namespace {

#if WHISPER_HAVE_FD_CONNECTION
constexpr std::size_t kSunPathBytes = sizeof(sockaddr_un{}.sun_path);
#else
constexpr std::size_t kSunPathBytes = 108;  // Linux's sun_path
#endif

[[noreturn]] void refuse(const std::string& text, const std::string& why) {
  throw std::invalid_argument("serve: address '" + text + "' " + why);
}

}  // namespace

std::string Address::canonical() const {
  if (kind_ == Kind::kUnix) return "unix:" + path_;
  return "tcp:" + host_ + ":" + std::to_string(port_);
}

Address parse_address(const std::string& text) {
  Address a;
  std::string rest = text;
  if (text.rfind("unix:", 0) == 0) {
    a.kind_ = Address::Kind::kUnix;
    rest = text.substr(5);
  } else if (!text.empty() && text[0] == '/') {
    a.kind_ = Address::Kind::kUnix;  // a bare absolute path
  } else if (text.rfind("tcp:", 0) == 0) {
    rest = text.substr(4);
  }
  if (a.kind_ == Address::Kind::kUnix) {
    if (rest.empty()) refuse(text, "has an empty socket path");
    // sun_path holds the path and its terminating NUL.
    if (rest.size() >= kSunPathBytes)
      refuse(text, "has a socket path longer than " +
                       std::to_string(kSunPathBytes - 1) + " bytes");
    a.path_ = rest;
    return a;
  }
  // host:port, split on the LAST colon; the host may be empty.
  const std::size_t colon = rest.rfind(':');
  if (colon == std::string::npos)
    refuse(text, "must be host:port, tcp:host:port, unix:/path or /path");
  const std::string digits = rest.substr(colon + 1);
  if (digits.empty()) refuse(text, "has an empty port");
  unsigned long port = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') refuse(text, "has a non-numeric port");
    port = port * 10 + static_cast<unsigned long>(c - '0');
    if (port > 65535) refuse(text, "has a port outside 0..65535");
  }
  a.host_ = rest.substr(0, colon);
  a.port_ = static_cast<std::uint16_t>(port);
  return a;
}

std::vector<Address> parse_address_list(const std::string& csv) {
  std::string stripped;
  for (const char c : csv)
    if (c != ' ') stripped += c;
  if (stripped.empty())
    throw std::invalid_argument("serve: address list is empty");
  std::vector<Address> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = stripped.find(',', start);
    const std::string token = stripped.substr(start, comma - start);
    if (token.empty())
      throw std::invalid_argument(
          "serve: address list '" + csv +
          "' has an empty element (doubled or trailing comma)");
    out.push_back(parse_address(token));
    if (comma == std::string::npos) return out;
    start = comma + 1;
  }
}

#if WHISPER_HAVE_FD_CONNECTION

namespace {

struct SockAddr {
  sockaddr_storage storage{};
  socklen_t len = 0;
  [[nodiscard]] const sockaddr* get() const {
    return reinterpret_cast<const sockaddr*>(&storage);
  }
};

/// The sockaddr `a` names. A TCP host goes through getaddrinfo (dotted
/// quads and names alike; AF_INET only — the pool boxes this targets speak
/// IPv4). Throws std::runtime_error when it does not resolve.
SockAddr to_sockaddr(const Address& a, bool listening) {
  SockAddr out;
  if (a.kind() == Address::Kind::kUnix) {
    sockaddr_un un{};
    un.sun_family = AF_UNIX;
    std::memcpy(un.sun_path, a.path().c_str(), a.path().size() + 1);
    std::memcpy(&out.storage, &un, sizeof un);
    out.len = sizeof un;
    return out;
  }
  sockaddr_in in{};
  in.sin_family = AF_INET;
  in.sin_port = htons(a.port());
  const std::string name =
      a.host().empty() ? (listening ? "0.0.0.0" : "127.0.0.1") : a.host();
  if (::inet_pton(AF_INET, name.c_str(), &in.sin_addr) != 1) {
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    const int rc = ::getaddrinfo(name.c_str(), nullptr, &hints, &res);
    if (rc != 0 || res == nullptr)
      throw std::runtime_error("cannot resolve host '" + name +
                               "': " + ::gai_strerror(rc));
    in.sin_addr = reinterpret_cast<const sockaddr_in*>(res->ai_addr)->sin_addr;
    ::freeaddrinfo(res);
  }
  std::memcpy(&out.storage, &in, sizeof in);
  out.len = sizeof in;
  return out;
}

int family(const Address& a) {
  return a.kind() == Address::Kind::kUnix ? AF_UNIX : AF_INET;
}

}  // namespace

SocketTransport::SocketTransport(const Address& address) : address_(address) {
  SockAddr sa;
  try {
    sa = to_sockaddr(address, /*listening=*/true);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error("serve: cannot listen on " + address.canonical() +
                             ": " + e.what());
  }
  listen_fd_ = ::socket(family(address), SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw std::runtime_error("serve: socket() failed: " +
                             std::string(std::strerror(errno)));
  if (address.kind() == Address::Kind::kUnix) {
    ::unlink(address.path().c_str());  // a stale socket from a crashed daemon
  } else {
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  }
  if (::bind(listen_fd_, sa.get(), sa.len) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    throw std::runtime_error("serve: cannot listen on " + address.canonical() +
                             ": " + err);
  }
  if (address.kind() == Address::Kind::kTcp) {
    // Report what was bound: the numeric host and, for port 0, the port
    // the kernel chose.
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
        0) {
      char host[INET_ADDRSTRLEN] = {};
      ::inet_ntop(AF_INET, &bound.sin_addr, host, sizeof host);
      address_.host_ = host;
      address_.port_ = ntohs(bound.sin_port);
    }
  }
}

SocketTransport::~SocketTransport() {
  shutdown();
  ::close(listen_fd_);
}

std::unique_ptr<Connection> SocketTransport::accept() {
  const char* kind = address_.kind() == Address::Kind::kUnix ? "unix:" : "tcp:";
  while (!down_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd >= 0)
      return std::make_unique<FdConnection>(fd,
                                            kind + std::to_string(next_id_++));
    if (errno != EINTR && errno != ECONNABORTED) break;
  }
  return nullptr;  // shut down, or the listening socket failed
}

void SocketTransport::shutdown() {
  if (down_.exchange(true)) return;
  // ::shutdown() wakes a concurrent accept() (EINVAL on Linux); close()
  // alone would leave it parked, and would free the descriptor number
  // while accept() may still use it.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (address_.kind() == Address::Kind::kUnix)
    ::unlink(address_.path().c_str());
}

std::unique_ptr<Connection> dial(const Address& address, int timeout_ms) {
  SockAddr sa;
  try {
    sa = to_sockaddr(address, /*listening=*/false);
  } catch (const std::runtime_error& e) {
    // Resolution failure is a dial failure: typed, countable, retryable.
    throw DialError("cannot connect to " + address.canonical() + ": " +
                    e.what());
  }
  const int fd = dial_fd(family(address), &sa.storage, sa.len, timeout_ms,
                         address.canonical());
  return std::make_unique<FdConnection>(fd, "dial:" + address.canonical());
}

#else  // !WHISPER_HAVE_FD_CONNECTION

SocketTransport::SocketTransport(const Address& address) : address_(address) {
  throw std::runtime_error(
      "serve: sockets unavailable on this platform; use the loopback "
      "transport");
}

SocketTransport::~SocketTransport() = default;
std::unique_ptr<Connection> SocketTransport::accept() { return nullptr; }
void SocketTransport::shutdown() {}

std::unique_ptr<Connection> dial(const Address& address, int) {
  throw DialError("cannot connect to " + address.canonical() +
                  ": sockets unavailable on this platform");
}

#endif

}  // namespace whisper::serve

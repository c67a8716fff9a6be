#include "http/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "util/error.hpp"

namespace wsc::http {

namespace {
[[noreturn]] void fail(const std::string& what) {
  throw TransportError(what + ": " + std::strerror(errno));
}

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

timeval to_timeval(std::chrono::milliseconds t) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(t.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((t.count() % 1000) * 1000);
  return tv;
}

void set_fd_nonblocking(int fd, bool on) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return;
  ::fcntl(fd, F_SETFL, on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK));
}
}  // namespace

std::size_t raise_fd_soft_limit() noexcept {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return 0;
  if (lim.rlim_cur < lim.rlim_max) {
    rlimit raised = lim;
    raised.rlim_cur = raised.rlim_max;
    if (::setrlimit(RLIMIT_NOFILE, &raised) == 0) lim = raised;
  }
  return static_cast<std::size_t>(lim.rlim_cur);
}

TcpStream::~TcpStream() { close(); }

TcpStream::TcpStream(TcpStream&& other) noexcept : fd_(other.fd_) {
  other.fd_ = -1;
}

TcpStream& TcpStream::operator=(TcpStream&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

TcpStream TcpStream::connect(const std::string& host, std::uint16_t port,
                             std::chrono::milliseconds timeout) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail("socket");
  sockaddr_in addr = loopback(port);
  if (host != "localhost" && host != "127.0.0.1") {
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      ::close(fd);
      throw TransportError("connect: unsupported host '" + host +
                               "' (IPv4 literals and localhost only)",
                           /*retryable=*/false);
    }
  }
  const std::string peer = host + ":" + std::to_string(port);
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (timeout.count() > 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (timeout.count() > 0 && errno == EINPROGRESS) {
      pollfd pfd{fd, POLLOUT, 0};
      int ready = ::poll(&pfd, 1, static_cast<int>(timeout.count()));
      if (ready == 0) {
        ::close(fd);
        throw TimeoutError("connect to " + peer + " timed out after " +
                           std::to_string(timeout.count()) + "ms");
      }
      int err = 0;
      socklen_t len = sizeof(err);
      if (ready < 0 ||
          ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
          err != 0) {
        if (err != 0) errno = err;
        int saved = errno;
        ::close(fd);
        errno = saved;
        fail("connect to " + peer);
      }
    } else {
      int saved = errno;
      ::close(fd);
      errno = saved;
      fail("connect to " + peer);
    }
  }
  if (timeout.count() > 0) ::fcntl(fd, F_SETFL, flags);  // back to blocking
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return TcpStream(fd);
}

TcpStream TcpStream::connect_begin(const std::string& host, std::uint16_t port,
                                   bool& in_progress) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail("socket");
  sockaddr_in addr = loopback(port);
  if (host != "localhost" && host != "127.0.0.1") {
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      ::close(fd);
      throw TransportError("connect: unsupported host '" + host +
                               "' (IPv4 literals and localhost only)",
                           /*retryable=*/false);
    }
  }
  set_fd_nonblocking(fd, true);
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  in_progress = false;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno == EINPROGRESS) {
      in_progress = true;
    } else {
      int saved = errno;
      ::close(fd);
      errno = saved;
      fail("connect to " + host + ":" + std::to_string(port));
    }
  }
  return TcpStream(fd);
}

void TcpStream::set_nonblocking(bool on) {
  if (valid()) set_fd_nonblocking(fd_, on);
}

int TcpStream::pending_error() noexcept {
  if (!valid()) return EBADF;
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len) != 0) return errno;
  return err;
}

IoResult TcpStream::try_read(char* buf, std::size_t buf_len) {
  if (!valid()) throw TransportError("read on closed socket");
  IoResult r;
  for (;;) {
    ssize_t n = ::recv(fd_, buf, buf_len, 0);
    if (n > 0) {
      r.bytes = static_cast<std::size_t>(n);
      return r;
    }
    if (n == 0) {
      r.closed = true;
      return r;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      r.would_block = true;
      return r;
    }
    if (errno == ECONNRESET) {
      r.closed = true;
      return r;
    }
    fail("recv");
  }
}

IoResult TcpStream::try_write(std::string_view data) {
  if (!valid()) throw TransportError("write on closed socket");
  IoResult r;
  while (r.bytes < data.size()) {
    ssize_t n = ::send(fd_, data.data() + r.bytes, data.size() - r.bytes,
                       MSG_NOSIGNAL);
    if (n > 0) {
      r.bytes += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      r.would_block = true;
      return r;
    }
    if (n < 0 && (errno == EPIPE || errno == ECONNRESET)) {
      r.closed = true;
      return r;
    }
    fail("send");
  }
  return r;
}

void TcpStream::set_read_timeout(std::chrono::milliseconds timeout) {
  if (!valid()) return;
  timeval tv = to_timeval(timeout);
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

void TcpStream::set_write_timeout(std::chrono::milliseconds timeout) {
  if (!valid()) return;
  timeval tv = to_timeval(timeout);
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

void TcpStream::write_all(std::string_view data) {
  if (!valid()) throw TransportError("write on closed socket");
  const char* p = data.data();
  std::size_t left = data.size();
  while (left > 0) {
    ssize_t n = ::send(fd_, p, left, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        throw TimeoutError("send timed out (write deadline expired)");
      fail("send");
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
}

std::size_t TcpStream::read_some(char* buf, std::size_t buf_len) {
  if (!valid()) throw TransportError("read on closed socket");
  for (;;) {
    ssize_t n = ::recv(fd_, buf, buf_len, 0);
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      throw TimeoutError("recv timed out (read deadline expired)");
    fail("recv");
  }
}

void TcpStream::shutdown_both() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void TcpStream::shutdown_write() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void TcpStream::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

TcpListener::TcpListener(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) fail("socket");
  int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = loopback(port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    fail("bind 127.0.0.1:" + std::to_string(port));
  }
  // Deep backlog: the load harness opens thousands of connections in
  // bursts; the kernel clamps to net.core.somaxconn.
  if (::listen(fd_, 4096) != 0) {
    int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    fail("listen");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    fail("getsockname");
  port_ = ntohs(addr.sin_port);
}

TcpListener::~TcpListener() { shutdown(); }

TcpStream TcpListener::accept() {
  for (;;) {
    int listener = fd_.load(std::memory_order_acquire);
    if (listener < 0) return TcpStream();  // shut down
    int client = ::accept(listener, nullptr, nullptr);
    if (client >= 0) {
      int one = 1;
      ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return TcpStream(client);
    }
    if (errno == EINTR) continue;
    if (errno == EBADF || errno == EINVAL) return TcpStream();  // shut down
    fail("accept");
  }
}

TcpListener::AcceptResult TcpListener::try_accept(TcpStream& out) {
  for (;;) {
    int listener = fd_.load(std::memory_order_acquire);
    if (listener < 0) return AcceptResult::Closed;
    int client = ::accept(listener, nullptr, nullptr);
    if (client >= 0) {
      int one = 1;
      ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      set_fd_nonblocking(client, true);
      out = TcpStream(client);
      return AcceptResult::Accepted;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return AcceptResult::WouldBlock;
    if (errno == EBADF || errno == EINVAL) return AcceptResult::Closed;
    // Per-connection failures (ECONNABORTED, EMFILE under pressure...):
    // skip this connection attempt rather than killing the acceptor.
    return AcceptResult::WouldBlock;
  }
}

void TcpListener::set_nonblocking(bool on) {
  int listener = fd_.load(std::memory_order_acquire);
  if (listener >= 0) set_fd_nonblocking(listener, on);
}

void TcpListener::shutdown() noexcept {
  // Claim the fd atomically so a concurrent accept() never observes a
  // half-closed descriptor; ::shutdown() then wakes any blocked accept.
  int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

}  // namespace wsc::http

// Thin RAII layer over POSIX TCP sockets (loopback usage).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

namespace wsc::http {

/// Result of one nonblocking read/write attempt.
struct IoResult {
  std::size_t bytes = 0;     // transferred this call
  bool would_block = false;  // EAGAIN/EWOULDBLOCK — retry on readiness
  bool closed = false;       // orderly shutdown (read) / EPIPE-class (write)
};

/// Raise the process soft RLIMIT_NOFILE to the hard limit (10k-connection
/// runs need ~2 fds per loopback connection).  Returns the resulting soft
/// limit; never throws.
std::size_t raise_fd_soft_limit() noexcept;

/// Connected stream socket.  Move-only RAII over the fd.
class TcpStream {
 public:
  TcpStream() = default;
  explicit TcpStream(int fd) : fd_(fd) {}
  ~TcpStream();

  TcpStream(TcpStream&& other) noexcept;
  TcpStream& operator=(TcpStream&& other) noexcept;
  TcpStream(const TcpStream&) = delete;
  TcpStream& operator=(const TcpStream&) = delete;

  /// Connect to host:port; throws wsc::TransportError.  With a nonzero
  /// `timeout` the connect is attempted non-blocking and throws
  /// wsc::TimeoutError if the handshake does not complete in time (zero =
  /// block on the OS default, which can be minutes).
  static TcpStream connect(const std::string& host, std::uint16_t port,
                           std::chrono::milliseconds timeout =
                               std::chrono::milliseconds(0));

  /// Begin a nonblocking connect (for event-loop clients): returns a
  /// nonblocking socket with the handshake possibly still in flight
  /// (`in_progress` true — wait for writability, then check
  /// pending_error()).  Throws wsc::TransportError on immediate failure.
  static TcpStream connect_begin(const std::string& host, std::uint16_t port,
                                 bool& in_progress);

  bool valid() const noexcept { return fd_ >= 0; }

  /// O_NONBLOCK on/off; reactor sockets live in nonblocking mode.
  void set_nonblocking(bool on);

  /// Consume and return SO_ERROR (0 = none) — completes a nonblocking
  /// connect after the socket turns writable.
  int pending_error() noexcept;

  /// One nonblocking recv(): never blocks, never throws on EAGAIN/orderly
  /// close (reported via IoResult); throws wsc::TransportError on hard
  /// errors (ECONNRESET...).
  IoResult try_read(char* buf, std::size_t buf_len);

  /// One nonblocking send() of as much of `data` as the kernel accepts.
  /// Connection-gone errors (EPIPE/ECONNRESET) report closed rather than
  /// throwing — on an event loop a vanished peer is routine, not
  /// exceptional.
  IoResult try_write(std::string_view data);

  /// Bound the time a single recv()/send() may block (SO_RCVTIMEO /
  /// SO_SNDTIMEO).  Zero restores fully blocking behaviour.  Once armed,
  /// read_some()/write_all() throw wsc::TimeoutError on expiry instead of
  /// hanging on a stalled peer.
  void set_read_timeout(std::chrono::milliseconds timeout);
  void set_write_timeout(std::chrono::milliseconds timeout);

  /// Write all bytes; throws TransportError on failure.
  void write_all(std::string_view data);

  /// Read up to buf_len bytes; returns 0 on orderly shutdown; throws on
  /// error (wsc::TimeoutError if a read timeout is armed and expires).
  std::size_t read_some(char* buf, std::size_t buf_len);

  void close() noexcept;

  /// Half-close both directions without releasing the fd: unblocks a peer
  /// (or our own thread) sleeping in recv().  Safe to call from another
  /// thread while the owner is blocked on this socket.
  void shutdown_both() noexcept;

  /// Half-close the write side only (lingering close: the peer still gets
  /// our final response before we drain and drop the connection).
  void shutdown_write() noexcept;

  /// Raw descriptor (for connection registries); -1 when closed.
  int fd() const noexcept { return fd_; }

 private:
  int fd_ = -1;
};

/// Listening socket bound to 127.0.0.1.
class TcpListener {
 public:
  /// Bind/listen on loopback; port 0 picks a free port.  Throws
  /// TransportError.
  explicit TcpListener(std::uint16_t port);
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  std::uint16_t port() const noexcept { return port_; }

  /// Accept the next connection.  Returns an invalid stream if the listener
  /// was shut down.  Throws TransportError on other failures.
  TcpStream accept();

  enum class AcceptResult { Accepted, WouldBlock, Closed };

  /// Nonblocking accept for event loops; the listener must be in
  /// nonblocking mode (set_nonblocking(true)).  Per-connection transient
  /// errors (ECONNABORTED...) are treated as WouldBlock.
  AcceptResult try_accept(TcpStream& out);

  /// O_NONBLOCK on the listening socket.
  void set_nonblocking(bool on);

  /// Raw descriptor for epoll registration; -1 after shutdown().
  int fd() const noexcept { return fd_.load(std::memory_order_acquire); }

  /// Unblock pending accept() calls and stop accepting.  Safe to call from
  /// another thread while accept() is blocked (the fd handoff is atomic).
  void shutdown() noexcept;

 private:
  std::atomic<int> fd_{-1};
  std::uint16_t port_ = 0;
};

}  // namespace wsc::http

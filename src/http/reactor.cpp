#include "http/reactor.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "obs/events.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace wsc::http {

namespace {

// epoll user-data ids below this range are reserved for the listener, the
// stop eventfd and the reap timer; connection ids start above it and are
// never reused, so a stale event finds nothing.
constexpr std::uint64_t kListenerId = 0;
constexpr std::uint64_t kStopId = 1;
constexpr std::uint64_t kTimerId = 2;
constexpr int kAcceptBatch = 256;
constexpr std::size_t kReadChunk = 16 * 1024;
constexpr std::uint64_t kDrainDeadlineNs = 500'000'000;  // lingering close

}  // namespace

struct EpollReactor::Conn {
  enum class Claim : std::uint8_t { Idle, Busy, Closing };
  enum class Phase : std::uint8_t { Reading, Writing, Draining };

  std::uint64_t id = 0;
  TcpStream stream;
  /// Idle: parked in epoll; Busy: one thread owns every field below;
  /// Closing: the reaper took it.
  std::atomic<Claim> claim{Claim::Idle};

  Phase phase = Phase::Reading;
  RequestParser parser;
  std::string pending;  // bytes past the current message (pipelining)
  std::string outbuf;
  std::size_t out_off = 0;
  std::uint64_t started_ns = 0;  // handler start: request_ns counts from it
  bool close_after_write = false;
  bool drain_before_close = false;  // lingering close for 4xx rejections

  // Guarded by mu_: an event arrived after the owner re-armed but before
  // it released the claim, so the owner keeps the connection.
  bool woken = false;

  // Idle list links (oldest deadline at head), guarded by mu_.
  std::uint64_t idle_deadline_ns = 0;
  Conn* idle_prev = nullptr;
  Conn* idle_next = nullptr;
  bool in_idle = false;
};

EpollReactor::EpollReactor(std::uint16_t port, Handler handler,
                           ServerOptions options, ServerStats& stats)
    : options_(std::move(options)),
      handler_(std::move(handler)),
      stats_(stats),
      listener_(port) {
  if (options_.worker_threads == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    options_.worker_threads = 2 * (hw ? hw : 2);
  }
}

EpollReactor::~EpollReactor() { stop(); }

void EpollReactor::start() {
  if (running_.exchange(true)) return;
  stopping_.store(false);
  accept_paused_.store(false);
  listener_.set_nonblocking(true);
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  stop_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_CLOEXEC | TFD_NONBLOCK);
  if (epoll_fd_ < 0 || stop_fd_ < 0 || timer_fd_ < 0)
    throw TransportError(std::string("reactor setup: ") +
                         std::strerror(errno));
  // The stop eventfd is level-triggered and never drained, so once it is
  // readable every thread's epoll_wait returns it.
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kStopId;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, stop_fd_, &ev);
  ev.events = EPOLLIN | EPOLLONESHOT;
  ev.data.u64 = kTimerId;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &ev);
  ev.data.u64 = kListenerId;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listener_.fd(), &ev);
  stats_.worker_threads.store(options_.worker_threads,
                              std::memory_order_relaxed);
  for (std::size_t i = 0; i < options_.worker_threads; ++i)
    threads_.emplace_back([this] { worker_main(); });
}

void EpollReactor::stop() {
  if (!running_.exchange(false)) return;
  // No new connections; requests read from here on are answered with
  // Connection: close.  The listener leaves the set now but is closed
  // only after the join, so no thread re-arms a closed descriptor.
  stopping_.store(true, std::memory_order_release);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listener_.fd(), nullptr);
  // Each thread finishes the connection it is serving, so in-flight
  // responses reach the wire, then takes the stop event and exits.
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(stop_fd_, &one, sizeof(one));
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  listener_.shutdown();
  // Single-threaded from here: close every connection still open.
  for (auto& [id, conn] : conns_) idle_unlink(*conn);
  const std::uint64_t left = conns_.size();
  conns_.clear();
  stats_.connections_closed.fetch_add(left, std::memory_order_relaxed);
  stats_.connections_active.fetch_sub(left);
  ::close(epoll_fd_);
  ::close(stop_fd_);
  ::close(timer_fd_);
  epoll_fd_ = stop_fd_ = timer_fd_ = -1;
  stats_.worker_threads.store(0, std::memory_order_relaxed);
}

void EpollReactor::worker_main() {
  for (;;) {
    // One event per wait: a thread blocked in a handler holds no other
    // connection's event.
    epoll_event ev{};
    const int n = ::epoll_wait(epoll_fd_, &ev, 1, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      util::log(util::LogLevel::Warn, "epoll_wait failed: ",
                std::strerror(errno));
      return;
    }
    if (n == 0) continue;
    const std::uint64_t id = ev.data.u64;
    if (id == kStopId) return;
    if (id == kListenerId) {
      accept_batch();
    } else if (id == kTimerId) {
      std::uint64_t ticks = 0;
      [[maybe_unused]] ssize_t r = ::read(timer_fd_, &ticks, sizeof(ticks));
      reap_idle();
      rearm(timer_fd_, kTimerId, EPOLLIN);
    } else if (Conn* conn = claim(id)) {
      if (ev.events & (EPOLLHUP | EPOLLERR))
        close_conn(*conn);
      else
        serve(*conn);
    }
  }
}

void EpollReactor::rearm(int fd, std::uint64_t id, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events | EPOLLONESHOT;
  ev.data.u64 = id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
}

void EpollReactor::accept_batch() {
  for (int i = 0; i < kAcceptBatch; ++i) {
    if (stopping_.load(std::memory_order_acquire)) return;
    if (stats_.connections_active.load() >= options_.max_connections) {
      pause_accepting();  // the listener stays disarmed
      return;
    }
    TcpStream stream;
    if (listener_.try_accept(stream) != TcpListener::AcceptResult::Accepted)
      break;  // backlog drained
    add_conn(std::move(stream));
  }
  rearm(listener_.fd(), kListenerId, EPOLLIN);
}

void EpollReactor::pause_accepting() {
  accept_paused_.store(true);
  stats_.accept_pauses.fetch_add(1, std::memory_order_relaxed);
  obs::event_log().emit(
      obs::EventKind::AcceptPause, "http.server",
      "accept paused (backpressure)",
      stats_.connections_active.load(std::memory_order_relaxed));
  // A connection that closed since the capacity check saw no pause to lift.
  maybe_resume_accepting();
}

// Called after every close.  The paused flag and the active count are
// sequentially consistent, so either the closer or the pauser sees the
// other; the exchange lets exactly one of them re-arm the listener.
void EpollReactor::maybe_resume_accepting() {
  if (!accept_paused_.load()) return;
  // Below 90% of the cap, without integer truncation: max * 9 / 10 is 0
  // for a cap of 1 (never resumes) and 1 for a cap of 2 (waits for both).
  if (stats_.connections_active.load() * 10 >= options_.max_connections * 9)
    return;
  if (accept_paused_.exchange(false))
    rearm(listener_.fd(), kListenerId, EPOLLIN);
}

void EpollReactor::add_conn(TcpStream stream) {
  auto conn = std::make_unique<Conn>();
  conn->stream = std::move(stream);
  conn->parser.set_limits(options_.limits);
  const std::uint64_t now = server_now_ns();
  std::lock_guard lock(mu_);
  conn->id = next_conn_id_++;
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLONESHOT;
  ev.data.u64 = conn->id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn->stream.fd(), &ev) != 0)
    return;  // fd is closed by the TcpStream destructor
  // A thread the ADD wakes waits on mu_ until the map holds the entry.
  Conn& raw = *conn;
  conns_.emplace(raw.id, std::move(conn));
  idle_link(raw, now);
  stats_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
  stats_.connections_active.fetch_add(1);
}

EpollReactor::Conn* EpollReactor::claim(std::uint64_t id) {
  std::lock_guard lock(mu_);
  auto it = conns_.find(id);
  if (it == conns_.end()) return nullptr;  // reaped or closed meanwhile
  Conn& conn = *it->second;
  // Acquire pairs with park()'s release: the previous owner's writes to
  // the connection happen before this thread reads them.
  auto idle = Conn::Claim::Idle;
  if (!conn.claim.compare_exchange_strong(idle, Conn::Claim::Busy,
                                          std::memory_order_acquire)) {
    // Busy: the owner re-armed and has not released yet; it goes on.
    if (idle == Conn::Claim::Busy) conn.woken = true;
    return nullptr;
  }
  idle_unlink(conn);
  return &conn;
}

// Owns the connection until it is parked or closed; either way `conn`
// belongs to someone else on return.  A size-cap or framing error answers
// with a rejection and goes round again to write it.
void EpollReactor::serve(Conn& conn) {
  std::uint64_t now = 0;  // last clock reading; dates the idle deadline
  for (;;) {
    std::uint32_t events = 0;
    try {
      events = advance(conn, now);
    } catch (const HeaderLimitError&) {
      stats_.limit_rejected.fetch_add(1, std::memory_order_relaxed);
      reject(conn, 431, "request header fields too large");
      continue;
    } catch (const BodyLimitError&) {
      stats_.limit_rejected.fetch_add(1, std::memory_order_relaxed);
      reject(conn, 413, "request body too large");
      continue;
    } catch (const ParseError& e) {
      stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      util::log(util::LogLevel::Debug, "protocol error: ", e.what());
      reject(conn, 400, "malformed request");
      continue;
    } catch (const std::exception& e) {
      // I/O errors, and bad_alloc / length_error from hostile inputs: drop
      // the connection, never the process.
      stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      util::log(util::LogLevel::Warn, "connection error: ", e.what());
      return close_conn(conn);
    } catch (...) {
      stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      return close_conn(conn);
    }
    if (events == 0 || park(conn, events, now)) return;
  }
}

// Reads, answers and writes until the connection would block, and returns
// the epoll interest to wait for; 0 once it is closed.
std::uint32_t EpollReactor::advance(Conn& conn, std::uint64_t& now) {
  char buf[kReadChunk];
  for (;;) {
    if (conn.phase == Conn::Phase::Writing) {
      const IoResult r = conn.stream.try_write(
          std::string_view(conn.outbuf).substr(conn.out_off));
      stats_.bytes_out.fetch_add(r.bytes, std::memory_order_relaxed);
      conn.out_off += r.bytes;
      if (r.closed) return close_conn(conn), 0;
      if (r.would_block) return EPOLLOUT;
      now = server_now_ns();
      if (!conn.drain_before_close)
        stats_.request_ns.fetch_add(now - conn.started_ns,
                                    std::memory_order_relaxed);
      conn.outbuf.clear();
      conn.out_off = 0;
      if (!conn.close_after_write) {
        conn.phase = Conn::Phase::Reading;
        // No speculative read: the re-arm reports bytes already queued.
        if (conn.pending.empty()) return EPOLLIN;
      } else if (conn.drain_before_close) {
        conn.stream.shutdown_write();
        conn.phase = Conn::Phase::Draining;
      } else {
        return close_conn(conn), 0;
      }
    }
    if (conn.phase == Conn::Phase::Draining) {
      // Lingering close: discard input until the peer finishes or the
      // drain deadline reaps us.
      const IoResult r = conn.stream.try_read(buf, sizeof(buf));
      if (r.would_block) return EPOLLIN;
      if (r.closed) return close_conn(conn), 0;
      continue;
    }
    // Reading: pipelined bytes first, then the socket.
    if (!conn.pending.empty()) {
      const std::size_t used = conn.parser.feed(conn.pending);
      conn.pending.erase(0, used);
    }
    if (!conn.parser.complete()) {
      const IoResult r = conn.stream.try_read(buf, sizeof(buf));
      if (r.would_block) return EPOLLIN;
      if (r.closed) return close_conn(conn), 0;
      stats_.bytes_in.fetch_add(r.bytes, std::memory_order_relaxed);
      const std::size_t used =
          conn.parser.feed(std::string_view(buf, r.bytes));
      if (used < r.bytes) conn.pending.append(buf + used, r.bytes - used);
    }
    if (conn.parser.complete()) respond(conn);
  }
}

// No write cap is needed: a connection stops reading while its response
// is being written, so it holds at most one response, and a peer that
// stops reading mid-write is closed by the idle timeout like any idle one.
void EpollReactor::respond(Conn& conn) {
  Request request = conn.parser.take();
  stats_.requests.fetch_add(1, std::memory_order_relaxed);
  bool keep = request_keep_alive(request);
  if (stopping_.load(std::memory_order_acquire)) keep = false;
  conn.outbuf =
      run_handler(handler_, request, keep, stats_, conn.started_ns).to_bytes();
  conn.out_off = 0;
  conn.close_after_write = !keep;
  conn.phase = Conn::Phase::Writing;
  stats_.responses.fetch_add(1, std::memory_order_relaxed);
}

void EpollReactor::reject(Conn& conn, int status, const char* body) {
  Response response;
  response.status = status;
  response.headers.set("Content-Type", "text/plain");
  response.headers.set("Connection", "close");
  response.body = body;
  conn.outbuf = response.to_bytes();
  conn.out_off = 0;
  conn.pending.clear();
  conn.close_after_write = true;
  conn.drain_before_close = true;  // let the rejection reach the peer
  conn.phase = Conn::Phase::Writing;
  stats_.responses.fetch_add(1, std::memory_order_relaxed);
}

// Re-arms while still Busy, which the reaper leaves alone, so the fd cannot
// be closed (and its number reused) under the re-arm; then releases.
// Returns false when an event arrived in between: the caller keeps going.
bool EpollReactor::park(Conn& conn, std::uint32_t events, std::uint64_t now) {
  if (now == 0) now = server_now_ns();
  rearm(conn.stream.fd(), conn.id, events);
  std::lock_guard lock(mu_);
  if (conn.woken) {
    conn.woken = false;
    return false;
  }
  idle_link(conn, now);
  conn.claim.store(Conn::Claim::Idle, std::memory_order_release);
  return true;
}

void EpollReactor::close_conn(Conn& conn) {
  std::unique_ptr<Conn> owned;
  {
    std::lock_guard lock(mu_);
    auto it = conns_.find(conn.id);
    owned = std::move(it->second);
    conns_.erase(it);
  }
  // Counted before the close, so a peer that sees EOF sees the counts.
  stats_.connections_closed.fetch_add(1, std::memory_order_relaxed);
  stats_.connections_active.fetch_sub(1);
  owned.reset();  // close() also removes the fd from the epoll set
  maybe_resume_accepting();
}

void EpollReactor::reap_idle() {
  const std::uint64_t now = server_now_ns();
  std::vector<std::unique_ptr<Conn>> doomed;
  std::uint64_t reaped = 0;
  {
    std::lock_guard lock(mu_);
    while (idle_head_ && idle_head_->idle_deadline_ns <= now) {
      Conn& conn = *idle_head_;
      idle_unlink(conn);
      auto idle = Conn::Claim::Idle;
      if (!conn.claim.compare_exchange_strong(idle, Conn::Claim::Closing,
                                              std::memory_order_acquire))
        continue;  // a woken thread owns it
      if (conn.phase != Conn::Phase::Draining) ++reaped;
      auto it = conns_.find(conn.id);
      doomed.push_back(std::move(it->second));
      conns_.erase(it);
    }
    arm_reap_timer();
  }
  if (doomed.empty()) return;
  stats_.connections_closed.fetch_add(doomed.size(),
                                      std::memory_order_relaxed);
  stats_.connections_active.fetch_sub(doomed.size());
  stats_.idle_reaped.fetch_add(reaped, std::memory_order_relaxed);
  doomed.clear();
  if (reaped > 0)
    obs::event_log().emit(obs::EventKind::IdleReap, "http.server",
                          "idle keep-alive connections reaped", reaped);
  maybe_resume_accepting();
}

void EpollReactor::idle_link(Conn& conn, std::uint64_t now) {
  const std::uint64_t timeout_ns =
      conn.phase == Conn::Phase::Draining
          ? kDrainDeadlineNs
          : static_cast<std::uint64_t>(options_.idle_timeout.count()) *
                1'000'000ull;
  if (timeout_ns == 0) return;
  conn.idle_deadline_ns = now + timeout_ns;
  conn.idle_prev = idle_tail_;
  conn.idle_next = nullptr;
  if (idle_tail_)
    idle_tail_->idle_next = &conn;
  else
    idle_head_ = &conn;
  idle_tail_ = &conn;
  conn.in_idle = true;
  stats_.connections_idle.fetch_add(1, std::memory_order_relaxed);
  // While the list is non-empty the timer stays armed; an unlinked head
  // costs at most one early wake-up, which re-arms for the new head.
  if (idle_head_ == &conn) arm_reap_timer();
}

void EpollReactor::idle_unlink(Conn& conn) {
  if (!conn.in_idle) return;
  if (conn.idle_prev)
    conn.idle_prev->idle_next = conn.idle_next;
  else
    idle_head_ = conn.idle_next;
  if (conn.idle_next)
    conn.idle_next->idle_prev = conn.idle_prev;
  else
    idle_tail_ = conn.idle_prev;
  conn.idle_prev = conn.idle_next = nullptr;
  conn.in_idle = false;
  stats_.connections_idle.fetch_sub(1, std::memory_order_relaxed);
}

// Fires at the head's deadline (CLOCK_MONOTONIC is steady_clock's base);
// an empty list disarms it.
void EpollReactor::arm_reap_timer() {
  itimerspec spec{};
  if (idle_head_) {
    spec.it_value.tv_sec =
        static_cast<time_t>(idle_head_->idle_deadline_ns / 1'000'000'000);
    spec.it_value.tv_nsec =
        static_cast<long>(idle_head_->idle_deadline_ns % 1'000'000'000);
  }
  ::timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &spec, nullptr);
}

}  // namespace wsc::http

#include "http/reactor.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "obs/events.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace wsc::http {

namespace {

// epoll user-data ids below this range are reserved for the listener and
// the wakeup eventfd; connection ids start above it.
constexpr std::uint64_t kListenerId = 0;
constexpr std::uint64_t kWakeId = 1;
constexpr int kAcceptBatch = 256;
constexpr int kEpollWaitMs = 25;
constexpr std::size_t kReadChunk = 16 * 1024;
constexpr std::uint64_t kDrainDeadlineNs = 500'000'000;  // lingering close

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

// Owned by the loop thread.
struct EpollReactor::Conn {
  std::uint64_t id = 0;
  TcpStream stream;
  RequestParser parser;
  std::string pending;  // bytes past the current message (pipelining)
  std::string outbuf;
  std::size_t out_off = 0;

  enum class State { Reading, Dispatched, Writing, Draining };
  State state = State::Reading;
  bool close_after_write = false;
  bool drain_before_close = false;  // lingering close for 4xx rejections
  std::uint32_t events = 0;         // currently armed epoll interest

  // Intrusive idle list (oldest deadline at head).
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
  dispatch_cap_ = 64 * options_.worker_threads;
}

EpollReactor::~EpollReactor() { stop(); }

void EpollReactor::start() {
  if (running_.exchange(true)) return;
  stopping_.store(false);
  listener_.set_nonblocking(true);
  pool_ = std::make_unique<util::ThreadPool>(options_.worker_threads);
  stats_.worker_threads.store(options_.worker_threads,
                              std::memory_order_relaxed);
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (epoll_fd_ < 0 || wake_fd_ < 0)
    throw TransportError(std::string("reactor setup: ") +
                         std::strerror(errno));
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeId;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  ev.data.u64 = kListenerId;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listener_.fd(), &ev);
  thread_ = std::thread([this] { loop_main(); });
}

void EpollReactor::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  // Phase 1: no new connections or dispatches; requests parsed from here
  // on are answered with Connection: close.
  stopping_.store(true, std::memory_order_release);
  listener_.shutdown();
  // Phase 2: drain in-flight handlers while the loop still runs, so their
  // responses reach the wire.
  pool_->shutdown();
  // Phase 3: bring the loop down; it closes every remaining connection.
  running_.store(false, std::memory_order_release);
  wake();
  if (thread_.joinable()) thread_.join();
  ::close(epoll_fd_);
  ::close(wake_fd_);
  epoll_fd_ = wake_fd_ = -1;
  pool_.reset();
  stats_.worker_threads.store(0, std::memory_order_relaxed);
  stats_.dispatch_depth.store(0, std::memory_order_relaxed);
}

void EpollReactor::loop_main() {
  epoll_event events[256];
  while (running_.load(std::memory_order_acquire)) {
    int n = ::epoll_wait(epoll_fd_, events, 256, kEpollWaitMs);
    if (n < 0) {
      if (errno == EINTR) continue;
      util::log(util::LogLevel::Warn, "epoll_wait failed: ",
                std::strerror(errno));
      break;
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t id = events[i].data.u64;
      if (id == kListenerId) {
        accept_batch();
        continue;
      }
      if (id == kWakeId) {
        std::uint64_t drain = 0;
        while (::read(wake_fd_, &drain, sizeof(drain)) > 0) {
        }
        process_mailbox();
        continue;
      }
      Conn* conn = find_conn(id);
      if (!conn) continue;  // closed earlier this batch
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        close_conn(*conn);
        continue;
      }
      bool alive = true;
      if ((events[i].events & EPOLLOUT) && conn->state == Conn::State::Writing)
        alive = flush(*conn);
      if (alive && (events[i].events & EPOLLIN)) {
        // flush() may have re-entered Reading with pipelined bytes already
        // handled; handle_readable is a no-op for non-reading states.
        conn = find_conn(id);
        if (conn) handle_readable(*conn);
      }
    }
    process_mailbox();
    reap_idle(now_ns());
    maybe_resume_accepting();
  }
  // Shutdown: close every connection still open.
  for (auto& [id, conn] : conns_) {
    idle_unlink(*conn);
    stats_.connections_closed.fetch_add(1, std::memory_order_relaxed);
    stats_.connections_active.fetch_sub(1, std::memory_order_relaxed);
  }
  conns_.clear();
}

void EpollReactor::process_mailbox() {
  std::vector<Completion> completions;
  {
    std::lock_guard lock(mail_mu_);
    completions.swap(completions_);
  }
  for (Completion& c : completions) {
    stats_.dispatch_depth.fetch_sub(1, std::memory_order_relaxed);
    Conn* conn = find_conn(c.conn_id);
    if (!conn) continue;  // connection died while the handler ran
    if (apply_completion(*conn, std::move(c.bytes), c.close_after)) {
      // Fully flushed and back to Reading: consume pipelined bytes.
      Conn* again = find_conn(c.conn_id);
      if (again && again->state == Conn::State::Reading)
        handle_readable(*again);
    }
  }
}

void EpollReactor::accept_batch() {
  for (int i = 0; i < kAcceptBatch; ++i) {
    if (over_pressure()) {
      pause_accepting();
      return;
    }
    TcpStream stream;
    if (listener_.try_accept(stream) != TcpListener::AcceptResult::Accepted)
      return;  // backlog drained, or the listener was shut down
    add_conn(std::move(stream));
  }
}

bool EpollReactor::over_pressure() const {
  if (stats_.connections_active.load(std::memory_order_relaxed) >=
      options_.max_connections)
    return true;
  return stats_.dispatch_depth.load(std::memory_order_relaxed) >
         dispatch_cap_;
}

void EpollReactor::pause_accepting() {
  if (accept_paused_) return;
  accept_paused_ = true;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listener_.fd(), nullptr);
  stats_.accept_pauses.fetch_add(1, std::memory_order_relaxed);
  obs::event_log().emit(
      obs::EventKind::AcceptPause, "http.server",
      "accept paused (backpressure)",
      stats_.connections_active.load(std::memory_order_relaxed));
}

void EpollReactor::maybe_resume_accepting() {
  if (!accept_paused_) return;
  const std::uint64_t active =
      stats_.connections_active.load(std::memory_order_relaxed);
  if (active >= options_.max_connections * 9 / 10) return;
  if (stats_.dispatch_depth.load(std::memory_order_relaxed) >
      dispatch_cap_ / 2)
    return;
  int fd = listener_.fd();
  if (fd < 0) return;  // shut down
  epoll_event lev{};
  lev.events = EPOLLIN;
  lev.data.u64 = kListenerId;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &lev) == 0)
    accept_paused_ = false;
}

EpollReactor::Conn* EpollReactor::find_conn(std::uint64_t id) {
  auto it = conns_.find(id);
  return it == conns_.end() ? nullptr : it->second.get();
}

void EpollReactor::add_conn(TcpStream stream) {
  auto conn = std::make_unique<Conn>();
  conn->id = next_conn_id_++;
  conn->stream = std::move(stream);
  conn->parser.set_limits(options_.limits);
  Conn* raw = conn.get();
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = raw->id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, raw->stream.fd(), &ev) != 0) {
    return;  // fd is closed by the TcpStream destructor
  }
  raw->events = EPOLLIN;
  conns_.emplace(raw->id, std::move(conn));
  stats_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
  stats_.connections_active.fetch_add(1, std::memory_order_relaxed);
  idle_touch(*raw);
}

void EpollReactor::close_conn(Conn& conn, bool reaped_idle) {
  idle_unlink(conn);
  stats_.connections_closed.fetch_add(1, std::memory_order_relaxed);
  stats_.connections_active.fetch_sub(1, std::memory_order_relaxed);
  if (reaped_idle) stats_.idle_reaped.fetch_add(1, std::memory_order_relaxed);
  // close() removes the fd from every epoll set automatically.
  conns_.erase(conn.id);
}

void EpollReactor::update_interest(Conn& conn, bool want_read,
                                   bool want_write) {
  const std::uint32_t events =
      (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  if (events == conn.events) return;
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = conn.id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.stream.fd(), &ev);
  conn.events = events;
}

bool EpollReactor::handle_readable(Conn& conn) {
  char buf[kReadChunk];
  try {
    for (;;) {
      if (conn.state == Conn::State::Draining) {
        // Lingering close: discard input until the peer finishes or the
        // drain deadline reaps us.
        for (;;) {
          IoResult r = conn.stream.try_read(buf, sizeof(buf));
          if (r.would_block) return true;
          if (r.closed) {
            close_conn(conn);
            return false;
          }
        }
      }
      if (conn.state != Conn::State::Reading) return true;
      if (!conn.pending.empty() && !conn.parser.complete()) {
        std::size_t used = conn.parser.feed(conn.pending);
        conn.pending.erase(0, used);
        if (conn.parser.complete()) {
          if (!on_request(conn)) return false;
          continue;
        }
      }
      IoResult r = conn.stream.try_read(buf, sizeof(buf));
      if (r.would_block) {
        idle_touch(conn);
        return true;
      }
      if (r.closed) {
        close_conn(conn);
        return false;
      }
      stats_.bytes_in.fetch_add(r.bytes, std::memory_order_relaxed);
      std::size_t used = conn.parser.feed(std::string_view(buf, r.bytes));
      if (used < r.bytes) conn.pending.append(buf + used, r.bytes - used);
      if (conn.parser.complete()) {
        if (!on_request(conn)) return false;
      }
    }
  } catch (const HeaderLimitError&) {
    stats_.limit_rejected.fetch_add(1, std::memory_order_relaxed);
    return respond_direct(conn, 431, "request header fields too large");
  } catch (const BodyLimitError&) {
    stats_.limit_rejected.fetch_add(1, std::memory_order_relaxed);
    return respond_direct(conn, 413, "request body too large");
  } catch (const ParseError& e) {
    stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    util::log(util::LogLevel::Debug, "protocol error: ", e.what());
    return respond_direct(conn, 400, "malformed request");
  } catch (const std::exception& e) {
    // bad_alloc / length_error from hostile inputs: drop the connection,
    // never the process.
    stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    util::log(util::LogLevel::Warn, "connection error: ", e.what());
    close_conn(conn);
    return false;
  } catch (...) {
    stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    close_conn(conn);
    return false;
  }
}

bool EpollReactor::on_request(Conn& conn) {
  Request request = conn.parser.take();
  stats_.requests.fetch_add(1, std::memory_order_relaxed);
  bool keep = request_keep_alive(request);
  if (stopping_.load(std::memory_order_acquire)) keep = false;
  conn.state = Conn::State::Dispatched;
  idle_unlink(conn);
  update_interest(conn, /*want_read=*/false, /*want_write=*/false);
  stats_.dispatch_depth.fetch_add(1, std::memory_order_relaxed);
  try {
    // Workers touch no loop or connection state: they run the handler and
    // post the serialized response back through the mailbox.
    pool_->submit([this, id = conn.id, req = std::move(request), keep] {
      Response response = run_handler(handler_, req, keep, stats_);
      post_completion({id, response.to_bytes(), !keep});
    });
  } catch (const Error&) {
    // Pool already shut down (stop() racing a late request): just close.
    stats_.dispatch_depth.fetch_sub(1, std::memory_order_relaxed);
    close_conn(conn);
    return false;
  }
  return true;
}

void EpollReactor::post_completion(Completion completion) {
  {
    std::lock_guard lock(mail_mu_);
    completions_.push_back(std::move(completion));
  }
  wake();
}

void EpollReactor::wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

// No write cap is needed: a connection stops reading while its response
// is in flight, so it holds at most one response, and a peer that stops
// reading mid-write is closed by the idle timeout like any idle one.
bool EpollReactor::apply_completion(Conn& conn, std::string bytes,
                                    bool close_after) {
  conn.outbuf = std::move(bytes);
  conn.out_off = 0;
  conn.close_after_write = close_after;
  conn.state = Conn::State::Writing;
  stats_.responses.fetch_add(1, std::memory_order_relaxed);
  return flush(conn);
}

bool EpollReactor::flush(Conn& conn) {
  IoResult r = conn.stream.try_write(
      std::string_view(conn.outbuf).substr(conn.out_off));
  stats_.bytes_out.fetch_add(r.bytes, std::memory_order_relaxed);
  conn.out_off += r.bytes;
  if (r.closed) {
    close_conn(conn);
    return false;
  }
  if (r.would_block) {
    conn.state = Conn::State::Writing;
    update_interest(conn, /*want_read=*/false, /*want_write=*/true);
    idle_touch(conn);
    return true;
  }
  conn.outbuf.clear();
  conn.out_off = 0;
  if (conn.close_after_write) {
    if (conn.drain_before_close) {
      conn.stream.shutdown_write();
      conn.state = Conn::State::Draining;
      update_interest(conn, /*want_read=*/true, /*want_write=*/false);
      idle_touch(conn);
      return true;
    }
    close_conn(conn);
    return false;
  }
  conn.state = Conn::State::Reading;
  update_interest(conn, /*want_read=*/true, /*want_write=*/false);
  idle_touch(conn);
  return true;
}

bool EpollReactor::respond_direct(Conn& conn, int status,
                                  const std::string& body) {
  Response response;
  response.status = status;
  response.headers.set("Content-Type", "text/plain");
  response.headers.set("Connection", "close");
  response.body = body;
  conn.pending.clear();
  conn.drain_before_close = true;  // let the rejection reach the peer
  return apply_completion(conn, response.to_bytes(), /*close_after=*/true);
}

void EpollReactor::idle_touch(Conn& conn) {
  const std::uint64_t timeout_ns =
      conn.state == Conn::State::Draining
          ? kDrainDeadlineNs
          : static_cast<std::uint64_t>(options_.idle_timeout.count()) *
                1'000'000ull;
  idle_unlink(conn);
  if (timeout_ns == 0) return;
  conn.idle_deadline_ns = now_ns() + timeout_ns;
  conn.idle_prev = idle_tail_;
  conn.idle_next = nullptr;
  if (idle_tail_)
    idle_tail_->idle_next = &conn;
  else
    idle_head_ = &conn;
  idle_tail_ = &conn;
  conn.in_idle = true;
  stats_.connections_idle.fetch_add(1, std::memory_order_relaxed);
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

void EpollReactor::reap_idle(std::uint64_t now) {
  std::uint64_t reaped = 0;
  while (idle_head_ && idle_head_->idle_deadline_ns <= now) {
    Conn* conn = idle_head_;
    const bool draining = conn->state == Conn::State::Draining;
    close_conn(*conn, /*reaped_idle=*/!draining);
    if (!draining) ++reaped;
  }
  if (reaped > 0)
    obs::event_log().emit(obs::EventKind::IdleReap, "http.server",
                          "idle keep-alive connections reaped", reaped);
}

}  // namespace wsc::http

#include "open_loop.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string_view>

#include "common.hpp"
#include "util/error.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kTimerTag = UINT64_MAX;
/// How long answers still owed may take once the schedule has ended.
constexpr std::uint64_t kDrainNs = 5'000'000'000ull;

[[noreturn]] void fail_errno(const char* what) {
  throw std::runtime_error(std::string("open loop: ") + what + ": " +
                           std::strerror(errno));
}

}  // namespace

OpenLoop::OpenLoop(std::uint16_t port, std::size_t connections)
    : conns_(connections) {
  try {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) fail_errno("epoll_create1");
    timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
    if (timer_fd_ < 0) fail_errno("timerfd_create");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kTimerTag;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &ev) != 0)
      fail_errno("epoll_ctl(timer)");

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      Conn& c = conns_[i];
      c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (c.fd < 0) fail_errno("socket");
      if (::connect(c.fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof addr) != 0)
        fail_errno("connect");
      const int one = 1;
      ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
      ev.events = EPOLLIN;
      ev.data.u64 = i;
      if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, c.fd, &ev) != 0)
        fail_errno("epoll_ctl(conn)");
    }
  } catch (...) {
    for (Conn& c : conns_)
      if (c.fd >= 0) ::close(c.fd);
    if (timer_fd_ >= 0) ::close(timer_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    throw;
  }
}

OpenLoop::~OpenLoop() {
  for (Conn& c : conns_)
    if (c.fd >= 0) ::close(c.fd);
  ::close(timer_fd_);
  ::close(epoll_fd_);
}

void OpenLoop::arm_timer(std::uint64_t at_ns) {
  itimerspec spec{};
  spec.it_value.tv_sec = static_cast<time_t>(at_ns / 1'000'000'000ull);
  spec.it_value.tv_nsec = static_cast<long>(at_ns % 1'000'000'000ull);
  if (::timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &spec, nullptr) != 0)
    fail_errno("timerfd_settime");
}

OpenLoopResult OpenLoop::run(double rate, double seconds,
                             const TargetFn& target, const CheckFn& check) {
  // Timer slack (50 us by default) would otherwise dominate the lateness.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  OpenLoopResult result;
  const std::size_t expected = static_cast<std::size_t>(rate * seconds) + 64;
  result.latency_ns.reserve(expected);
  result.service_ns.reserve(expected);
  result.late_ns.reserve(expected);

  const std::uint64_t cpu_start = thread_cpu_ns();
  const std::uint64_t start = now_ns();
  const std::uint64_t end = start + static_cast<std::uint64_t>(seconds * 1e9);
  const double interval_ns = 1e9 / rate;
  double next_fire = static_cast<double>(start);
  bool scheduling = true;
  std::size_t backlog_at_end = 0;
  std::deque<Pending> backlog;
  std::uint64_t armed_at = 0;
  epoll_event events[16];

  while (true) {
    const std::uint64_t now = now_ns();
    if (scheduling) {
      while (next_fire <= static_cast<double>(now) &&
             next_fire < static_cast<double>(end)) {
        backlog.push_back({next_seq_++, static_cast<std::uint64_t>(next_fire)});
        ++result.attempted;
        next_fire += interval_ns;
      }
    }
    bool any_alive = false;
    bool any_busy = false;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      Conn& c = conns_[i];
      if (c.fd < 0) continue;
      if (!c.busy && !backlog.empty()) {
        send(c, i, backlog.front(), target, result);
        backlog.pop_front();
      }
      any_alive = any_alive || c.fd >= 0;
      any_busy = any_busy || (c.fd >= 0 && c.busy);
    }
    result.backlog_max = std::max(result.backlog_max, backlog.size());
    if (!any_alive) break;
    if (scheduling && next_fire >= static_cast<double>(end)) {
      scheduling = false;
      backlog_at_end = backlog.size();
    }
    if (!scheduling) {
      if (backlog.empty() && !any_busy) break;
      if (now >= end + kDrainNs) break;
    }

    const std::uint64_t wake =
        scheduling ? static_cast<std::uint64_t>(next_fire) : end + kDrainNs;
    if (wake != armed_at) {
      arm_timer(wake);
      armed_at = wake;
    }
    const int n = ::epoll_wait(epoll_fd_, events, 16, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_errno("epoll_wait");
    }
    for (int e = 0; e < n; ++e) {
      if (events[e].data.u64 == kTimerTag) {
        std::uint64_t expirations = 0;
        if (::read(timer_fd_, &expirations, sizeof expirations) < 0 &&
            errno != EAGAIN)
          fail_errno("read(timerfd)");
        armed_at = 0;
        continue;
      }
      const std::size_t index = static_cast<std::size_t>(events[e].data.u64);
      Conn& c = conns_[index];
      if (c.fd < 0) continue;
      if (events[e].events & EPOLLOUT) flush(c, index, result);
      if (c.fd >= 0 && (events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR)))
        on_readable(c, check, result);
    }
  }

  // Whatever is still owed counts as failed; a connection still waiting
  // for an answer is closed so a late reply cannot leak into a later phase.
  result.failed += backlog.size();
  for (Conn& c : conns_)
    if (c.fd >= 0 && c.busy) drop(c, "no answer before the drain deadline", result);
  result.backlog_growing = backlog_at_end > 4 * conns_.size();
  result.thread_cpu_ns = thread_cpu_ns() - cpu_start;
  return result;
}

void OpenLoop::send(Conn& c, std::size_t index, const Pending& p,
                    const TargetFn& target, OpenLoopResult& result) {
  c.target = target(p.seq);
  c.out = "GET " + c.target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  c.out_off = 0;
  c.busy = true;
  c.scheduled_ns = p.scheduled_ns;
  c.sent_ns = now_ns();
  result.late_ns.push_back(c.sent_ns - p.scheduled_ns);
  flush(c, index, result);
}

void OpenLoop::flush(Conn& c, std::size_t index, OpenLoopResult& result) {
  while (c.out_off < c.out.size()) {
    const ssize_t w = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (w > 0) {
      c.out_off += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!c.want_write) {
        epoll_event ev{};
        ev.events = EPOLLIN | EPOLLOUT;
        ev.data.u64 = index;
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
        c.want_write = true;
      }
      return;
    }
    drop(c, "send failed", result);
    return;
  }
  if (c.want_write) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = index;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
    c.want_write = false;
  }
}

void OpenLoop::on_readable(Conn& c, const CheckFn& check,
                           OpenLoopResult& result) {
  char buf[16 * 1024];
  while (true) {
    const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
    if (n == 0) {
      drop(c, "server closed the connection", result);
      return;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      drop(c, "recv failed", result);
      return;
    }
    std::string_view data(buf, static_cast<std::size_t>(n));
    while (!data.empty()) {
      std::size_t used = 0;
      try {
        used = c.parser.feed(data);
      } catch (const wsc::Error&) {
        drop(c, "malformed response", result);
        return;
      }
      data.remove_prefix(used);
      if (!c.parser.complete()) {
        if (used == 0) break;
        continue;
      }
      wsc::http::Response response = c.parser.take();
      if (!c.busy) {
        drop(c, "unsolicited response", result);
        return;
      }
      const std::uint64_t done = now_ns();
      c.busy = false;
      if (response.status == 200 && check(c.target, response)) {
        ++result.completed;
        result.latency_ns.push_back(done - c.scheduled_ns);
        result.service_ns.push_back(done - c.sent_ns);
      } else {
        ++result.failed;
        if (result.first_error.empty())
          result.first_error = "wrong answer (HTTP " +
                               std::to_string(response.status) + ") for " +
                               c.target;
      }
    }
  }
}

void OpenLoop::drop(Conn& c, const char* why, OpenLoopResult& result) {
  if (c.busy) ++result.failed;
  if (result.first_error.empty()) result.first_error = why;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c.fd, nullptr);
  ::close(c.fd);
  c.fd = -1;
  c.busy = false;
}

}  // namespace perfbench

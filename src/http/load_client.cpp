#include "http/load_client.hpp"

#include <sys/epoll.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <memory>
#include <vector>

#include "http/message.hpp"
#include "http/parser.hpp"
#include "http/socket.hpp"
#include "util/error.hpp"

namespace wsc::http {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct ClientConn {
  TcpStream stream;
  ResponseParser parser;
  std::string pending;
  std::string request;  // this request's bytes when next_target is set

  enum class State { Connecting, Idle, Sending, Receiving };
  State state = State::Connecting;
  std::size_t out_off = 0;
  std::uint64_t send_ts = 0;  // scheduled ts (open loop) or actual send ts
  std::uint32_t events = 0;
  bool counted_connect = false;
};

class LoadRun {
 public:
  explicit LoadRun(const LoadOptions& options)
      : options_(options), request_bytes_(request_bytes(options_.target)) {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0)
      throw TransportError(std::string("epoll_create1: ") +
                           std::strerror(errno));
  }

  ~LoadRun() {
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
  }

  LoadReport run() {
    conns_.resize(options_.connections);
    for (std::size_t i = 0; i < conns_.size(); ++i) open_conn(i);

    const std::uint64_t start = now_ns();
    measure_from_ = start + static_cast<std::uint64_t>(
                                options_.warmup.count()) *
                                1'000'000ull;
    const std::uint64_t end =
        measure_from_ +
        static_cast<std::uint64_t>(options_.duration.count()) * 1'000'000ull;
    const double interval_ns =
        options_.open_rps > 0 ? 1e9 / options_.open_rps : 0;
    double next_fire = static_cast<double>(start);

    epoll_event events[512];
    while (true) {
      const std::uint64_t now = now_ns();
      if (now >= end) break;
      // Every connection failed before a single handshake completed:
      // nothing is listening, give up instead of idling out the window.
      if (report_.connected == 0 && report_.errors >= options_.connections)
        throw TransportError("load client: server unreachable");

      int wait_ms = 5;
      if (interval_ns > 0) {
        // Release every send whose scheduled instant has passed; measure
        // from that instant so server stalls show up as queueing delay.
        while (static_cast<double>(now) >= next_fire) {
          backlog_.push_back(static_cast<std::uint64_t>(next_fire));
          next_fire += interval_ns;
        }
        drain_backlog();
        const double gap_ms = (next_fire - static_cast<double>(now)) / 1e6;
        wait_ms = gap_ms < 1 ? 0 : (gap_ms < 5 ? static_cast<int>(gap_ms) : 5);
      }

      int n = ::epoll_wait(epoll_fd_, events, 512, wait_ms);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw TransportError(std::string("epoll_wait: ") +
                             std::strerror(errno));
      }
      for (int i = 0; i < n; ++i) {
        const std::size_t idx = static_cast<std::size_t>(events[i].data.u64);
        ClientConn& conn = conns_[idx];
        if (!conn.stream.valid()) continue;
        if (events[i].events & (EPOLLHUP | EPOLLERR)) {
          fail_conn(idx);
          continue;
        }
        if (events[i].events & EPOLLOUT) on_writable(idx);
        if (conn.stream.valid() && (events[i].events & EPOLLIN))
          on_readable(idx);
      }
    }

    const std::uint64_t finished = now_ns();
    report_.seconds =
        static_cast<double>(finished - measure_from_) / 1e9;
    if (report_.seconds > 0)
      report_.rps = static_cast<double>(report_.requests) / report_.seconds;
    auto& h = report_.latency_ns;
    report_.p50_us = static_cast<double>(h.percentile(0.50)) / 1e3;
    report_.p90_us = static_cast<double>(h.percentile(0.90)) / 1e3;
    report_.p99_us = static_cast<double>(h.percentile(0.99)) / 1e3;
    report_.p999_us = static_cast<double>(h.percentile(0.999)) / 1e3;
    report_.max_us = static_cast<double>(h.max()) / 1e3;
    return std::move(report_);
  }

 private:
  std::string request_bytes(const std::string& target) const {
    Request request;
    request.method = options_.method;
    request.target = target;
    request.headers.set("Host", options_.host);
    request.body = options_.body;
    return request.to_bytes();
  }

  std::string_view out_bytes(const ClientConn& conn) const {
    return options_.next_target ? std::string_view(conn.request)
                                : std::string_view(request_bytes_);
  }

  void open_conn(std::size_t idx) {
    ClientConn& conn = conns_[idx];
    conn.parser = ResponseParser{};
    conn.parser.set_limits(ParserLimits{});
    conn.pending.clear();
    conn.out_off = 0;
    conn.counted_connect = false;
    try {
      bool in_progress = false;
      conn.stream =
          TcpStream::connect_begin(options_.host, options_.port, in_progress);
    } catch (const Error&) {
      ++report_.errors;
      return;  // retried when another event frees capacity
    }
    conn.state = ClientConn::State::Connecting;
    epoll_event ev{};
    ev.events = EPOLLOUT;
    ev.data.u64 = idx;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn.stream.fd(), &ev);
    conn.events = EPOLLOUT;
  }

  void fail_conn(std::size_t idx) {
    ++report_.errors;
    conns_[idx].stream.close();
    open_conn(idx);  // keep the configured concurrency level up
  }

  void set_interest(std::size_t idx, std::uint32_t events) {
    ClientConn& conn = conns_[idx];
    if (conn.events == events) return;
    epoll_event ev{};
    ev.events = events;
    ev.data.u64 = idx;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.stream.fd(), &ev);
    conn.events = events;
  }

  void begin_request(std::size_t idx, std::uint64_t measured_from) {
    ClientConn& conn = conns_[idx];
    conn.state = ClientConn::State::Sending;
    conn.out_off = 0;
    conn.send_ts = measured_from;
    if (options_.next_target)
      conn.request = request_bytes(options_.next_target());
    continue_send(idx);
  }

  void continue_send(std::size_t idx) {
    ClientConn& conn = conns_[idx];
    try {
      const std::string_view out = out_bytes(conn);
      IoResult r = conn.stream.try_write(out.substr(conn.out_off));
      if (r.closed) {
        fail_conn(idx);
        return;
      }
      conn.out_off += r.bytes;
      if (r.would_block || conn.out_off < out.size()) {
        set_interest(idx, EPOLLOUT);
        return;
      }
      conn.state = ClientConn::State::Receiving;
      set_interest(idx, EPOLLIN);
    } catch (const Error&) {
      fail_conn(idx);
    }
  }

  void on_writable(std::size_t idx) {
    ClientConn& conn = conns_[idx];
    if (conn.state == ClientConn::State::Connecting) {
      if (conn.stream.pending_error() != 0) {
        fail_conn(idx);
        return;
      }
      conn.counted_connect = true;
      ++report_.connected;
      if (options_.open_rps > 0) {
        conn.state = ClientConn::State::Idle;
        set_interest(idx, 0);
        drain_backlog();
      } else {
        begin_request(idx, now_ns());
      }
      return;
    }
    if (conn.state == ClientConn::State::Sending) continue_send(idx);
  }

  void on_readable(std::size_t idx) {
    ClientConn& conn = conns_[idx];
    char buf[16 * 1024];
    try {
      for (;;) {
        IoResult r = conn.stream.try_read(buf, sizeof(buf));
        if (r.would_block) return;
        if (r.closed) {
          fail_conn(idx);
          return;
        }
        std::size_t used = conn.parser.feed(std::string_view(buf, r.bytes));
        if (used < r.bytes) conn.pending.append(buf + used, r.bytes - used);
        if (conn.parser.complete()) {
          on_response(idx);
          if (!conn.stream.valid()) return;
        }
      }
    } catch (const Error&) {
      fail_conn(idx);
    }
  }

  void on_response(std::size_t idx) {
    ClientConn& conn = conns_[idx];
    Response response = conn.parser.take();
    const std::uint64_t now = now_ns();
    if (response.status >= 200 && response.status < 300) {
      if (now >= measure_from_) {
        ++report_.requests;
        report_.latency_ns.record(now - conn.send_ts);
      }
    } else {
      ++report_.errors;
    }
    if (auto hdr = response.headers.get("Connection");
        hdr && *hdr == "close") {
      conn.stream.close();
      open_conn(idx);
      return;
    }
    conn.pending.clear();  // one request in flight: nothing pipelined
    if (options_.open_rps > 0) {
      conn.state = ClientConn::State::Idle;
      set_interest(idx, 0);
      drain_backlog();
    } else {
      begin_request(idx, now);
    }
  }

  void drain_backlog() {
    if (backlog_.empty()) return;
    for (std::size_t idx = 0; idx < conns_.size() && !backlog_.empty();
         ++idx) {
      ClientConn& conn = conns_[idx];
      if (!conn.stream.valid() || conn.state != ClientConn::State::Idle)
        continue;
      const std::uint64_t scheduled = backlog_.front();
      backlog_.pop_front();
      begin_request(idx, scheduled);
    }
  }

  const LoadOptions& options_;
  std::string request_bytes_;  // every request's bytes without next_target
  int epoll_fd_ = -1;
  std::vector<ClientConn> conns_;
  std::deque<std::uint64_t> backlog_;  // open loop: due-but-unsent instants
  std::uint64_t measure_from_ = 0;
  LoadReport report_;
};

}  // namespace

std::string LoadReport::json() const {
  std::string out = "{";
  auto num = [&out](const char* key, double v, bool last = false) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.1f", v);
    out += std::string("\"") + key + "\": " + buf + (last ? "" : ", ");
  };
  out += "\"connected\": " + std::to_string(connected) + ", ";
  out += "\"requests\": " + std::to_string(requests) + ", ";
  out += "\"errors\": " + std::to_string(errors) + ", ";
  num("seconds", seconds);
  num("rps", rps);
  num("p50_us", p50_us);
  num("p90_us", p90_us);
  num("p99_us", p99_us);
  num("p999_us", p999_us);
  num("max_us", max_us, /*last=*/true);
  out += "}";
  return out;
}

LoadReport run_load(const LoadOptions& options) {
  raise_fd_soft_limit();
  LoadRun run(options);
  return run.run();
}

}  // namespace wsc::http

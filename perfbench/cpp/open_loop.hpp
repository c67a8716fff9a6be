// The benchmark's open-loop HTTP load generator.
//
// One thread drives a few keep-alive connections.  Sends are released on
// a fixed schedule (rate r: one every 1/r s), whatever the server does;
// a send that finds every connection busy waits in a backlog and its
// latency still counts from its scheduled instant, so a server stall
// shows up as queueing delay rather than as a quieter client.
//
// Pacing sleeps in epoll on an absolute-time timerfd with the thread's
// timer slack cut to 1 ns, so the schedule holds to well under a
// millisecond without spinning on a core the servers need.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "http/message.hpp"
#include "http/parser.hpp"

namespace perfbench {

struct OpenLoopResult {
  std::uint64_t attempted = 0;  // sends scheduled in the phase
  std::uint64_t completed = 0;  // answered and judged correct
  std::uint64_t failed = 0;     // wrong answer, non-200, or never answered
  std::vector<std::uint64_t> latency_ns;  // response - scheduled send
  std::vector<std::uint64_t> service_ns;  // response - actual send
  std::vector<std::uint64_t> late_ns;     // actual send - scheduled send
  std::size_t backlog_max = 0;
  /// The backlog was deeper at the end of the schedule than the rate can
  /// explain by jitter: the server fell behind and the run is not valid.
  bool backlog_growing = false;
  std::uint64_t thread_cpu_ns = 0;  // this generator thread's own CPU
  std::string first_error;
};

class OpenLoop {
 public:
  /// Target for the seq-th request of the run (seq counts across phases).
  using TargetFn = std::function<std::string(std::uint64_t seq)>;
  /// True when `response` is the right answer to `target`.
  using CheckFn =
      std::function<bool(const std::string& target, const wsc::http::Response&)>;

  /// Opens `connections` keep-alive connections to 127.0.0.1:port.
  OpenLoop(std::uint16_t port, std::size_t connections);
  ~OpenLoop();
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  /// Offer `rate` req/s for `seconds`, then wait (bounded) for the
  /// answers still outstanding.  Must be called from one thread.
  OpenLoopResult run(double rate, double seconds, const TargetFn& target,
                     const CheckFn& check);

 private:
  struct Conn {
    int fd = -1;
    wsc::http::ResponseParser parser;
    std::string out;
    std::size_t out_off = 0;
    bool busy = false;
    bool want_write = false;
    std::string target;
    std::uint64_t scheduled_ns = 0;
    std::uint64_t sent_ns = 0;
  };
  struct Pending {
    std::uint64_t seq;
    std::uint64_t scheduled_ns;
  };

  void send(Conn& conn, std::size_t index, const Pending& p,
            const TargetFn& target, OpenLoopResult& result);
  void flush(Conn& conn, std::size_t index, OpenLoopResult& result);
  void on_readable(Conn& conn, const CheckFn& check, OpenLoopResult& result);
  void drop(Conn& conn, const char* why, OpenLoopResult& result);
  void arm_timer(std::uint64_t at_ns);

  int epoll_fd_ = -1;
  int timer_fd_ = -1;
  std::vector<Conn> conns_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace perfbench

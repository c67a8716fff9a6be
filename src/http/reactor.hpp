// Nonblocking epoll reactor behind HttpServer's Reactor mode:
// leader/followers over one epoll set (DESIGN.md §12).
//
//   listener      ──(one-shot)──┐
//   connections   ──(one-shot)──┤
//   reap timerfd  ──(one-shot)──┼──▶ epoll set ──▶ worker_threads threads,
//   stop eventfd  ──(level)─────┘                  one event per epoll_wait
//
// The thread an event wakes owns that descriptor until it re-arms it: it
// accepts a batch, or reaps idle connections, or reads, parses, runs the
// handler and writes the response itself.  Nothing is handed to another
// thread.  A connection is claimed by CAS Idle → Busy under the map lock
// and parked again by re-arming it, then releasing Busy → Idle under the
// lock (a wake-up in between is handed back to the owner); the idle
// reaper claims Idle → Closing under the same lock, so a connection is
// served or reaped, never both.  Backpressure: the listener stays
// disarmed while max_connections are open (accept pacing), a connection
// stops reading while its one response is being written, and the idle
// reaper closes a peer that stops reading mid-response.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "http/server.hpp"

namespace wsc::http {

class EpollReactor {
 public:
  EpollReactor(std::uint16_t port, Handler handler, ServerOptions options,
               ServerStats& stats);
  ~EpollReactor();

  EpollReactor(const EpollReactor&) = delete;
  EpollReactor& operator=(const EpollReactor&) = delete;

  void start();
  void stop();

  std::uint16_t port() const noexcept { return listener_.port(); }

 private:
  struct Conn;

  void worker_main();
  void accept_batch();
  void pause_accepting();
  void maybe_resume_accepting();
  void rearm(int fd, std::uint64_t id, std::uint32_t events);

  void add_conn(TcpStream stream);
  Conn* claim(std::uint64_t id);
  void serve(Conn& conn);
  std::uint32_t advance(Conn& conn, std::uint64_t& now);
  void respond(Conn& conn);
  void reject(Conn& conn, int status, const char* body);
  bool park(Conn& conn, std::uint32_t events, std::uint64_t now);
  void close_conn(Conn& conn);
  void reap_idle();

  // Callers hold mu_.
  void idle_link(Conn& conn, std::uint64_t now);
  void idle_unlink(Conn& conn);
  void arm_reap_timer();

  ServerOptions options_;
  Handler handler_;
  ServerStats& stats_;
  TcpListener listener_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};  // stop() entered: close after reply
  std::atomic<bool> accept_paused_{false};

  int epoll_fd_ = -1;
  int stop_fd_ = -1;
  int timer_fd_ = -1;

  // The connection map and the idle list (oldest deadline first).
  std::mutex mu_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  Conn* idle_head_ = nullptr;
  Conn* idle_tail_ = nullptr;
  std::uint64_t next_conn_id_ = 16;

  std::vector<std::thread> threads_;
};

}  // namespace wsc::http

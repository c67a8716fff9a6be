// Nonblocking epoll reactor behind HttpServer's Reactor mode.
//
// Architecture (DESIGN.md §12):
//
//   accept --pacing--> [event loop] --parsed Request--> worker pool
//                        |   ^                              |
//                        v   | completions (mailbox+eventfd)|
//                   connection FSM  <------------------------
//
// One event loop thread owns the listener and every accepted socket; all
// connection state (parser, buffers, idle-list links) is touched only by
// that thread.  Workers receive the parsed Request by value and hand the
// serialized response bytes back through the mailbox, so no socket or
// epoll call ever happens off-loop.  Backpressure: the listener is
// unregistered from epoll while the active-connection or dispatch caps
// are exceeded (accept pacing — the kernel backlog absorbs the burst); a
// connection stops reading while its one response is in flight, and the
// idle reaper closes a peer that stops reading mid-response.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "http/server.hpp"

namespace wsc::util {
class ThreadPool;
}

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
  struct Completion {
    std::uint64_t conn_id = 0;
    std::string bytes;
    bool close_after = false;
  };

  void loop_main();
  void process_mailbox();
  void accept_batch();
  void pause_accepting();
  void maybe_resume_accepting();
  bool over_pressure() const;

  Conn* find_conn(std::uint64_t id);
  void add_conn(TcpStream stream);
  void close_conn(Conn& conn, bool reaped_idle = false);
  /// All return false when they closed the connection.
  bool handle_readable(Conn& conn);
  bool on_request(Conn& conn);
  bool apply_completion(Conn& conn, std::string bytes, bool close_after);
  bool flush(Conn& conn);
  bool respond_direct(Conn& conn, int status, const std::string& body);
  void update_interest(Conn& conn, bool want_read, bool want_write);

  void idle_touch(Conn& conn);
  void idle_unlink(Conn& conn);
  void reap_idle(std::uint64_t now_ns);

  void post_completion(Completion completion);
  void wake();

  ServerOptions options_;
  Handler handler_;
  ServerStats& stats_;
  TcpListener listener_;
  /// Accept pacing also pauses while more requests than this are queued
  /// or running in the pool (64 x worker threads).
  std::size_t dispatch_cap_ = 0;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};  // stop() entered: close after reply

  // Loop-thread state.
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::thread thread_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  Conn* idle_head_ = nullptr;  // oldest deadline first
  Conn* idle_tail_ = nullptr;
  bool accept_paused_ = false;
  std::uint64_t next_conn_id_ = 16;

  // Mailbox: the only cross-thread surface (workers -> loop).
  std::mutex mail_mu_;
  std::vector<Completion> completions_;

  // Handler pool, started by start() and drained by stop().
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace wsc::http

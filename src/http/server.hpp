// HTTP/1.1 server with keep-alive, in two interchangeable modes:
//
//  * Threaded — the Tomcat stand-in of the paper's portal scenario: an
//    acceptor thread hands each connection to a worker thread that serves
//    requests until the peer disconnects.  Finished worker handles are
//    reaped as the server runs (they used to accumulate forever).
//  * Reactor — leader/followers over one nonblocking epoll set:
//    `worker_threads` threads wait on it, and the thread an event wakes
//    owns that connection until it parks it again.  It drives the
//    incremental RequestParser, runs the handler inline and writes the
//    response (a partial write waits for EPOLLOUT); idle keep-alive
//    connections (or readers stalled mid-response) are reaped on a
//    deadline.  Backpressure is accept pacing plus one response in flight
//    per connection.  This is the mode that holds 10k concurrent
//    connections cheaply.
//
// `Handler` is invoked once per request through run_handler(), in both
// modes; exceptions map to 500 responses so a buggy service cannot wedge a
// connection.  Hostile inputs (oversized headers/bodies, garbage framing)
// map to 431/413/400 and a dropped connection — never a dead process.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>
#include <vector>

#include "http/message.hpp"
#include "http/parser.hpp"
#include "http/server_stats.hpp"
#include "http/socket.hpp"

namespace wsc::http {

using Handler = std::function<Response(const Request&)>;

class EpollReactor;  // reactor.hpp

struct ServerOptions {
  enum class Mode { Threaded, Reactor };
  Mode mode = Mode::Threaded;

  /// Per-message size caps (431/413 on violation).
  ParserLimits limits;

  /// Reactor: close keep-alive connections idle longer than this (zero
  /// disables reaping).
  std::chrono::milliseconds idle_timeout{60'000};

  /// Reactor: pause accepting when this many connections are active;
  /// resume below 90% (accept pacing backpressure).
  std::size_t max_connections = 16 * 1024;

  /// Reactor: threads that wait in epoll_wait and run handlers inline.
  /// 0 = 2 x hardware_concurrency (the handler is synchronous and may
  /// block on backend SOAP calls, holding its thread).
  std::size_t worker_threads = 0;
};

/// Runs `handler` on `request` for either mode: a throw becomes a 500 and
/// counts handler_errors, and the Connection header echoes `keep_alive`.
/// Counts the handler in dispatch_depth while it runs and adds its wall
/// time to handler_ns; `started_ns` receives the server_now_ns() reading
/// taken as it started, where the caller's request_ns span begins.
Response run_handler(const Handler& handler, const Request& request,
                     bool keep_alive, ServerStats& stats,
                     std::uint64_t& started_ns);

class HttpServer {
 public:
  /// Binds immediately (port 0 = auto); call start() to begin serving.
  HttpServer(std::uint16_t port, Handler handler);
  HttpServer(std::uint16_t port, Handler handler, ServerOptions options);

  /// Stops and joins all threads.
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  void start();
  void stop();

  std::uint16_t port() const noexcept;
  std::string base_url() const {
    return "http://127.0.0.1:" + std::to_string(port());
  }

  const ServerOptions& options() const noexcept { return options_; }
  const ServerStats& stats() const noexcept { return stats_; }

 private:
  void accept_loop();
  void serve_connection(TcpStream stream, std::uint64_t worker_id);
  void register_connection(TcpStream& stream);
  void unregister_connection(TcpStream& stream);
  void reap_finished_workers();

  ServerOptions options_;
  Handler handler_;
  ServerStats stats_;

  // Reactor mode.
  std::unique_ptr<EpollReactor> reactor_;

  // Threaded mode.
  std::unique_ptr<TcpListener> listener_;
  std::thread acceptor_;
  std::mutex workers_mu_;
  std::unordered_map<std::uint64_t, std::thread> workers_;
  std::vector<std::uint64_t> finished_workers_;  // ready to join
  std::uint64_t next_worker_id_ = 0;
  // Sockets currently being served; stop() shuts them down so workers
  // blocked in recv() on an idle keep-alive connection wake and exit.
  std::mutex conns_mu_;
  std::set<TcpStream*> active_conns_;
  std::atomic<bool> running_{false};
};

}  // namespace wsc::http

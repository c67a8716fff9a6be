#include "http/server.hpp"

#include "http/parser.hpp"
#include "http/reactor.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"

namespace wsc::http {

HttpServer::HttpServer(std::uint16_t port, Handler handler)
    : HttpServer(port, std::move(handler), ServerOptions{}) {}

HttpServer::HttpServer(std::uint16_t port, Handler handler,
                       ServerOptions options)
    : options_(options), handler_(std::move(handler)) {
  if (options_.mode == ServerOptions::Mode::Reactor) {
    reactor_ =
        std::make_unique<EpollReactor>(port, handler_, options_, stats_);
  } else {
    listener_ = std::make_unique<TcpListener>(port);
  }
}

HttpServer::~HttpServer() { stop(); }

std::uint16_t HttpServer::port() const noexcept {
  return reactor_ ? reactor_->port() : listener_->port();
}

void HttpServer::start() {
  if (reactor_) {
    reactor_->start();
    return;
  }
  if (running_.exchange(true)) return;
  acceptor_ = std::thread([this] { accept_loop(); });
}

void HttpServer::stop() {
  if (reactor_) {
    reactor_->stop();
    return;
  }
  if (!running_.exchange(false)) return;
  listener_->shutdown();
  if (acceptor_.joinable()) acceptor_.join();
  {
    // Wake workers parked in recv() on idle keep-alive connections.
    std::lock_guard lock(conns_mu_);
    for (TcpStream* s : active_conns_) s->shutdown_both();
  }
  std::unordered_map<std::uint64_t, std::thread> workers;
  {
    std::lock_guard lock(workers_mu_);
    workers.swap(workers_);
    finished_workers_.clear();
  }
  for (auto& [id, w] : workers) {
    if (w.joinable()) w.join();
  }
}

// Join worker threads whose connections already ended.  Called from the
// acceptor between accepts, so handles no longer accumulate for the
// lifetime of the server (they used to: one zombie std::thread per
// connection ever served).
void HttpServer::reap_finished_workers() {
  std::vector<std::thread> done;
  {
    std::lock_guard lock(workers_mu_);
    done.reserve(finished_workers_.size());
    for (std::uint64_t id : finished_workers_) {
      auto it = workers_.find(id);
      if (it == workers_.end()) continue;
      done.push_back(std::move(it->second));
      workers_.erase(it);
    }
    finished_workers_.clear();
  }
  for (auto& w : done) {
    if (w.joinable()) w.join();
    stats_.workers_reaped.fetch_add(1, std::memory_order_relaxed);
  }
}

void HttpServer::accept_loop() {
  while (running_.load(std::memory_order_acquire)) {
    TcpStream stream;
    try {
      stream = listener_->accept();
    } catch (const TransportError& e) {
      if (!running_) return;
      util::log(util::LogLevel::Warn, "accept failed: ", e.what());
      continue;
    }
    if (!stream.valid()) return;  // listener shut down
    reap_finished_workers();
    std::lock_guard lock(workers_mu_);
    if (!running_) return;
    stats_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    stats_.connections_active.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t id = next_worker_id_++;
    workers_.emplace(id, std::thread([this, id, s = std::move(stream)]() mutable {
                       serve_connection(std::move(s), id);
                     }));
  }
}

void HttpServer::register_connection(TcpStream& stream) {
  std::lock_guard lock(conns_mu_);
  active_conns_.insert(&stream);
  if (!running_.load(std::memory_order_acquire)) stream.shutdown_both();
}

void HttpServer::unregister_connection(TcpStream& stream) {
  std::lock_guard lock(conns_mu_);
  active_conns_.erase(&stream);
}

Response run_handler(const Handler& handler, const Request& request,
                     bool keep_alive, ServerStats& stats,
                     std::uint64_t& started_ns) {
  Response response;
  std::string error;
  stats.dispatch_depth.fetch_add(1, std::memory_order_relaxed);
  started_ns = server_now_ns();
  try {
    response = handler(request);
  } catch (const std::exception& e) {
    error = std::string("internal error: ") + e.what();
  } catch (...) {
    error = "internal error";
  }
  stats.handler_ns.fetch_add(server_now_ns() - started_ns,
                             std::memory_order_relaxed);
  stats.dispatch_depth.fetch_sub(1, std::memory_order_relaxed);
  if (!error.empty()) {
    stats.handler_errors.fetch_add(1, std::memory_order_relaxed);
    response = Response{};
    response.status = 500;
    response.headers.set("Content-Type", "text/plain");
    response.body = std::move(error);
  }
  // RFC 7230 §6.3: HTTP/1.0 closes unless the client opted into
  // keep-alive; 1.1 persists unless the client asked to close.  Echo the
  // decision so 1.0 clients do not wait on a connection we are about to
  // keep open (or vice versa).
  response.headers.set("Connection", keep_alive ? "keep-alive" : "close");
  return response;
}

namespace {

// Answer a framing/limit rejection and linger briefly so the response
// reaches a peer that is still sending (an immediate close() with unread
// input queued triggers an RST that can destroy the response in flight).
void send_rejection(TcpStream& stream, int status, const std::string& body) {
  Response response;
  response.status = status;
  response.headers.set("Content-Type", "text/plain");
  response.headers.set("Connection", "close");
  response.body = body;
  try {
    stream.write_all(response.to_bytes());
    stream.shutdown_write();
    stream.set_read_timeout(std::chrono::milliseconds(500));
    char sink[4096];
    while (stream.read_some(sink, sizeof(sink)) > 0) {
    }
  } catch (const Error&) {
    // Peer vanished mid-rejection; nothing more to deliver.
  }
}

}  // namespace

void HttpServer::serve_connection(TcpStream stream, std::uint64_t worker_id) {
  register_connection(stream);
  struct Finally {
    HttpServer* server;
    TcpStream* stream;
    std::uint64_t worker_id;
    ~Finally() {
      server->unregister_connection(*stream);
      server->stats_.connections_closed.fetch_add(1,
                                                  std::memory_order_relaxed);
      server->stats_.connections_active.fetch_sub(1,
                                                  std::memory_order_relaxed);
      std::lock_guard lock(server->workers_mu_);
      server->finished_workers_.push_back(worker_id);
    }
  } finally{this, &stream, worker_id};

  RequestParser parser;
  parser.set_limits(options_.limits);
  std::string pending;
  char buf[16 * 1024];
  try {
    while (running_.load(std::memory_order_acquire)) {
      // Drain any pipelined bytes first, then read from the socket.
      while (!parser.complete() && !pending.empty()) {
        std::size_t used = parser.feed(pending);
        pending.erase(0, used);
        if (used == 0) break;
      }
      while (!parser.complete()) {
        std::size_t n = stream.read_some(buf, sizeof(buf));
        if (n == 0) return;  // peer closed between requests
        stats_.bytes_in.fetch_add(n, std::memory_order_relaxed);
        std::size_t used = parser.feed(std::string_view(buf, n));
        if (used < n) pending.append(buf + used, n - used);
      }
      Request request = parser.take();
      stats_.requests.fetch_add(1, std::memory_order_relaxed);
      const bool keep = request_keep_alive(request);
      std::uint64_t started_ns = 0;
      const std::string bytes =
          run_handler(handler_, request, keep, stats_, started_ns).to_bytes();
      stream.write_all(bytes);
      stats_.request_ns.fetch_add(server_now_ns() - started_ns,
                                  std::memory_order_relaxed);
      stats_.bytes_out.fetch_add(bytes.size(), std::memory_order_relaxed);
      stats_.responses.fetch_add(1, std::memory_order_relaxed);
      if (!keep) return;
    }
  } catch (const HeaderLimitError& e) {
    stats_.limit_rejected.fetch_add(1, std::memory_order_relaxed);
    util::log(util::LogLevel::Debug, "header limit: ", e.what());
    send_rejection(stream, 431, "request header fields too large");
  } catch (const BodyLimitError& e) {
    stats_.limit_rejected.fetch_add(1, std::memory_order_relaxed);
    util::log(util::LogLevel::Debug, "body limit: ", e.what());
    send_rejection(stream, 413, "request body too large");
  } catch (const ParseError& e) {
    stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    util::log(util::LogLevel::Debug, "protocol error: ", e.what());
    send_rejection(stream, 400, "malformed request");
  } catch (const Error& e) {
    // Protocol violation or I/O error: drop the connection, as servers do.
    stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    util::log(util::LogLevel::Debug, "connection error: ", e.what());
  } catch (const std::exception& e) {
    // length_error/bad_alloc from hostile inputs must cost one connection,
    // never the process (an uncaught exception on a worker calls
    // std::terminate).
    stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    util::log(util::LogLevel::Warn, "connection failure: ", e.what());
  } catch (...) {
    stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    util::log(util::LogLevel::Warn, "connection failure: unknown exception");
  }
}

}  // namespace wsc::http

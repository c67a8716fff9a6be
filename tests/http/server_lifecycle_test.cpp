// Server lifecycle: worker-handle reaping (the ISSUE-9 thread leak),
// reactor idle-timeout reaping (including a reader that stalls mid-write),
// accept pacing at max_connections, and clean stop() with parked
// keep-alive connections.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "http/client.hpp"
#include "http/server.hpp"
#include "http/socket.hpp"
#include "util/error.hpp"

namespace wsc::http {
namespace {

Handler ok_handler() {
  return [](const Request&) {
    Response r;
    r.body = "ok";
    return r;
  };
}

std::uint64_t live_threads() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  char line[256];
  std::uint64_t threads = 0;
  while (std::fgets(line, sizeof(line), f)) {
    if (std::strncmp(line, "Threads:", 8) == 0) {
      threads = std::strtoull(line + 8, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return threads;
}

// Regression (ISSUE 9): the threaded server accumulated one finished
// std::thread handle per connection ever served, joined only at stop() —
// a long-running server leaked a handle (and, until the OS thread parked,
// a thread) per connection.  With reaping, serving many sequential
// connections must not grow the process thread count.
TEST(ServerLifecycleTest, SequentialConnectionsDoNotAccumulateThreads) {
  HttpServer server(0, ok_handler());
  server.start();
  constexpr int kConnections = 800;
  std::uint64_t peak = 0;
  for (int i = 0; i < kConnections; ++i) {
    HttpConnection conn("127.0.0.1", server.port());
    Request r;
    r.headers.set("Connection", "close");
    EXPECT_EQ(conn.round_trip(r).body, "ok");
    if (i % 50 == 49) peak = std::max(peak, live_threads());
  }
  // Handles must have been joined as we went, not parked until stop().
  EXPECT_GE(server.stats().workers_reaped.load(), kConnections / 2u)
      << "finished workers are not being reaped";
  // Thread count stays flat: baseline (main + acceptor + gtest internals)
  // plus at most a handful of not-yet-reaped workers — nowhere near the
  // one-thread-per-past-connection of the leak.
  EXPECT_LT(peak, 64u) << "thread count grew with connection count";
  server.stop();
  EXPECT_EQ(server.stats().connections_active.load(), 0u);
}

TEST(ServerLifecycleTest, ReactorReapsIdleConnections) {
  ServerOptions options;
  options.mode = ServerOptions::Mode::Reactor;
  options.idle_timeout = std::chrono::milliseconds(150);
  HttpServer server(0, ok_handler(), options);
  server.start();
  TcpStream s = TcpStream::connect("127.0.0.1", server.port());
  s.write_all("GET / HTTP/1.1\r\nHost: x\r\n\r\n");
  s.set_read_timeout(std::chrono::milliseconds(5'000));
  char buf[4096];
  ASSERT_GT(s.read_some(buf, sizeof(buf)), 0u);
  // Idle past the timeout: the server must close from its side.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::size_t n = 1;
  while (n != 0 && std::chrono::steady_clock::now() < deadline)
    n = s.read_some(buf, sizeof(buf));
  EXPECT_EQ(n, 0u) << "idle connection was not reaped";
  EXPECT_GE(server.stats().idle_reaped.load(), 1u);
  server.stop();
}

// The reactor has no write cap: a connection holds at most one response,
// and a reader that stops reading mid-response is closed by the idle
// timeout like any other idle connection.  32 MiB is more than loopback
// socket buffers absorb, so the write stalls partway.
TEST(ServerLifecycleTest, ReactorReapsAReaderThatStallsMidWrite) {
  constexpr std::size_t kBody = 32 * 1024 * 1024;
  ServerOptions options;
  options.mode = ServerOptions::Mode::Reactor;
  options.idle_timeout = std::chrono::milliseconds(200);
  HttpServer server(
      0,
      [](const Request&) {
        Response r;
        r.body.assign(kBody, 'x');
        return r;
      },
      options);
  server.start();
  TcpStream s = TcpStream::connect("127.0.0.1", server.port());
  s.write_all("GET / HTTP/1.1\r\nHost: x\r\n\r\n");  // and never read
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (server.stats().idle_reaped.load() == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(server.stats().idle_reaped.load(), 1u)
      << "stalled reader was not reaped by the idle timeout";
  EXPECT_EQ(server.stats().connections_active.load(), 0u);
  EXPECT_LT(server.stats().bytes_out.load(), kBody);
  server.stop();
}

// Accept pacing: at max_connections the listener leaves epoll, so a
// further connection completes its handshake in the kernel backlog but is
// not served until the active count falls below 90% of the cap.
TEST(ServerLifecycleTest, ReactorPausesAcceptAtMaxConnections) {
  ServerOptions options;
  options.mode = ServerOptions::Mode::Reactor;
  options.max_connections = 2;
  HttpServer server(0, ok_handler(), options);
  server.start();
  std::vector<std::unique_ptr<HttpConnection>> open;
  for (int i = 0; i < 2; ++i) {
    open.push_back(
        std::make_unique<HttpConnection>("127.0.0.1", server.port()));
    EXPECT_EQ(open.back()->round_trip(Request{}).body, "ok");
  }
  TcpStream third = TcpStream::connect("127.0.0.1", server.port());
  third.write_all("GET / HTTP/1.1\r\nHost: x\r\n\r\n");
  third.set_read_timeout(std::chrono::milliseconds(300));
  char buf[4096];
  EXPECT_THROW(third.read_some(buf, sizeof(buf)), TimeoutError)
      << "a connection past max_connections was served";
  EXPECT_GE(server.stats().accept_pauses.load(), 1u);
  // Resume needs active < 90% of 2, i.e. both first connections gone.
  open.clear();
  third.set_read_timeout(std::chrono::milliseconds(5'000));
  const std::size_t n = third.read_some(buf, sizeof(buf));
  EXPECT_EQ(std::string(buf, n).rfind("HTTP/1.1 200 OK", 0), 0u)
      << "the paused connection was not served after resume";
  server.stop();
}

TEST(ServerLifecycleTest, ReactorStopsCleanlyWithParkedKeepAliveConns) {
  ServerOptions options;
  options.mode = ServerOptions::Mode::Reactor;
  HttpServer server(0, ok_handler(), options);
  server.start();
  // Park a crowd of keep-alive connections, each having completed one
  // request (so they sit in the idle list, not mid-parse).
  std::vector<TcpStream> parked;
  constexpr int kParked = 200;
  for (int i = 0; i < kParked; ++i) {
    TcpStream s = TcpStream::connect("127.0.0.1", server.port());
    s.write_all("GET / HTTP/1.1\r\nHost: x\r\n\r\n");
    s.set_read_timeout(std::chrono::milliseconds(5'000));
    char buf[4096];
    ASSERT_GT(s.read_some(buf, sizeof(buf)), 0u);
    parked.push_back(std::move(s));
  }
  EXPECT_EQ(server.stats().connections_active.load(),
            static_cast<std::uint64_t>(kParked));
  const auto t0 = std::chrono::steady_clock::now();
  server.stop();
  const auto took = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(took, std::chrono::seconds(5)) << "stop() hung on parked conns";
  EXPECT_EQ(server.stats().connections_active.load(), 0u);
}

TEST(ServerLifecycleTest, ThreadedStopsCleanlyWithParkedKeepAliveConns) {
  HttpServer server(0, ok_handler());
  server.start();
  std::vector<std::unique_ptr<HttpConnection>> parked;
  for (int i = 0; i < 32; ++i) {
    auto conn =
        std::make_unique<HttpConnection>("127.0.0.1", server.port());
    EXPECT_EQ(conn->round_trip(Request{}).body, "ok");
    parked.push_back(std::move(conn));
  }
  const auto t0 = std::chrono::steady_clock::now();
  server.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
  EXPECT_EQ(server.stats().connections_active.load(), 0u);
}

TEST(ServerLifecycleTest, DoubleStopIsIdempotent) {
  ServerOptions options;
  options.mode = ServerOptions::Mode::Reactor;
  HttpServer server(0, ok_handler(), options);
  server.start();
  server.stop();
  server.stop();  // second stop is a no-op, not a crash
}

}  // namespace
}  // namespace wsc::http

// Server lifecycle: worker-handle reaping (the ISSUE-9 thread leak),
// reactor idle-timeout reaping (including a reader that stalls mid-write),
// accept pacing at max_connections, clean stop() with parked keep-alive
// connections, and the reactor's connection ownership: reaping racing
// wake-ups and stop() under pipelined load, and a blocked handler that
// holds only its own connection.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "http/client.hpp"
#include "http/parser.hpp"
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

std::size_t open_fds() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd"))
    ++n;
  return n;
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
  open.clear();
  third.set_read_timeout(std::chrono::milliseconds(5'000));
  const std::size_t n = third.read_some(buf, sizeof(buf));
  EXPECT_EQ(std::string(buf, n).rfind("HTTP/1.1 200 OK", 0), 0u)
      << "the paused connection was not served after resume";
  server.stop();
}

// Resume is at active < 90% of the cap, compared exactly: a cap of 1
// resumes once its one connection closes, a cap of 2 after one close.
TEST(ServerLifecycleTest, ReactorResumesAcceptUnderSmallCaps) {
  for (const std::size_t cap : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE("max_connections " + std::to_string(cap));
    ServerOptions options;
    options.mode = ServerOptions::Mode::Reactor;
    options.max_connections = cap;
    HttpServer server(0, ok_handler(), options);
    server.start();
    std::vector<std::unique_ptr<HttpConnection>> open;
    for (std::size_t i = 0; i < cap; ++i) {
      open.push_back(
          std::make_unique<HttpConnection>("127.0.0.1", server.port()));
      EXPECT_EQ(open.back()->round_trip(Request{}).body, "ok");
    }
    TcpStream waiting = TcpStream::connect("127.0.0.1", server.port());
    waiting.write_all("GET / HTTP/1.1\r\nHost: x\r\n\r\n");
    waiting.set_read_timeout(std::chrono::milliseconds(300));
    char buf[4096];
    EXPECT_THROW(waiting.read_some(buf, sizeof(buf)), TimeoutError);
    open.erase(open.begin());  // one close; with cap 2 one connection stays
    waiting.set_read_timeout(std::chrono::milliseconds(5'000));
    const std::size_t n = waiting.read_some(buf, sizeof(buf));
    EXPECT_EQ(std::string(buf, n).rfind("HTTP/1.1 200 OK", 0), 0u)
        << "accepting did not resume after one close";
    EXPECT_GE(server.stats().accept_pauses.load(), 1u);
    server.stop();
  }
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

// What one client connection saw.  Requests carry the connection's index
// and a sequence number, and the handler echoes the target, so a lost,
// repeated or reordered answer shows as a mismatch.
struct ConnLog {
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  bool server_closed = false;       // EOF or reset from the server
  bool closed_before_stop = false;  // ... seen before stop() was called
  std::string error;                // mismatch or read timeout
};

struct HammerOutcome {
  std::vector<ConnLog> logs;  // every client connection
  std::uint64_t idle_reaped = 0;
};

// 32 keep-alive connections pipeline bursts of 1-6 requests at a reactor
// with 4 threads.  Client threads pause 40-60 ms now and then, so with a
// short idle_timeout the reaper races the next burst's wake-up, and each
// burst arrives in two writes, so a wake-up races the park that follows a
// partial read.  With `rounds` == 0 stop() lands mid-load after a second;
// otherwise the clients stop after that many rounds and stop() follows.
// Checks what holds either way: every answer in order and at most once,
// every request the server read was answered, nothing left open.
HammerOutcome hammer(std::chrono::milliseconds idle_timeout, int rounds) {
  constexpr int kClientThreads = 8;
  constexpr int kConnsPerThread = 4;
  const std::size_t fds_before = open_fds();

  ServerOptions options;
  options.mode = ServerOptions::Mode::Reactor;
  options.worker_threads = 4;
  options.idle_timeout = idle_timeout;
  HttpServer server(
      0,
      [](const Request& request) {
        Response r;
        r.body = request.target;
        return r;
      },
      options);
  server.start();

  std::atomic<bool> stopping{false};  // set just before stop()
  std::atomic<bool> done{false};      // stop() returned
  std::vector<std::vector<ConnLog>> logs(kClientThreads);
  std::vector<std::thread> clients;
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      std::mt19937 rng(static_cast<unsigned>(t) + 1);
      std::vector<ConnLog>& mine = logs[t];
      struct Slot {
        TcpStream stream;
        std::size_t log = 0;
        ResponseParser parser;
        std::string pending;
      };
      std::vector<Slot> slots(kConnsPerThread);
      for (int round = 0; !done.load() && (rounds == 0 || round < rounds);
           ++round) {
        for (Slot& slot : slots) {
          if (!slot.stream.valid()) {
            if (stopping.load()) continue;
            try {
              slot.stream = TcpStream::connect("127.0.0.1", server.port());
            } catch (const TransportError&) {
              continue;  // the listener is closing
            }
            slot.stream.set_read_timeout(std::chrono::milliseconds(5'000));
            slot.log = mine.size();
            mine.emplace_back();
            slot.parser = ResponseParser();
            slot.pending.clear();
          }
          ConnLog& log = mine[slot.log];
          const std::string prefix = "/c" + std::to_string(t) + "-" +
                                     std::to_string(slot.log) + "/";
          const int burst = 1 + static_cast<int>(rng() % 6);
          std::string bytes;
          for (int i = 0; i < burst; ++i)
            bytes += "GET " + prefix + std::to_string(log.sent + i) +
                     " HTTP/1.1\r\nHost: x\r\n\r\n";
          try {
            const std::size_t cut = rng() % bytes.size();
            slot.stream.write_all(std::string_view(bytes).substr(0, cut));
            slot.stream.write_all(std::string_view(bytes).substr(cut));
            log.sent += burst;
            char buf[4096];
            while (log.answered < log.sent) {
              while (!slot.parser.complete()) {
                if (!slot.pending.empty()) {
                  const std::size_t used = slot.parser.feed(slot.pending);
                  slot.pending.erase(0, used);
                  continue;
                }
                const std::size_t n = slot.stream.read_some(buf, sizeof(buf));
                if (n == 0) throw TransportError("closed");
                const std::size_t used =
                    slot.parser.feed(std::string_view(buf, n));
                if (used < n) slot.pending.append(buf + used, n - used);
              }
              const Response r = slot.parser.take();
              const std::string want = prefix + std::to_string(log.answered);
              if (r.body != want && log.error.empty())
                log.error = "got " + r.body + ", want " + want;
              ++log.answered;
            }
          } catch (const TimeoutError&) {
            log.error = "no answer within 5 s";
            slot.stream.close();
          } catch (const Error&) {
            log.server_closed = true;  // reaped, or closed by stop()
            log.closed_before_stop = !stopping.load();
            slot.stream.close();
          }
        }
        if (rng() % 4 == 0)
          std::this_thread::sleep_for(
              std::chrono::milliseconds(40 + rng() % 21));
      }
    });
  }

  if (rounds == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1'000));
  } else {
    for (std::thread& c : clients) c.join();
  }
  stopping.store(true);
  server.stop();
  done.store(true);
  for (std::thread& c : clients)
    if (c.joinable()) c.join();

  const ServerStats& stats = server.stats();
  EXPECT_EQ(stats.requests.load(), stats.responses.load())
      << "a request was read but never answered";
  EXPECT_EQ(stats.connections_active.load(), 0u);
  EXPECT_EQ(stats.connections_idle.load(), 0u);
  EXPECT_EQ(open_fds(), fds_before);
  HammerOutcome outcome;
  outcome.idle_reaped = stats.idle_reaped.load();
  std::uint64_t answered = 0;
  for (const auto& mine : logs) {
    for (const ConnLog& log : mine) {
      EXPECT_TRUE(log.error.empty()) << log.error;
      EXPECT_LE(log.answered, log.sent);
      if (!log.server_closed) {
        EXPECT_EQ(log.answered, log.sent);
      }
      answered += log.answered;
      outcome.logs.push_back(log);
    }
  }
  EXPECT_GT(answered, 0u);
  return outcome;
}

// Reaping races wake-ups, and stop() lands mid-load.
TEST(ServerLifecycleTest, ReactorOwnershipHammerWithReapingAndStop) {
  const HammerOutcome outcome = hammer(std::chrono::milliseconds(50), 0);
  EXPECT_GE(outcome.idle_reaped, 1u) << "the reaper never raced a wake-up";
  // Before stop() the reaper is the only thing that closes a connection.
  std::uint64_t closed_before_stop = 0;
  for (const ConnLog& log : outcome.logs)
    closed_before_stop += log.closed_before_stop;
  EXPECT_LE(closed_before_stop, outcome.idle_reaped);
}

// Without a reaper to close it as idle, a connection whose wake-up was
// lost would hang: every request must be answered, on every connection.
TEST(ServerLifecycleTest, ReactorOwnershipHammerLosesNoWakeUp) {
  const HammerOutcome outcome = hammer(std::chrono::milliseconds(0), 100);
  EXPECT_EQ(outcome.idle_reaped, 0u);
  for (const ConnLog& log : outcome.logs) {
    EXPECT_FALSE(log.server_closed);
    EXPECT_EQ(log.answered, log.sent);
  }
}

// With two threads, a handler that blocks holds one of them and only its
// own connection: another connection is still accepted and answered.
TEST(ServerLifecycleTest, ReactorBlockedHandlerHoldsOnlyItsConnection) {
  ServerOptions options;
  options.mode = ServerOptions::Mode::Reactor;
  options.worker_threads = 2;
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  HttpServer server(
      0,
      [&](const Request& request) {
        if (request.target == "/block") {
          entered.set_value();
          released.wait();
        }
        Response r;
        r.body = request.target;
        return r;
      },
      options);
  server.start();
  // Opens the latch on every path out, before ~HttpServer joins.
  struct Gate {
    std::promise<void>& p;
    bool open = false;
    void release() {
      if (!open) p.set_value();
      open = true;
    }
    ~Gate() { release(); }
  } gate{release};

  TcpStream a = TcpStream::connect("127.0.0.1", server.port());
  a.write_all("GET /block HTTP/1.1\r\nHost: x\r\n\r\n");
  ASSERT_EQ(entered.get_future().wait_for(std::chrono::seconds(5)),
            std::future_status::ready);

  const auto t0 = std::chrono::steady_clock::now();
  TcpStream b = TcpStream::connect("127.0.0.1", server.port());
  b.write_all("GET /free HTTP/1.1\r\nHost: x\r\n\r\n");
  b.set_read_timeout(std::chrono::milliseconds(5'000));
  char buf[4096];
  const std::size_t n = b.read_some(buf, sizeof(buf));
  const auto took = std::chrono::steady_clock::now() - t0;
  EXPECT_NE(std::string(buf, n).find("\r\n\r\n/free"), std::string::npos);
  EXPECT_LT(took, std::chrono::milliseconds(100));

  gate.release();
  a.set_read_timeout(std::chrono::milliseconds(5'000));
  const std::size_t m = a.read_some(buf, sizeof(buf));
  EXPECT_NE(std::string(buf, m).find("\r\n\r\n/block"), std::string::npos);
  server.stop();
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

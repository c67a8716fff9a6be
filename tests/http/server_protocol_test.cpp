// HTTP wire-protocol semantics, exercised identically against both server
// modes (threaded and epoll reactor): keep-alive defaults per HTTP
// version, Connection-header echo, fragmented and pipelined input.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "http/client.hpp"
#include "http/parser.hpp"
#include "http/server.hpp"
#include "http/socket.hpp"
#include "util/error.hpp"

namespace wsc::http {
namespace {

Handler echo_handler() {
  return [](const Request& request) {
    Response response;
    response.headers.set("Content-Type", "text/plain");
    response.body = request.method + " " + request.target + "|" + request.body;
    return response;
  };
}

class ServerProtocolTest
    : public ::testing::TestWithParam<ServerOptions::Mode> {
 protected:
  ServerOptions options() const {
    ServerOptions o;
    o.mode = GetParam();
    return o;
  }
};

/// Send raw bytes, then read (blocking, bounded) until `count` complete
/// responses have been parsed or the peer closes.
std::vector<Response> raw_exchange(TcpStream& s, std::string_view bytes,
                                   std::size_t count) {
  s.write_all(bytes);
  s.set_read_timeout(std::chrono::milliseconds(5'000));
  std::vector<Response> responses;
  ResponseParser parser;
  std::string pending;
  char buf[4096];
  while (responses.size() < count) {
    while (!parser.complete() && !pending.empty()) {
      std::size_t used = parser.feed(pending);
      pending.erase(0, used);
      if (used == 0) break;
    }
    while (!parser.complete()) {
      std::size_t n = s.read_some(buf, sizeof(buf));
      if (n == 0) return responses;  // server closed
      std::size_t used = parser.feed(std::string_view(buf, n));
      if (used < n) pending.append(buf + used, n - used);
    }
    responses.push_back(parser.take());
  }
  return responses;
}

/// True when the server closes the connection within the read timeout.
bool peer_closes(TcpStream& s) {
  s.set_read_timeout(std::chrono::milliseconds(5'000));
  char buf[256];
  try {
    return s.read_some(buf, sizeof(buf)) == 0;
  } catch (const Error&) {
    return true;  // RST counts as closed
  }
}

TEST_P(ServerProtocolTest, Http11DefaultsToKeepAliveAndEchoesIt) {
  HttpServer server(0, echo_handler(), options());
  server.start();
  TcpStream s = TcpStream::connect("127.0.0.1", server.port());
  auto first = raw_exchange(s, "GET /a HTTP/1.1\r\nHost: x\r\n\r\n", 1);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].headers.get("Connection"), "keep-alive");
  // The connection must still be usable for a second request.
  auto second = raw_exchange(s, "GET /b HTTP/1.1\r\nHost: x\r\n\r\n", 1);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].body, "GET /b|");
  server.stop();
}

TEST_P(ServerProtocolTest, Http11ConnectionCloseIsHonoredAndEchoed) {
  HttpServer server(0, echo_handler(), options());
  server.start();
  TcpStream s = TcpStream::connect("127.0.0.1", server.port());
  auto r = raw_exchange(
      s, "GET / HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n", 1);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].headers.get("Connection"), "close");
  EXPECT_TRUE(peer_closes(s));
  server.stop();
}

// Regression (ISSUE 9): the server used to keep HTTP/1.0 connections open
// by default, deadlocking 1.0 clients that wait for EOF to delimit the
// response.  RFC 7230 §6.3: 1.0 closes unless the client opted in.
TEST_P(ServerProtocolTest, Http10DefaultsToClose) {
  HttpServer server(0, echo_handler(), options());
  server.start();
  TcpStream s = TcpStream::connect("127.0.0.1", server.port());
  auto r = raw_exchange(s, "GET /old HTTP/1.0\r\nHost: x\r\n\r\n", 1);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].body, "GET /old|");
  EXPECT_EQ(r[0].headers.get("Connection"), "close");
  EXPECT_TRUE(peer_closes(s));
  server.stop();
}

TEST_P(ServerProtocolTest, Http10KeepAliveOptInPersists) {
  HttpServer server(0, echo_handler(), options());
  server.start();
  TcpStream s = TcpStream::connect("127.0.0.1", server.port());
  auto first = raw_exchange(
      s, "GET /a HTTP/1.0\r\nHost: x\r\nConnection: keep-alive\r\n\r\n", 1);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].headers.get("Connection"), "keep-alive");
  auto second = raw_exchange(
      s, "GET /b HTTP/1.0\r\nHost: x\r\nConnection: keep-alive\r\n\r\n", 1);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].body, "GET /b|");
  server.stop();
}

TEST_P(ServerProtocolTest, ByteAtATimeRequestIsAssembled) {
  HttpServer server(0, echo_handler(), options());
  server.start();
  TcpStream s = TcpStream::connect("127.0.0.1", server.port());
  const std::string request =
      "POST /frag HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
  for (char c : request) {
    s.write_all(std::string_view(&c, 1));
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  auto r = raw_exchange(s, "", 1);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].body, "POST /frag|hello");
  server.stop();
}

TEST_P(ServerProtocolTest, PipelinedRequestsAllAnswersInOrder) {
  HttpServer server(0, echo_handler(), options());
  server.start();
  TcpStream s = TcpStream::connect("127.0.0.1", server.port());
  std::string burst;
  for (int i = 0; i < 8; ++i)
    burst += "GET /p/" + std::to_string(i) + " HTTP/1.1\r\nHost: x\r\n\r\n";
  auto responses = raw_exchange(s, burst, 8);
  ASSERT_EQ(responses.size(), 8u);
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(responses[i].body, "GET /p/" + std::to_string(i) + "|");
  server.stop();
}

TEST_P(ServerProtocolTest, PipelineSplitAcrossArbitraryReads) {
  HttpServer server(0, echo_handler(), options());
  server.start();
  TcpStream s = TcpStream::connect("127.0.0.1", server.port());
  std::string burst;
  for (int i = 0; i < 4; ++i)
    burst += "POST /s/" + std::to_string(i) +
             " HTTP/1.1\r\nHost: x\r\nContent-Length: 3\r\n\r\nabc";
  // Fragment the pipelined burst at awkward boundaries (mid-header,
  // mid-body) so requests straddle reads.
  for (std::size_t off = 0; off < burst.size(); off += 7) {
    s.write_all(std::string_view(burst).substr(off, 7));
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  auto responses = raw_exchange(s, "", 4);
  ASSERT_EQ(responses.size(), 4u);
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(responses[i].body, "POST /s/" + std::to_string(i) + "|abc");
  server.stop();
}

TEST_P(ServerProtocolTest, HandlerThrowingNonStdExceptionYields500) {
  Handler thrower = [](const Request& request) -> Response {
    if (request.target == "/boom") throw 42;  // not a std::exception
    Response r;
    r.body = "ok";
    return r;
  };
  HttpServer server(0, thrower, options());
  server.start();
  TcpStream s = TcpStream::connect("127.0.0.1", server.port());
  auto r = raw_exchange(s, "GET /boom HTTP/1.1\r\nHost: x\r\n\r\n", 1);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].status, 500);
  // Server (and this very connection) still serving.
  auto ok = raw_exchange(s, "GET /fine HTTP/1.1\r\nHost: x\r\n\r\n", 1);
  ASSERT_EQ(ok.size(), 1u);
  EXPECT_EQ(ok[0].body, "ok");
  server.stop();
}

// A response larger than the socket buffers must reach a reader that
// keeps reading, in both modes: the reactor puts no cap on a response's
// size, it streams it out as the peer drains it.
TEST_P(ServerProtocolTest, LargeResponseReachesAFastReader) {
  constexpr std::size_t kBody = 5 * 1024 * 1024;
  Handler big = [](const Request&) {
    Response r;
    r.body.assign(kBody, 'x');
    r.body.back() = 'y';
    return r;
  };
  HttpServer server(0, big, options());
  server.start();
  SocketOptions socket_options;
  socket_options.read_timeout = std::chrono::milliseconds(5'000);
  HttpConnection conn("127.0.0.1", server.port(), socket_options);
  Response r = conn.round_trip(Request{});
  EXPECT_EQ(r.status, 200);
  ASSERT_EQ(r.body.size(), kBody);
  EXPECT_EQ(r.body.back(), 'y');
  EXPECT_EQ(server.stats().responses.load(), 1u);
  server.stop();
}

// handler_ns covers the handler; request_ns runs from the handler's start
// to the response's last byte written, so it contains handler_ns.
TEST_P(ServerProtocolTest, StageCountersSpanTheHandlerAndTheWrite) {
  Handler slow = [](const Request&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    Response r;
    r.body = "slow";
    return r;
  };
  HttpServer server(0, slow, options());
  server.start();
  HttpConnection conn("127.0.0.1", server.port());
  EXPECT_EQ(conn.round_trip(Request{}).body, "slow");
  server.stop();  // joins the thread that recorded the write
  const ServerStats& stats = server.stats();
  EXPECT_GE(stats.handler_ns.load(), 20'000'000u);
  EXPECT_GE(stats.request_ns.load(), stats.handler_ns.load());
  EXPECT_EQ(stats.dispatch_depth.load(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ServerProtocolTest,
    ::testing::Values(ServerOptions::Mode::Threaded,
                      ServerOptions::Mode::Reactor),
    [](const ::testing::TestParamInfo<ServerOptions::Mode>& info) {
      return info.param == ServerOptions::Mode::Reactor ? "Reactor"
                                                        : "Threaded";
    });

}  // namespace
}  // namespace wsc::http

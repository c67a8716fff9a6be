// Epoll-based HTTP load engine: drives thousands of concurrent keep-alive
// connections from ONE thread (the server under test gets the cores).
//
// Two driving disciplines:
//  * closed loop — each connection fires its next request the moment the
//    previous response lands; measures best-case service latency and the
//    saturation throughput of the server.
//  * open loop — requests arrive on a fixed global schedule regardless of
//    how fast the server answers; latency is measured from the SCHEDULED
//    send time, so a stalled server accrues the queueing delay a real
//    client population would see (no coordinated omission).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>

#include "util/histogram.hpp"

namespace wsc::http {

struct LoadOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::size_t connections = 1;
  std::string method = "GET";
  std::string target = "/";
  std::string body;
  /// Per-request target.  When set, it is called on the load thread once
  /// per request, in send order across all connections, and its result
  /// replaces `target`; when empty, every request is the same prebuilt
  /// bytes.
  std::function<std::string()> next_target;

  std::chrono::milliseconds warmup{500};
  std::chrono::milliseconds duration{5'000};

  /// 0 = closed loop; otherwise total requests/second across all
  /// connections, paced on a fixed schedule (open loop).
  double open_rps = 0;
};

struct LoadReport {
  std::uint64_t connected = 0;  // connections that completed the handshake
  std::uint64_t requests = 0;   // responses completed inside the window
  std::uint64_t errors = 0;     // transport failures + non-2xx statuses
  double seconds = 0;           // measured window length
  double rps = 0;

  // Latency percentiles in microseconds (from send — or scheduled send in
  // open loop — to full response parsed).
  double p50_us = 0;
  double p90_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  double max_us = 0;

  util::Histogram latency_ns;

  std::string json() const;
};

/// Run one load scenario to completion.  Throws wsc::Error when the server
/// cannot be reached at all; per-connection failures mid-run only bump
/// `errors`.
LoadReport run_load(const LoadOptions& options);

}  // namespace wsc::http

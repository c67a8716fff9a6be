// Connection-layer telemetry shared by both HttpServer modes (threaded
// and reactor).  Plain relaxed atomics, readable from any thread, each
// declared once in kServerFields; the portal bridges them into its
// MetricsRegistry (wsc_server_* families) and the /stats document via
// PortalSite::attach_server().  handler_ns and request_ns split a
// request's server time: request_ns - handler_ns is what the server
// itself adds (serializing and writing the response).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "obs/field_table.hpp"

namespace wsc::http {

struct ServerStats {
  // Counters (monotonic).
  std::atomic<std::uint64_t> connections_accepted{0};
  std::atomic<std::uint64_t> connections_closed{0};
  std::atomic<std::uint64_t> idle_reaped{0};
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> responses{0};
  std::atomic<std::uint64_t> handler_errors{0};
  std::atomic<std::uint64_t> limit_rejected{0};
  std::atomic<std::uint64_t> protocol_errors{0};
  std::atomic<std::uint64_t> accept_pauses{0};
  std::atomic<std::uint64_t> workers_reaped{0};
  std::atomic<std::uint64_t> bytes_in{0};
  std::atomic<std::uint64_t> bytes_out{0};
  std::atomic<std::uint64_t> handler_ns{0};
  std::atomic<std::uint64_t> request_ns{0};
  std::atomic<std::uint64_t> connections_active{0};
  std::atomic<std::uint64_t> connections_idle{0};
  std::atomic<std::uint64_t> dispatch_depth{0};
  std::atomic<std::uint64_t> worker_threads{0};

  std::uint64_t get(const std::atomic<std::uint64_t>& c) const {
    return c.load(std::memory_order_relaxed);
  }
};

/// Every ServerStats field, in /stats order; the wsc_server_* families
/// and the /stats "server" object are generated from it.
inline constexpr auto kServerFields =
    std::to_array<obs::Field<ServerStats, std::atomic<std::uint64_t>>>({
    {"connections_accepted", "Connections accepted since start.",
     obs::kCounter, &ServerStats::connections_accepted},
    {"connections_active", "Connections currently open.", obs::kGauge,
     &ServerStats::connections_active},
    {"connections_idle", "Keep-alive connections parked between requests.",
     obs::kGauge, &ServerStats::connections_idle},
    {"connections_closed", "Connections closed since start.", obs::kCounter,
     &ServerStats::connections_closed},
    {"idle_reaped", "Keep-alive connections closed by the idle timeout.",
     obs::kCounter, &ServerStats::idle_reaped},
    {"requests", "Requests fully parsed.", obs::kCounter,
     &ServerStats::requests},
    {"responses", "Responses written.", obs::kCounter, &ServerStats::responses},
    {"handler_errors", "Handler exceptions mapped to 500.", obs::kCounter,
     &ServerStats::handler_errors},
    {"limit_rejected", "Requests rejected with 431/413 (size caps).",
     obs::kCounter, &ServerStats::limit_rejected},
    {"protocol_errors", "Malformed requests / dropped connections.",
     obs::kCounter, &ServerStats::protocol_errors},
    {"accept_pauses", "Times accept pacing engaged (backpressure).",
     obs::kCounter, &ServerStats::accept_pauses},
    {"workers_reaped", "Finished worker threads joined (threaded mode).",
     obs::kCounter, &ServerStats::workers_reaped},
    {"worker_threads", "Live handler threads.", obs::kGauge,
     &ServerStats::worker_threads},
    {"dispatch_depth", "Requests whose handler is running.", obs::kGauge,
     &ServerStats::dispatch_depth},
    {"bytes_in", "Request bytes read.", obs::kCounter, &ServerStats::bytes_in},
    {"bytes_out", "Response bytes written.", obs::kCounter,
     &ServerStats::bytes_out},
    {"handler_ns", "Wall time inside request handlers, in nanoseconds.",
     obs::kCounter, &ServerStats::handler_ns},
    {"request_ns",
     "Time from each handler's start to its response's last byte accepted "
     "by the kernel, in nanoseconds.",
     obs::kCounter, &ServerStats::request_ns},
});

/// The clock behind handler_ns, request_ns and the reactor's idle
/// deadlines: steady_clock (CLOCK_MONOTONIC), in nanoseconds.
inline std::uint64_t server_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Prefix of the server's Prometheus families.
inline constexpr std::string_view kServerMetricPrefix = "wsc_server_";

/// One consistent-enough JSON object for the portal's /stats endpoint.
inline std::string server_stats_json(const ServerStats& s) {
  return "{" + obs::fields_json(s, kServerFields) + "}";
}

}  // namespace wsc::http

// The portal site of Figure 2: a web front-end whose pages are rendered
// from back-end Web-services calls made through the caching client
// middleware.
//
//   http::run_load + QueryMix --HTTP--> portal (this) --SOAP/HTTP--> dummy
//                                                          Google WS
//
// GET /portal?q=<query> renders an HTML results page around one
// doGoogleSearch call; the response cache in the middleware is what the
// Figure 3/4 experiments measure.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/client.hpp"
#include "http/server.hpp"
#include "obs/metrics.hpp"
#include "obs/profiles.hpp"
#include "services/google/stub.hpp"

namespace wsc::portal {

struct PortalConfig {
  /// SOAP endpoint of the backend Google service.
  std::string backend_endpoint;
  std::shared_ptr<transport::Transport> transport;
  /// Middleware configuration (key method, policy/representation).
  cache::CachingServiceClient::Options options;
  /// Shared response cache; created internally when null.
  std::shared_ptr<cache::ResponseCache> response_cache;
  /// Metrics registry behind the /metrics admin endpoint; created
  /// internally (pre-wired with the cache, tracer, process/build info and
  /// event counters) when null.
  std::shared_ptr<obs::MetricsRegistry> metrics;
  /// Cost-profile registry behind /profiles; created internally when null
  /// and injected into the middleware options (sampling every call — the
  /// portal is the observability showcase, not the overhead benchmark).
  std::shared_ptr<obs::CostProfiles> profiles;
  /// Adaptive representation policy behind /adaptive; created internally
  /// (sharing `profiles`) when null and injected into the middleware
  /// options, closing the cost-model loop by default.
  std::shared_ptr<cache::AdaptivePolicy> adaptive;
};

class PortalSite {
 public:
  explicit PortalSite(PortalConfig config);

  /// Render the results page for a query (one backend call through the
  /// caching middleware + HTML generation).
  std::string render_page(const std::string& query);

  /// HTTP handler.  Routes:
  ///   GET /portal?q=...  -> text/html results page
  ///   GET /stats         -> application/json StatsSnapshot counters
  ///                         (+ a "server" section after attach_server())
  ///   GET /metrics       -> Prometheus text exposition (version 0.0.4)
  ///   GET /profiles      -> application/json per-representation cost rows
  ///                         + merged hot keys + cache footprint
  ///   GET /adaptive      -> application/json adaptive-policy state (per
  ///                         operation: current representation, candidate
  ///                         scores, switches, memory pressure)
  ///   GET /events        -> application/json recent structured events
  http::Handler handler();

  /// Bridge the serving HttpServer's connection-layer telemetry into
  /// /metrics (wsc_server_* families) and /stats ("server" object).  Call
  /// once, after constructing the server with this site's handler(); the
  /// server must outlive the site.
  void attach_server(const http::HttpServer& server);

  cache::ResponseCache& response_cache() noexcept { return *cache_; }
  services::google::GoogleClient& google() noexcept { return *google_; }
  obs::MetricsRegistry& metrics() noexcept { return *metrics_; }
  obs::CostProfiles& profiles() noexcept { return *profiles_; }
  cache::AdaptivePolicy& adaptive() noexcept { return *adaptive_; }

 private:
  std::string profiles_json() const;

  std::shared_ptr<cache::ResponseCache> cache_;
  std::shared_ptr<obs::MetricsRegistry> metrics_;
  std::shared_ptr<obs::CostProfiles> profiles_;
  std::shared_ptr<cache::AdaptivePolicy> adaptive_;
  obs::Summary* request_latency_ = nullptr;  // owned by *metrics_
  const http::ServerStats* server_stats_ = nullptr;  // attach_server()
  std::unique_ptr<services::google::GoogleClient> google_;
};

/// The closed-loop query mix of the Figure 3/4 runs (the IBM Web
/// Performance Tool's script), as an http::LoadOptions::next_target hook.
/// The hit ratio is exact, not stochastic: a hit names one of
/// `hot_set_size` hot queries, which warm() stores before the measured
/// window opens; a miss names a fresh query that never repeats.  Hits and
/// misses interleave so that every prefix of n requests, across all
/// connections, holds within 1 of hit_ratio * n hits.
struct QueryMix {
  double hit_ratio = 1.0;
  int hot_set_size = 16;
  std::uint64_t seed = 42;

  /// Member `k % hot_set_size` of the hot set.
  std::string hot_query(std::uint64_t k) const;
  /// Render every hot-set page through `site`, so each one is cached.
  void warm(PortalSite& site) const;
  /// A fresh hook yielding "/portal?q=..." targets.  Throws wsc::Error on
  /// a ratio outside [0, 1] or an empty hot set.
  std::function<std::string()> targets() const;
};

}  // namespace wsc::portal

#include "portal/portal.hpp"

#include "core/adaptive_policy.hpp"
#include "core/metrics_bridge.hpp"
#include "obs/build_info.hpp"
#include "obs/events.hpp"
#include "obs/trace.hpp"
#include "portal/query_string.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "xml/escape.hpp"

namespace wsc::portal {

using services::google::GoogleClient;
using services::google::GoogleSearchResult;

PortalSite::PortalSite(PortalConfig config)
    : cache_(config.response_cache ? std::move(config.response_cache)
                                   : std::make_shared<cache::ResponseCache>()),
      metrics_(std::move(config.metrics)),
      profiles_(config.profiles ? std::move(config.profiles)
                                : std::make_shared<obs::CostProfiles>()),
      adaptive_(config.adaptive
                    ? std::move(config.adaptive)
                    : std::make_shared<cache::AdaptivePolicy>(profiles_)) {
  if (!metrics_) {
    metrics_ = std::make_shared<obs::MetricsRegistry>();
    cache::register_cache_metrics(*metrics_, *cache_);
    cache::register_adaptive_metrics(*metrics_, *adaptive_);
    obs::register_tracer_metrics(*metrics_, obs::tracer());
    obs::register_process_metrics(*metrics_);
    obs::register_event_metrics(*metrics_, obs::event_log());
  }
  // The portal is the observability showcase: feed the cost-profile
  // registry from every call (no sampling), track hot keys on every
  // lookup, and flag slow miss-path calls — unless the caller configured
  // these knobs explicitly.
  if (!config.options.profiles) {
    config.options.profiles = profiles_;
    config.options.profile_sample_every = 1;
  }
  // Close the loop by default: the Auto representation policy starts at
  // the trait choice and converges on what this deployment's live cost
  // rows say is optimal.  An explicitly configured options.adaptive (even
  // null semantics differ: PortalConfig::adaptive set) still wins.
  if (!config.options.adaptive) config.options.adaptive = adaptive_;
  if (config.options.slow_call_threshold_ns == 0)
    config.options.slow_call_threshold_ns = 50'000'000;  // 50 ms
  // A popular portal query is exactly the thundering-herd shape the
  // single-flight layer guards against (DESIGN.md §11): when the deployer
  // made doGoogleSearch cacheable but left the anti-herd knobs unset,
  // default to serving stale-within-grace while ONE background refresh
  // runs, and to renewing the entry ahead of expiry on hot keys.
  {
    const cache::OperationPolicy& search =
        config.options.policy.lookup("doGoogleSearch");
    if (search.cacheable) {
      if (search.staleness.stale_while_revalidate.count() == 0)
        config.options.policy.stale_while_revalidate("doGoogleSearch",
                                                     std::chrono::seconds(30));
      if (search.refresh_ahead == 0.0)
        config.options.policy.refresh_ahead("doGoogleSearch", 0.8);
    }
  }
  cache_->enable_hot_key_tracking({/*capacity=*/64, /*sample_every=*/1});
  request_latency_ = &metrics_->summary(
      "wsc_portal_request_ns", "Portal page render latency (ns), end to end.");
  google_ = std::make_unique<GoogleClient>(std::move(config.transport),
                                           std::move(config.backend_endpoint),
                                           cache_, std::move(config.options));
  obs::event_log().emit(obs::EventKind::Lifecycle, "portal",
                        "portal telemetry online");
}

void PortalSite::attach_server(const http::HttpServer& server) {
  server_stats_ = &server.stats();
  obs::register_fields(*metrics_, http::kServerMetricPrefix,
                       http::kServerFields, {},
                       [s = server_stats_]() -> const http::ServerStats& {
                         return *s;
                       });
}

std::string PortalSite::profiles_json() const {
  // One composed document: the cost-model rows, the hottest keys, and the
  // cache footprint they add up to — everything the adaptive-selection
  // policy (and cachetop) needs in one scrape.
  std::string out = "{\"window\": \"";
  out += profiles_->window_label();
  out += "\", \"rows\": ";
  out += profiles_->json_rows();
  out += ", \"hot_keys\": [";
  bool first = true;
  for (const obs::TopKSketch::HotKey& hot : cache_->hot_keys(16)) {
    if (!first) out += ", ";
    first = false;
    out += "{\"key\": \"" + util::json::escape(hot.key) +
           "\", \"count\": " + std::to_string(hot.count) +
           ", \"error\": " + std::to_string(hot.error) + "}";
  }
  const cache::ResponseCache::Footprint footprint = cache_->footprint();
  out += "], \"cache\": {\"entries\": " + std::to_string(footprint.entries) +
         ", \"bytes\": " + std::to_string(footprint.bytes) + "}}";
  return out;
}

std::string PortalSite::render_page(const std::string& query) {
  GoogleSearchResult result = google_->doGoogleSearch(query);

  // HTML rendering is intentionally straightforward string building — the
  // portal's own work should be cheap next to the middleware path, as in
  // the paper's setup.
  std::string html = "<html><head><title>Portal: " + xml::escape_text(query) +
                     "</title></head><body>";
  html += "<h1>Results for \"" + xml::escape_text(query) + "\"</h1>";
  html += "<p>about " + std::to_string(result.estimatedTotalResultsCount) +
          " results in " + std::to_string(result.searchTime) + "s</p><ol>";
  for (const auto& e : result.resultElements) {
    html += "<li><a href=\"" + e.URL + "\">" + xml::escape_text(e.title) +
            "</a><br/>" + xml::escape_text(e.snippet) + "<br/><small>" +
            e.hostName + " - " + e.cachedSize + "</small></li>";
  }
  html += "</ol><hr/><ul>";
  for (const auto& dc : result.directoryCategories)
    html += "<li>" + xml::escape_text(dc.fullViewableName) + "</li>";
  html += "</ul></body></html>";
  return html;
}

http::Handler PortalSite::handler() {
  return [this](const http::Request& request) {
    http::Response response;
    ParsedTarget target = parse_target(request.target);
    if (target.path == "/stats") {
      response.headers.set("Content-Type", "application/json");
      std::string body = cache::stats_json(cache_->stats());
      if (server_stats_ && !body.empty() && body.back() == '}') {
        // Splice the connection-layer section into the same document so
        // one scrape sees cache and server state together.
        body.pop_back();
        body += ", \"server\": " + http::server_stats_json(*server_stats_) +
                "}";
      }
      response.body = std::move(body);
      return response;
    }
    if (target.path == "/metrics") {
      response.headers.set("Content-Type",
                           "text/plain; version=0.0.4; charset=utf-8");
      response.body = metrics_->prometheus_text();
      return response;
    }
    if (target.path == "/profiles") {
      response.headers.set("Content-Type", "application/json");
      response.body = profiles_json();
      return response;
    }
    if (target.path == "/adaptive") {
      response.headers.set("Content-Type", "application/json");
      response.body = adaptive_->json();
      return response;
    }
    if (target.path == "/events") {
      response.headers.set("Content-Type", "application/json");
      response.body = obs::event_log().json();
      return response;
    }
    if (target.path != "/portal") {
      response.status = 404;
      response.body = "not found";
      return response;
    }
    auto q = target.query.find("q");
    if (q == target.query.end() || q->second.empty()) {
      response.status = 400;
      response.body = "missing q parameter";
      return response;
    }
    response.headers.set("Content-Type", "text/html; charset=utf-8");
    const std::uint64_t t0 = obs::now_ns();
    response.body = render_page(q->second);
    request_latency_->record(obs::now_ns() - t0);
    return response;
  };
}

std::string QueryMix::hot_query(std::uint64_t k) const {
  return "hot-" + std::to_string(seed) + "-" +
         std::to_string(k % static_cast<std::uint64_t>(hot_set_size));
}

void QueryMix::warm(PortalSite& site) const {
  for (int k = 0; k < hot_set_size; ++k)
    site.render_page(hot_query(static_cast<std::uint64_t>(k)));
}

std::function<std::string()> QueryMix::targets() const {
  if (hot_set_size < 1 || !(hit_ratio >= 0 && hit_ratio <= 1))
    throw Error("QueryMix: invalid configuration");
  return [mix = *this, sent = std::uint64_t{0},
          hits = std::uint64_t{0}]() mutable {
    ++sent;
    // A hit whenever the running hit count falls below the target prefix.
    const bool hit = static_cast<double>(hits) <
                     mix.hit_ratio * static_cast<double>(sent) - 1e-9;
    const std::string query =
        hit ? mix.hot_query(hits++)
            : "miss-" + std::to_string(mix.seed) + "-" + std::to_string(sent);
    return "/portal?q=" + url_encode(query);
  };
}

}  // namespace wsc::portal

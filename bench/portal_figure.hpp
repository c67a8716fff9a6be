// Shared driver for Figures 3 and 4: the §5.2 portal-site scenario.
//
//   load simulator --HTTP--> portal --caching middleware/SOAP-HTTP--> dummy
//   Google service (returns deterministic responses, "not too demanding")
//
// For each cache-value representation and each target hit ratio in
// {0,20,...,100}%, a closed-loop load run measures portal throughput and
// mean response time.  The paper's claims:
//   Fig 3 (1 client):  at 100% hits, XML ~1.5x, SAX ~2x, objects ~3x the
//                      0% throughput; object methods indistinguishable.
//   Fig 4 (25 clients, CPU saturated): objects reach ~5x throughput and
//                      ~8x shorter response times.
#pragma once

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench/trace_report.hpp"
#include "http/server.hpp"
#include "obs/trace.hpp"
#include "portal/load_sim.hpp"
#include "portal/portal.hpp"
#include "services/google/service.hpp"
#include "transport/http_transport.hpp"
#include "transport/soap_http.hpp"

namespace wsc::bench {

inline cache::CachePolicy figure_policy(cache::Representation rep) {
  cache::OperationPolicy p;
  p.cacheable = true;
  p.ttl = std::chrono::hours(1);
  if (rep == cache::Representation::Reference) {
    // §4.2.4: the administrator declares search results read-only; the
    // portal renders and discards them, so sharing is safe.
    p.representation = cache::Representation::Reference;
    p.read_only = true;
  } else {
    p.representation = rep;
  }
  cache::CachePolicy policy;
  policy.set("doGoogleSearch", p);
  return policy;
}

struct FigurePoint {
  cache::Representation rep;
  int hit_percent;
  double throughput_rps;
  double mean_ms;
  double p95_ms;
};

/// Run the whole figure.  `requests_per_point` is the measured request
/// count per (representation, ratio) cell, split across `concurrency`
/// virtual clients.  With `trace` the process tracer covers every
/// middleware call the portal makes and the per-stage breakdown is printed
/// after the sweep.
inline std::vector<FigurePoint> run_portal_figure(int concurrency,
                                                  int requests_per_point,
                                                  const char* figure_name,
                                                  bool trace = false) {
  if (trace) {
    obs::tracer().reset();
    obs::tracer().set_enabled(true);
    obs::tracer().set_sample_every(256);
  }
  std::printf(
      "%s: portal throughput & mean response time vs cache-hit ratio "
      "(%d concurrent client%s, %d requests/point)\n",
      figure_name, concurrency, concurrency == 1 ? "" : "s",
      requests_per_point);
  std::printf("%-22s %6s %14s %10s %10s\n", "representation", "hit%",
              "throughput", "mean_ms", "p95_ms");

  // Backend: dummy Google service over real HTTP (one instance for all
  // points — it is stateless and deterministic).
  auto backend = std::make_shared<services::google::GoogleBackend>();
  auto soap_server = transport::serve_soap(
      0, "/soap/google", services::google::make_google_service(backend));
  std::string backend_endpoint = soap_server->base_url() + "/soap/google";

  std::vector<FigurePoint> points;
  for (cache::Representation rep : cache::kConcreteRepresentations) {
    for (int hit = 0; hit <= 100; hit += 20) {
      portal::PortalConfig config;
      config.backend_endpoint = backend_endpoint;
      config.transport = std::make_shared<transport::HttpTransport>();
      config.options.key_method = cache::KeyMethod::ToString;  // §5.2 choice
      config.options.policy = figure_policy(rep);
      portal::PortalSite site(std::move(config));
      http::HttpServer portal_server(0, site.handler());
      portal_server.start();

      portal::LoadConfig load;
      load.concurrency = concurrency;
      load.requests_per_client = requests_per_point / concurrency;
      load.hit_ratio = hit / 100.0;
      load.hot_set_size = 16;
      load.seed = 1234 + static_cast<std::uint64_t>(hit);
      portal::LoadReport report =
          portal::run_load_http(portal_server.base_url(), load);
      portal_server.stop();

      FigurePoint p;
      p.rep = rep;
      p.hit_percent = hit;
      p.throughput_rps = report.throughput_rps;
      p.mean_ms = report.mean_response_ms();
      p.p95_ms = static_cast<double>(report.latency.percentile(0.95)) / 1e6;
      points.push_back(p);
      std::printf("%-22s %5d%% %12.0f/s %10.3f %10.3f\n",
                  std::string(cache::representation_name(rep)).c_str(), hit,
                  p.throughput_rps, p.mean_ms, p.p95_ms);
    }
  }
  soap_server->stop();

  // Endpoint summary: speedups at 100% hits relative to 0%.
  std::printf("\n%s summary: 100%%-hit vs 0%%-hit\n", figure_name);
  std::printf("%-22s %12s %14s\n", "representation", "throughput_x",
              "resp_time_1/x");
  for (cache::Representation rep : cache::kConcreteRepresentations) {
    double t0 = 0, t100 = 0, m0 = 0, m100 = 0;
    for (const FigurePoint& p : points) {
      if (p.rep != rep) continue;
      if (p.hit_percent == 0) {
        t0 = p.throughput_rps;
        m0 = p.mean_ms;
      }
      if (p.hit_percent == 100) {
        t100 = p.throughput_rps;
        m100 = p.mean_ms;
      }
    }
    std::printf("%-22s %11.2fx %13.2fx\n",
                std::string(cache::representation_name(rep)).c_str(),
                t0 > 0 ? t100 / t0 : 0.0, m100 > 0 ? m0 / m100 : 0.0);
  }

  if (trace) {
    print_trace_breakdown(obs::tracer().snapshot(), /*min_calls=*/8);
    obs::tracer().set_enabled(false);
  }
  return points;
}

inline int figure_requests(int argc, char** argv, int dflt) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) return dflt / 10;
  }
  return dflt;
}

}  // namespace wsc::bench

// Shared driver for Figures 3 and 4: the §5.2 portal-site scenario.
//
//   http::run_load + portal::QueryMix --HTTP--> portal --caching
//   middleware/SOAP-HTTP--> dummy Google service (returns deterministic
//   responses, "not too demanding")
//
// For each cache-value representation and each target hit ratio in
// {0,20,...,100}%, one closed-loop run of the epoll load engine measures
// portal throughput and mean response time over a fixed window.  The
// paper's claims:
//   Fig 3 (1 client):  at 100% hits, XML ~1.5x, SAX ~2x, objects ~3x the
//                      0% throughput; object methods indistinguishable.
//   Fig 4 (25 clients, CPU saturated): objects reach ~5x throughput and
//                      ~8x shorter response times.
// The figure exits nonzero when a point ran wrong (errors, a connection
// that never came up, or nothing measured); no number is gated.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/trace_report.hpp"
#include "http/load_client.hpp"
#include "http/server.hpp"
#include "obs/trace.hpp"
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
};

/// Measured window of one point (--quick runs a tenth of it).  The
/// slowest points, Fig 3 at 0% hits (3k-7k req/s on a 4-core host),
/// measure at least 1000 requests in it.
constexpr std::chrono::milliseconds kPointDuration{600};
constexpr std::chrono::milliseconds kPointWarmup{100};

/// CPU seconds the calling thread has used (user + system).
inline double thread_cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_THREAD, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// Run the whole figure with `connections` closed-loop clients; returns
/// the process exit status.  `gen_cpu%` is the load thread's CPU share of
/// the run (marked `!` at 90% or more: the generator, not the portal, may
/// be the bottleneck).  With `trace` the process tracer covers every
/// middleware call the portal makes and the per-stage breakdown is printed
/// after the sweep.
inline int run_portal_figure(std::size_t connections, bool quick,
                             const char* figure_name, bool trace = false) {
  if (trace) {
    obs::tracer().reset();
    obs::tracer().set_enabled(true);
    obs::tracer().set_sample_every(256);
  }
  const int scale = quick ? 10 : 1;
  std::printf(
      "%s: portal throughput & mean response time vs cache-hit ratio "
      "(%zu concurrent client%s, %lld ms/point)\n",
      figure_name, connections, connections == 1 ? "" : "s",
      static_cast<long long>(kPointDuration.count() / scale));
  std::printf("%-22s %6s %14s %10s %10s %9s %9s\n", "representation", "hit%",
              "throughput", "mean_ms", "p95_ms", "requests", "gen_cpu%");

  // Backend: dummy Google service over real HTTP (one instance for all
  // points — it is stateless and deterministic).
  auto backend = std::make_shared<services::google::GoogleBackend>();
  auto soap_server = transport::serve_soap(
      0, "/soap/google", services::google::make_google_service(backend));
  std::string backend_endpoint = soap_server->base_url() + "/soap/google";

  std::vector<FigurePoint> points;
  int failed = 0;
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

      portal::QueryMix mix;
      mix.hit_ratio = hit / 100.0;
      mix.seed = 1234 + static_cast<std::uint64_t>(hit);
      mix.warm(site);
      http::LoadOptions load;
      load.port = portal_server.port();
      load.connections = connections;
      load.warmup = kPointWarmup / scale;
      load.duration = kPointDuration / scale;
      load.next_target = mix.targets();
      const auto wall0 = std::chrono::steady_clock::now();
      const double cpu0 = thread_cpu_seconds();
      http::LoadReport report = http::run_load(load);
      const double gen_cpu =
          100.0 * (thread_cpu_seconds() - cpu0) /
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        wall0)
              .count();
      portal_server.stop();

      const std::string name(cache::representation_name(rep));
      FigurePoint p{rep, hit, report.rps, report.latency_ns.mean() / 1e6};
      points.push_back(p);
      std::printf("%-22s %5d%% %12.0f/s %10.3f %10.3f %9llu %8.0f%s\n",
                  name.c_str(), hit, p.throughput_rps, p.mean_ms,
                  static_cast<double>(report.latency_ns.percentile(0.95)) /
                      1e6,
                  static_cast<unsigned long long>(report.requests), gen_cpu,
                  gen_cpu >= 90 ? "!" : "");
      if (report.errors > 0 || report.connected < connections ||
          report.requests == 0) {
        std::fprintf(stderr,
                     "%s %s %d%%: wrong run: %llu errors, %llu of %zu "
                     "connections, %llu requests\n",
                     figure_name, name.c_str(), hit,
                     static_cast<unsigned long long>(report.errors),
                     static_cast<unsigned long long>(report.connected),
                     connections,
                     static_cast<unsigned long long>(report.requests));
        ++failed;
      }
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
  if (failed > 0)
    std::fprintf(stderr, "%s: %d point(s) ran wrong\n", figure_name, failed);
  return failed > 0 ? 1 : 0;
}

inline bool quick_requested(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) return true;
  }
  return false;
}

}  // namespace wsc::bench

// Portal-site scenario (paper §5.2, Figure 2), live:
//
//   http::run_load + portal::QueryMix --HTTP--> portal site --SOAP/HTTP-->
//                                                    dummy Google WS
//
// Runs the full topology on loopback, sweeps the cache-hit ratio with the
// epoll load engine (4 closed-loop connections, a fixed window per point)
// and prints throughput / response-time lines like the Figure 3 series.
// Optionally serves the portal for manual browsing.
//
//   build/examples/portal_site                 # run the sweep and exit
//   build/examples/portal_site --serve         # keep serving (ctrl-C quits)
//   build/examples/portal_site --port 8080     # pin the portal listen port
//   build/examples/portal_site --no-sweep      # skip the sweep (CI smoke)
//   build/examples/portal_site --mode threaded # thread-per-connection server
//                                              # (default: epoll reactor)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "http/load_client.hpp"
#include "http/server.hpp"
#include "portal/portal.hpp"
#include "services/google/service.hpp"
#include "transport/http_transport.hpp"
#include "transport/soap_http.hpp"

using namespace wsc;

int main(int argc, char** argv) {
  bool serve = false;
  bool sweep = true;
  int port = 0;  // 0 = ephemeral
  http::ServerOptions server_options;
  server_options.mode = http::ServerOptions::Mode::Reactor;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--serve") == 0) {
      serve = true;
    } else if (std::strcmp(argv[i], "--no-sweep") == 0) {
      sweep = false;
    } else if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      port = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--mode") == 0 && i + 1 < argc) {
      const char* mode = argv[++i];
      if (std::strcmp(mode, "threaded") == 0) {
        server_options.mode = http::ServerOptions::Mode::Threaded;
      } else if (std::strcmp(mode, "reactor") == 0) {
        server_options.mode = http::ServerOptions::Mode::Reactor;
      } else {
        std::fprintf(stderr, "unknown --mode %s\n", mode);
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--serve] [--no-sweep] [--port N] "
                   "[--mode threaded|reactor]\n",
                   argv[0]);
      return 2;
    }
  }

  // Backend: dummy Google Web service on its own HTTP server.
  auto backend = std::make_shared<services::google::GoogleBackend>();
  auto soap_server = transport::serve_soap(
      0, "/soap/google", services::google::make_google_service(backend));
  std::string backend_endpoint = soap_server->base_url() + "/soap/google";
  std::printf("backend Google WS : %s\n", backend_endpoint.c_str());

  // Portal: caching client middleware with the section-6 Auto policy.
  portal::PortalConfig config;
  config.backend_endpoint = backend_endpoint;
  config.transport = std::make_shared<transport::HttpTransport>();
  config.options.key_method = cache::KeyMethod::ToString;
  config.options.policy = services::google::default_google_policy();
  portal::PortalSite site(std::move(config));
  http::HttpServer portal_server(static_cast<std::uint16_t>(port),
                                 site.handler(), server_options);
  site.attach_server(portal_server);
  portal_server.start();
  std::printf("portal mode       : %s\n",
              server_options.mode == http::ServerOptions::Mode::Reactor
                  ? "reactor (epoll)"
                  : "threaded");
  std::printf("portal site       : %s/portal?q=anything\n",
              portal_server.base_url().c_str());
  std::printf("admin endpoints   : %s/stats  %s/metrics  %s/adaptive\n\n",
              portal_server.base_url().c_str(),
              portal_server.base_url().c_str(),
              portal_server.base_url().c_str());

  if (sweep) {
    std::printf(
        "hit%%   throughput     mean    p95   (cache: auto representation)\n");
    for (int hit = 0; hit <= 100; hit += 25) {
      site.response_cache().clear();
      portal::QueryMix mix;
      mix.hit_ratio = hit / 100.0;
      mix.hot_set_size = 8;
      mix.warm(site);
      http::LoadOptions load;
      load.port = portal_server.port();
      load.connections = 4;
      load.warmup = std::chrono::milliseconds(50);
      load.duration = std::chrono::milliseconds(250);
      load.next_target = mix.targets();
      http::LoadReport report = http::run_load(load);
      std::printf("%3d%%  %9.0f/s  %6.2fms %6.2fms\n", hit, report.rps,
                  report.latency_ns.mean() / 1e6,
                  static_cast<double>(report.latency_ns.percentile(0.95)) /
                      1e6);
    }
    std::printf("\nfinal cache state: %s\n",
                site.response_cache().stats().to_string().c_str());
  }

  if (serve) {
    std::printf("\nserving; open %s/portal?q=hello (ctrl-C to quit)\n",
                portal_server.base_url().c_str());
    for (;;) std::this_thread::sleep_for(std::chrono::seconds(3600));
  }
  portal_server.stop();
  soap_server->stop();
  return 0;
}

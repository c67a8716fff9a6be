// Full-stack integration: portal pages and Google operations over REAL
// loopback HTTP (client middleware -> HttpTransport -> HttpServer -> SOAP
// dispatcher -> dummy backend), the complete Figure-2 topology.
#include <gtest/gtest.h>

#include <atomic>

#include "http/client.hpp"
#include "http/load_client.hpp"
#include "http/server.hpp"
#include "portal/portal.hpp"
#include "services/google/service.hpp"
#include "services/google/stub.hpp"
#include "tests/core/representation_params.hpp"
#include "transport/http_transport.hpp"
#include "transport/soap_http.hpp"
#include "wsdl/wsdl_writer.hpp"

namespace wsc {
namespace {

using services::google::GoogleBackend;
using services::google::GoogleClient;
using services::google::GoogleSearchResult;

struct FullStack {
  FullStack() {
    backend = std::make_shared<GoogleBackend>();
    soap_server = transport::serve_soap(
        0, "/soap/google", services::google::make_google_service(backend));
    endpoint = soap_server->base_url() + "/soap/google";
  }

  ~FullStack() { soap_server->stop(); }

  GoogleClient make_google_client(
      cache::Representation rep = cache::Representation::Auto) {
    cache::CachingServiceClient::Options options;
    options.policy = services::google::default_google_policy(rep);
    return GoogleClient(std::make_shared<transport::HttpTransport>(), endpoint,
                        std::make_shared<cache::ResponseCache>(), options);
  }

  std::shared_ptr<GoogleBackend> backend;
  std::unique_ptr<http::HttpServer> soap_server;
  std::string endpoint;
};

TEST(EndToEndTest, AllThreeGoogleOperationsOverHttp) {
  FullStack stack;
  GoogleClient client = stack.make_google_client();
  EXPECT_EQ(client.doSpellingSuggestion("caching rocks"), "Caching Rocks");
  EXPECT_EQ(client.doGetCachedPage("http://x").size(), 3600u);
  GoogleSearchResult r = client.doGoogleSearch("icdcs 2004");
  EXPECT_EQ(r.resultElements.size(), 10u);
}

TEST(EndToEndTest, CacheHitsSkipTheNetwork) {
  FullStack stack;
  GoogleClient client = stack.make_google_client();
  client.doGoogleSearch("same");
  // Stop the server: hits must still be served, misses must fail.
  stack.soap_server->stop();
  GoogleSearchResult hit = client.doGoogleSearch("same");
  EXPECT_EQ(hit.searchQuery, "same");
  EXPECT_THROW(client.doGoogleSearch("different"), TransportError);
}

TEST(EndToEndTest, SoapFaultOverHttp) {
  FullStack stack;
  GoogleClient client = stack.make_google_client();
  // Unknown endpoint path -> 404 -> HttpError (transport level).
  cache::CachingServiceClient::Options options;
  options.policy = services::google::default_google_policy();
  GoogleClient bad_path(std::make_shared<transport::HttpTransport>(),
                        stack.soap_server->base_url() + "/nope",
                        std::make_shared<cache::ResponseCache>(), options);
  EXPECT_THROW(bad_path.doSpellingSuggestion("x"), HttpError);
}

TEST(EndToEndTest, WsdlServedContractMatchesRuntime) {
  // The WSDL document renders from the same description the stub uses.
  std::string wsdl_doc = wsdl::to_wsdl_xml(
      *services::google::google_description(), "http://example/soap");
  for (const char* op :
       {"doSpellingSuggestion", "doGetCachedPage", "doGoogleSearch"})
    EXPECT_NE(wsdl_doc.find(op), std::string::npos) << op;
}

TEST(EndToEndTest, PortalOverRealHttpThroughLoadEngine) {
  FullStack stack;
  portal::PortalConfig config;
  config.backend_endpoint = stack.endpoint;
  config.transport = std::make_shared<transport::HttpTransport>();
  config.options.policy = services::google::default_google_policy();
  portal::PortalSite site(std::move(config));
  http::HttpServer portal_server(0, site.handler());
  portal_server.start();

  portal::QueryMix mix;
  mix.hit_ratio = 0.5;
  mix.hot_set_size = 4;
  mix.warm(site);
  const std::uint64_t warm_misses = site.response_cache().stats().misses;
  http::LoadOptions load;
  load.port = portal_server.port();
  load.connections = 2;
  load.warmup = std::chrono::milliseconds(20);
  load.duration = std::chrono::milliseconds(200);
  load.next_target = mix.targets();
  http::LoadReport report = http::run_load(load);
  portal_server.stop();

  EXPECT_EQ(report.connected, 2u);
  EXPECT_EQ(report.errors, 0u);
  EXPECT_GT(report.requests, 0u);
  // Half the portal's requests hit the warmed hot set, half miss.
  auto stats = site.response_cache().stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, warm_misses);
}

TEST(EndToEndTest, CacheControlFlowsFromServerToClientPolicy) {
  // Server advertises no-store for doGoogleSearch: the client must not
  // cache it even though the administrator marked it cacheable.
  auto backend = std::make_shared<GoogleBackend>();
  std::map<std::string, http::CacheDirectives> advertised;
  advertised["doGoogleSearch"].no_store = true;
  auto server = transport::serve_soap(
      0, "/soap", services::google::make_google_service(backend), advertised);

  cache::CachingServiceClient::Options options;
  options.policy = services::google::default_google_policy();
  auto cache_ptr = std::make_shared<cache::ResponseCache>();
  GoogleClient client(std::make_shared<transport::HttpTransport>(),
                      server->base_url() + "/soap", cache_ptr, options);
  client.doGoogleSearch("q");
  client.doGoogleSearch("q");
  EXPECT_EQ(cache_ptr->stats().hits, 0u);
  EXPECT_EQ(cache_ptr->entry_count(), 0u);
  // Spelling is unaffected.
  client.doSpellingSuggestion("a");
  client.doSpellingSuggestion("a");
  EXPECT_EQ(cache_ptr->stats().hits, 1u);
  server->stop();
}

TEST(EndToEndTest, MultirefServerWithEveryCacheRepresentation) {
  // An Axis-style multiref backend (the real Google wire format) behind
  // the full middleware: every representation must produce equal results
  // on hits, including the XML/SAX forms that store the multiref document.
  auto backend = std::make_shared<GoogleBackend>();
  auto service = services::google::make_google_service(backend);
  service->set_multiref_responses(true);
  auto server = transport::serve_soap(0, "/soap", service);

  for (cache::Representation rep :
       cache::testing::copying_representations_and_auto()) {
    cache::CachingServiceClient::Options options;
    options.policy = services::google::default_google_policy(rep);
    GoogleClient client(std::make_shared<transport::HttpTransport>(),
                        server->base_url() + "/soap",
                        std::make_shared<cache::ResponseCache>(), options);
    GoogleSearchResult miss = client.doGoogleSearch("multiref query");
    GoogleSearchResult hit = client.doGoogleSearch("multiref query");
    EXPECT_EQ(miss, hit) << cache::representation_name(rep);
    EXPECT_EQ(miss.resultElements.size(), 10u);
  }
  server->stop();
}

TEST(EndToEndTest, RevalidationOverRealHttp) {
  // Server publishes Last-Modified; an expired client entry is renewed by
  // a real 304 over the wire instead of a full SOAP response.
  auto backend = std::make_shared<GoogleBackend>();
  std::atomic<long> last_modified{700};
  auto server = transport::serve_soap(
      0, "/soap", services::google::make_google_service(backend), {},
      [&last_modified](const std::string&) {
        return std::optional<std::chrono::seconds>(
            std::chrono::seconds(last_modified.load()));
      });

  auto clock = std::make_shared<util::ManualClock>();
  cache::CachingServiceClient::Options options;
  cache::OperationPolicy p;
  p.cacheable = true;
  p.ttl = std::chrono::milliseconds(50);
  p.revalidate = true;
  options.policy.set("doGoogleSearch", p);
  auto cache_ptr = std::make_shared<cache::ResponseCache>(
      cache::ResponseCache::Config{}, *clock);
  GoogleClient client(std::make_shared<transport::HttpTransport>(),
                      server->base_url() + "/soap", cache_ptr, options);

  GoogleSearchResult first = client.doGoogleSearch("reval");
  clock->advance(std::chrono::seconds(1));  // expire the entry

  GoogleSearchResult renewed = client.doGoogleSearch("reval");
  EXPECT_EQ(renewed, first);
  EXPECT_EQ(cache_ptr->stats().revalidations, 1u);
  EXPECT_EQ(cache_ptr->stats().stores, 1u);  // no re-store after the 304

  // Now the resource changes: the conditional request misses.
  backend->set_version(9);
  last_modified = 9000;
  clock->advance(std::chrono::seconds(1));
  GoogleSearchResult changed = client.doGoogleSearch("reval");
  EXPECT_NE(changed, first);
  EXPECT_EQ(cache_ptr->stats().stores, 2u);
  server->stop();
}

}  // namespace
}  // namespace wsc

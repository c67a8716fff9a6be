// Portal site: page rendering over the caching middleware.
#include "portal/portal.hpp"

#include <gtest/gtest.h>

#include "services/google/service.hpp"
#include "tests/core/representation_params.hpp"
#include "transport/inproc_transport.hpp"

namespace wsc::portal {
namespace {

using services::google::GoogleBackend;
using services::google::make_google_service;

constexpr const char* kBackendEndpoint = "inproc://google/api";

PortalSite make_portal(std::shared_ptr<GoogleBackend> backend,
                       cache::Representation rep = cache::Representation::Auto) {
  auto transport = std::make_shared<transport::InProcessTransport>();
  transport->bind(kBackendEndpoint, make_google_service(std::move(backend)));
  PortalConfig config;
  config.backend_endpoint = kBackendEndpoint;
  config.transport = transport;
  config.options.policy = services::google::default_google_policy(rep);
  return PortalSite(std::move(config));
}

TEST(PortalTest, RendersResultsPage) {
  PortalSite portal = make_portal(std::make_shared<GoogleBackend>());
  std::string html = portal.render_page("distributed caching");
  EXPECT_NE(html.find("<html>"), std::string::npos);
  EXPECT_NE(html.find("Results for \"distributed caching\""), std::string::npos);
  EXPECT_NE(html.find("<li>"), std::string::npos);
}

TEST(PortalTest, QueryIsHtmlEscaped) {
  PortalSite portal = make_portal(std::make_shared<GoogleBackend>());
  std::string html = portal.render_page("<script>alert(1)</script>");
  EXPECT_EQ(html.find("<script>"), std::string::npos);
  EXPECT_NE(html.find("&lt;script&gt;"), std::string::npos);
}

TEST(PortalTest, RepeatedQueriesHitCache) {
  PortalSite portal = make_portal(std::make_shared<GoogleBackend>());
  std::string first = portal.render_page("same query");
  std::string second = portal.render_page("same query");
  EXPECT_EQ(first, second);
  EXPECT_EQ(portal.response_cache().stats().hits, 1u);
  EXPECT_EQ(portal.response_cache().stats().misses, 1u);
}

TEST(PortalTest, HandlerRoutesAndValidates) {
  PortalSite portal = make_portal(std::make_shared<GoogleBackend>());
  http::Handler handler = portal.handler();

  http::Request ok;
  ok.target = "/portal?q=caching";
  EXPECT_EQ(handler(ok).status, 200);
  EXPECT_EQ(*handler(ok).headers.get("Content-Type"), "text/html; charset=utf-8");

  http::Request wrong_path;
  wrong_path.target = "/elsewhere";
  EXPECT_EQ(handler(wrong_path).status, 404);

  http::Request no_query;
  no_query.target = "/portal";
  EXPECT_EQ(handler(no_query).status, 400);

  http::Request empty_query;
  empty_query.target = "/portal?q=";
  EXPECT_EQ(handler(empty_query).status, 400);
}

TEST(PortalTest, HandlerDecodesQuery) {
  PortalSite portal = make_portal(std::make_shared<GoogleBackend>());
  http::Request r;
  r.target = "/portal?q=web%20services%20caching";
  http::Response response = portal.handler()(r);
  EXPECT_NE(response.body.find("Results for \"web services caching\""),
            std::string::npos);
}

TEST(PortalTest, AllRepresentationsRenderIdenticalPages) {
  auto backend = std::make_shared<GoogleBackend>();
  std::string reference;
  for (cache::Representation rep :
       cache::testing::copying_representations_and_auto()) {
    PortalSite portal = make_portal(backend, rep);
    portal.render_page("fixed query");           // miss
    std::string hit = portal.render_page("fixed query");  // hit
    if (reference.empty()) reference = hit;
    EXPECT_EQ(hit, reference) << cache::representation_name(rep);
  }
}

TEST(PortalTest, SharedCacheAcrossPortalInstances) {
  auto transport = std::make_shared<transport::InProcessTransport>();
  transport->bind(kBackendEndpoint,
                  make_google_service(std::make_shared<GoogleBackend>()));
  auto shared_cache = std::make_shared<cache::ResponseCache>();

  auto make = [&] {
    PortalConfig config;
    config.backend_endpoint = kBackendEndpoint;
    config.transport = transport;
    config.options.policy = services::google::default_google_policy();
    config.response_cache = shared_cache;
    return PortalSite(std::move(config));
  };
  PortalSite a = make();
  PortalSite b = make();
  a.render_page("shared");
  b.render_page("shared");
  EXPECT_EQ(shared_cache->stats().hits, 1u);
}

}  // namespace
}  // namespace wsc::portal

// CostProfiles: direct recording semantics, the middleware feed
// (hit/miss/deserialize/store/bytes per representation), slow-call
// events, and the portal's /profiles + /events endpoints.
#include "obs/profiles.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "core/client.hpp"
#include "http/client.hpp"
#include "http/server.hpp"
#include "obs/events.hpp"
#include "portal/portal.hpp"
#include "services/google/service.hpp"
#include "tests/soap/test_service.hpp"
#include "transport/inproc_transport.hpp"
#include "util/clock.hpp"
#include "util/json.hpp"

namespace wsc {
namespace {

using cache::CachingServiceClient;
using cache::ResponseCache;
using obs::CostProfiles;
using reflect::Object;
using wsc::soap::testing::make_test_service;
using wsc::soap::testing::test_description;

constexpr const char* kEndpoint = "inproc://svc/test";

/// The finished-call records a client would feed for one row of "Svc.op".
obs::CallSample call(std::string_view rep, obs::Outcome outcome) {
  obs::CallSample c;
  c.service = "Svc";
  c.operation = "op";
  c.representation = rep;
  c.outcome = outcome;
  return c;
}

obs::CallSample hit(std::string_view rep, std::uint64_t retrieve_ns,
                    std::uint64_t weight = 1) {
  obs::CallSample c = call(rep, obs::Outcome::Hit);
  c.stage_ns[static_cast<std::size_t>(obs::Stage::Retrieve)] = retrieve_ns;
  c.weight = weight;
  return c;
}

obs::CallSample miss(std::string_view rep, std::uint64_t deserialize_ns,
                     std::uint64_t store_ns, std::uint64_t bytes) {
  obs::CallSample c = call(rep, obs::Outcome::Miss);
  c.stage_ns[static_cast<std::size_t>(obs::Stage::Deserialize)] =
      deserialize_ns;
  c.stage_ns[static_cast<std::size_t>(obs::Stage::Store)] = store_ns;
  c.entry_bytes = bytes;
  return c;
}

TEST(CostProfilesTest, DirectRecordingComputesRatiosAndBytes) {
  CostProfiles profiles;
  for (int i = 0; i < 3; ++i)
    profiles.record(hit("XML message", 1000 + i * 100));
  profiles.record(miss("XML message", /*deserialize_ns=*/5000,
                       /*store_ns=*/2000, /*bytes=*/640));
  profiles.record(miss("XML message", 7000, 0, 0));  // not stored
  profiles.record(call("XML message", obs::Outcome::StaleServe));

  std::vector<CostProfiles::Row> rows = profiles.snapshot();
  ASSERT_EQ(rows.size(), 1u);
  const CostProfiles::Row& row = rows[0];
  EXPECT_EQ(row.service, "Svc");
  EXPECT_EQ(row.operation, "op");
  EXPECT_EQ(row.representation, "XML message");
  EXPECT_EQ(row.hits, 3u);
  EXPECT_EQ(row.misses, 2u);
  EXPECT_EQ(row.stale_serves, 1u);
  EXPECT_DOUBLE_EQ(row.hit_ratio, 3.0 / 5.0);
  EXPECT_EQ(row.hit_ns.count, 3u);
  EXPECT_GT(row.hit_ns.mean_ns, 0);
  EXPECT_GT(row.hit_ns.p999_ns, 0);
  EXPECT_EQ(row.deserialize_ns.count, 2u);  // every miss deserializes
  EXPECT_EQ(row.store_ns.count, 1u);        // only the stored one
  EXPECT_EQ(row.stored_entries, 1u);
  EXPECT_EQ(row.bytes_sum, 640u);
  EXPECT_DOUBLE_EQ(row.bytes_per_entry, 640.0);
  // Everything just recorded is inside the rolling window.
  EXPECT_EQ(row.window_hits, 3u);
  EXPECT_EQ(row.window_misses, 2u);
  EXPECT_DOUBLE_EQ(row.window_hit_ratio, 3.0 / 5.0);
}

TEST(CostProfilesTest, SampledHitWeightKeepsRatiosUnbiased) {
  CostProfiles profiles;
  profiles.record(hit("Pass by reference", 500, /*weight=*/64));
  profiles.record(miss("Pass by reference", 100, 100, 32));
  std::vector<CostProfiles::Row> rows = profiles.snapshot();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].hits, 64u);         // weighted count
  EXPECT_EQ(rows[0].hit_ns.count, 1u);  // one latency sample
  EXPECT_DOUBLE_EQ(rows[0].hit_ratio, 64.0 / 65.0);
}

TEST(CostProfilesTest, HitRowsAreFoundByLabelTextNotAddress) {
  CostProfiles profiles;
  char label[] = "alpha";
  obs::CallSample c = hit("XML message", 100);
  c.operation = std::string_view(label);
  profiles.record(c);
  std::memcpy(label, "omega", 5);  // same address, another operation
  profiles.record(c);
  profiles.record(c);
  std::vector<CostProfiles::Row> rows = profiles.snapshot();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].operation, "alpha");
  EXPECT_EQ(rows[0].hits, 1u);
  EXPECT_EQ(rows[1].operation, "omega");
  EXPECT_EQ(rows[1].hits, 2u);
  EXPECT_EQ(rows[1].hit_ns.count, 2u);
}

TEST(CostProfilesTest, ANewRegistryNeverSeesAnEarlierRegistrysHitRows) {
  // Each registry may reuse its predecessor's address; this thread's
  // remembered rows of the dead one must never be fed again.
  for (int i = 0; i < 4; ++i) {
    auto profiles = std::make_unique<CostProfiles>();
    profiles->record(hit("XML message", 100));
    std::vector<CostProfiles::Row> rows = profiles->snapshot();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].hits, 1u) << "registry " << i;
  }
}

TEST(CostProfilesTest, HitsOnManyRowsFromOneThreadStayExact) {
  // More rows than one thread remembers: forgotten rows are found again.
  CostProfiles profiles;
  std::vector<std::string> reps;
  for (int r = 0; r < 40; ++r) reps.push_back("rep" + std::to_string(r));
  for (int lap = 0; lap < 3; ++lap)
    for (const std::string& rep : reps) profiles.record(hit(rep, 100));
  std::vector<CostProfiles::Row> rows = profiles.snapshot();
  ASSERT_EQ(rows.size(), reps.size());
  for (const CostProfiles::Row& row : rows) {
    EXPECT_EQ(row.hits, 3u) << row.representation;
    EXPECT_EQ(row.hit_ns.count, 3u) << row.representation;
  }
}

TEST(CostProfilesTest, JsonRowsParse) {
  CostProfiles profiles;
  profiles.record(hit("Pass by reference", 1200));
  profiles.record(miss("Pass by reference", 3000, 900, 128));
  util::json::Value rows = util::json::parse(profiles.json_rows());
  ASSERT_TRUE(rows.is_array());
  ASSERT_EQ(rows.array.size(), 1u);
  const util::json::Value& row = rows.array[0];
  EXPECT_EQ(row.string_or("service"), "Svc");
  EXPECT_EQ(row.string_or("representation"), "Pass by reference");
  EXPECT_EQ(row.number_or("hits"), 1);
  EXPECT_EQ(row.number_or("misses"), 1);
  EXPECT_EQ(row.number_or("bytes_per_entry"), 128);
  const util::json::Value* hit = row.find("hit");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->number_or("count"), 1);
  EXPECT_GT(hit->number_or("p99_ns"), 0);
  ASSERT_NE(row.find("store"), nullptr);
  ASSERT_NE(row.find("deserialize"), nullptr);
}

CachingServiceClient::Options profiled_options(
    std::shared_ptr<CostProfiles> profiles,
    cache::Representation rep = cache::Representation::XmlMessage) {
  cache::OperationPolicy p;
  p.cacheable = true;
  p.ttl = std::chrono::minutes(5);
  p.representation = rep;
  CachingServiceClient::Options options;
  options.policy.set("echoString", p);
  options.profiles = std::move(profiles);
  options.profile_sample_every = 1;  // deterministic: every hit records
  return options;
}

CachingServiceClient make_client(CachingServiceClient::Options options) {
  auto transport = std::make_shared<transport::InProcessTransport>();
  transport->bind(kEndpoint, make_test_service());
  return CachingServiceClient(std::move(transport), test_description(),
                              kEndpoint, std::make_shared<ResponseCache>(),
                              std::move(options));
}

TEST(CostProfilesTest, MiddlewareFeedsMissThenHit) {
  auto profiles = std::make_shared<CostProfiles>();
  CachingServiceClient client = make_client(profiled_options(profiles));
  client.invoke("echoString", {{"s", Object::make(std::string("x"))}});
  client.invoke("echoString", {{"s", Object::make(std::string("x"))}});

  std::vector<CostProfiles::Row> rows = profiles->snapshot();
  ASSERT_EQ(rows.size(), 1u);
  const CostProfiles::Row& row = rows[0];
  EXPECT_EQ(row.service, "TestService");
  EXPECT_EQ(row.operation, "echoString");
  EXPECT_EQ(row.representation, "XML message");
  EXPECT_EQ(row.hits, 1u);
  EXPECT_EQ(row.misses, 1u);
  EXPECT_EQ(row.hit_ns.count, 1u);
  EXPECT_EQ(row.deserialize_ns.count, 1u);
  EXPECT_EQ(row.store_ns.count, 1u);
  EXPECT_EQ(row.stored_entries, 1u);
  EXPECT_GT(row.bytes_per_entry, 0);
}

TEST(CostProfilesTest, RowsSplitPerRepresentation) {
  // Two clients (distinct caches) sharing one registry: the same operation
  // under two representations yields two rows — the comparison the
  // adaptive-selection policy will consume.
  auto profiles = std::make_shared<CostProfiles>();
  CachingServiceClient xml = make_client(
      profiled_options(profiles, cache::Representation::XmlMessage));
  CachingServiceClient ref = make_client(
      profiled_options(profiles, cache::Representation::Reference));
  for (int i = 0; i < 2; ++i) {
    xml.invoke("echoString", {{"s", Object::make(std::string("x"))}});
    ref.invoke("echoString", {{"s", Object::make(std::string("x"))}});
  }

  std::vector<CostProfiles::Row> rows = profiles->snapshot();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].representation, "Pass by reference");
  EXPECT_EQ(rows[1].representation, "XML message");
  for (const CostProfiles::Row& row : rows) {
    EXPECT_EQ(row.hits, 1u) << row.representation;
    EXPECT_EQ(row.misses, 1u) << row.representation;
  }
}

TEST(CostProfilesTest, SlowMissEmitsSlowCallEvent) {
  auto profiles = std::make_shared<CostProfiles>();
  CachingServiceClient::Options options = profiled_options(profiles);
  options.slow_call_threshold_ns = 1;  // every miss is "slow"
  const std::uint64_t before = obs::event_log().count(obs::EventKind::SlowCall);
  CachingServiceClient client = make_client(std::move(options));
  client.invoke("echoString", {{"s", Object::make(std::string("x"))}});
  client.invoke("echoString", {{"s", Object::make(std::string("x"))}});
  // Exactly the miss tripped the watchdog; the hit path never checks.
  EXPECT_EQ(obs::event_log().count(obs::EventKind::SlowCall), before + 1);
}

// One sampler per call: the tracer (/trace, /metrics), the cost profile
// (/profiles, the adaptive policy) and CacheStats (/stats) count and time
// the same calls, because both telemetry sinks read one CallTrace record.
TEST(CostProfilesTest, TracerProfilesAndStatsAgreeCallForCall) {
  obs::Tracer& tracer = obs::tracer();
  tracer.reset();
  tracer.set_enabled(true);
  util::ManualClock clock;
  auto cache = std::make_shared<ResponseCache>(ResponseCache::Config{}, clock);
  auto profiles = std::make_shared<CostProfiles>();
  CachingServiceClient::Options options = profiled_options(profiles);
  cache::OperationPolicy p = options.policy.lookup("echoString");
  p.ttl = std::chrono::milliseconds(1000);
  p.staleness.stale_while_revalidate = std::chrono::seconds(60);
  options.policy.set("echoString", p);
  auto transport = std::make_shared<transport::InProcessTransport>();
  transport->bind(kEndpoint, make_test_service());
  CachingServiceClient client(transport, test_description(), kEndpoint, cache,
                              options);
  const auto call = [&] {
    client.invoke("echoString", {{"s", Object::make(std::string("x"))}});
  };
  call();                                           // miss
  for (int i = 0; i < 3; ++i) call();               // hits
  clock.advance(std::chrono::milliseconds(1500));  // expired, within grace
  call();  // stale serve + one background refresh
  const auto group = [&](obs::Outcome outcome) {
    return tracer.snapshot().find("echoString", outcome, "XML message");
  };
  for (int i = 0; i < 5000 && !group(obs::Outcome::Refresh); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  call();  // a hit on the refreshed entry
  tracer.set_enabled(false);

  const obs::TraceSummary trace = tracer.snapshot();
  const obs::GroupSummary* hit = trace.find("echoString", obs::Outcome::Hit);
  const obs::GroupSummary* miss = trace.find("echoString", obs::Outcome::Miss);
  const obs::GroupSummary* stale =
      trace.find("echoString", obs::Outcome::StaleRevalidate);
  const obs::GroupSummary* refresh =
      trace.find("echoString", obs::Outcome::Refresh);
  ASSERT_TRUE(hit && miss && stale && refresh);
  const std::vector<CostProfiles::Row> rows = profiles->snapshot();
  ASSERT_EQ(rows.size(), 1u);
  const CostProfiles::Row& row = rows[0];
  const cache::StatsSnapshot stats = cache->stats();

  EXPECT_EQ(hit->calls, 4u);
  EXPECT_EQ(row.hits, hit->calls);
  EXPECT_EQ(stats.hits, hit->calls);
  EXPECT_EQ(miss->calls, 1u);  // the refresh is no miss, anywhere
  EXPECT_EQ(row.misses, miss->calls);
  EXPECT_EQ(stats.misses, miss->calls);
  EXPECT_EQ(stale->calls, 1u);
  EXPECT_EQ(row.stale_serves, stale->calls);
  EXPECT_EQ(stats.stale_while_revalidate_served, stale->calls);
  EXPECT_EQ(refresh->calls, 1u);

  // The profile's hit cost is exactly the tracer's Retrieve stage, and its
  // fetch costs the Deserialize and Store stages of the miss and refresh.
  EXPECT_EQ(row.hit_ns.sum_ns, hit->stage(obs::Stage::Retrieve).sum_ns);
  EXPECT_EQ(row.deserialize_ns.count, 2u);
  EXPECT_EQ(row.deserialize_ns.sum_ns,
            miss->stage(obs::Stage::Deserialize).sum_ns +
                refresh->stage(obs::Stage::Deserialize).sum_ns);
  EXPECT_EQ(row.store_ns.count, 2u);
  EXPECT_EQ(row.store_ns.sum_ns, miss->stage(obs::Stage::Store).sum_ns +
                                     refresh->stage(obs::Stage::Store).sum_ns);
}

TEST(PortalTelemetryTest, ProfilesAndEventsEndpoints) {
  auto transport = std::make_shared<transport::InProcessTransport>();
  transport->bind("inproc://google/api",
                  services::google::make_google_service(
                      std::make_shared<services::google::GoogleBackend>()));
  portal::PortalConfig config;
  config.backend_endpoint = "inproc://google/api";
  config.transport = transport;
  config.options.policy = services::google::default_google_policy(
      cache::Representation::XmlMessage);
  portal::PortalSite portal(std::move(config));
  http::HttpServer server(0, portal.handler());
  server.start();
  http::HttpConnection conn("127.0.0.1", server.port());

  http::Request page;
  page.target = "/portal?q=caching";
  EXPECT_EQ(conn.round_trip(page).status, 200);
  EXPECT_EQ(conn.round_trip(page).status, 200);

  http::Request profiles_req;
  profiles_req.target = "/profiles";
  http::Response profiles_resp = conn.round_trip(profiles_req);
  EXPECT_EQ(profiles_resp.status, 200);
  EXPECT_EQ(*profiles_resp.headers.get("Content-Type"), "application/json");
  util::json::Value doc = util::json::parse(profiles_resp.body);
  EXPECT_EQ(doc.string_or("window"), "60s");
  const util::json::Value* rows = doc.find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->array.size(), 1u);
  EXPECT_EQ(rows->array[0].string_or("service"), "GoogleSearchService");
  EXPECT_EQ(rows->array[0].string_or("operation"), "doGoogleSearch");
  EXPECT_EQ(rows->array[0].number_or("hits"), 1);
  EXPECT_EQ(rows->array[0].number_or("misses"), 1);
  // Hot-key tracking is on (sample 1): the doGoogleSearch key shows up.
  const util::json::Value* hot = doc.find("hot_keys");
  ASSERT_NE(hot, nullptr);
  ASSERT_FALSE(hot->array.empty());
  EXPECT_GE(hot->array[0].number_or("count"), 2);
  const util::json::Value* cache_info = doc.find("cache");
  ASSERT_NE(cache_info, nullptr);
  EXPECT_EQ(cache_info->number_or("entries"), 1);
  EXPECT_GT(cache_info->number_or("bytes"), 0);

  http::Request events_req;
  events_req.target = "/events";
  http::Response events_resp = conn.round_trip(events_req);
  EXPECT_EQ(events_resp.status, 200);
  EXPECT_EQ(*events_resp.headers.get("Content-Type"), "application/json");
  util::json::Value events = util::json::parse(events_resp.body);
  const util::json::Value* list = events.find("events");
  ASSERT_NE(list, nullptr);
  // At minimum the portal's own lifecycle event is in the ring.
  bool lifecycle = false;
  for (const util::json::Value& e : list->array)
    lifecycle = lifecycle || e.string_or("kind") == "lifecycle";
  EXPECT_TRUE(lifecycle);
  server.stop();
}

TEST(PortalTelemetryTest, MetricsCarryProcessBuildAndWindowedSeries) {
  auto transport = std::make_shared<transport::InProcessTransport>();
  transport->bind("inproc://google/api",
                  services::google::make_google_service(
                      std::make_shared<services::google::GoogleBackend>()));
  portal::PortalConfig config;
  config.backend_endpoint = "inproc://google/api";
  config.transport = transport;
  portal::PortalSite portal(std::move(config));

  http::Request page;
  page.target = "/portal?q=x";
  EXPECT_EQ(portal.handler()(page).status, 200);

  http::Request metrics;
  metrics.target = "/metrics";
  std::string body = portal.handler()(metrics).body;
  EXPECT_NE(body.find("process_start_time_seconds "), std::string::npos);
  EXPECT_NE(body.find("wsc_build_info{"), std::string::npos);
  EXPECT_NE(body.find("wsc_events_total{kind=\"lifecycle\"}"),
            std::string::npos);
  // The portal's own request summary guarantees owned windowed series.
  EXPECT_NE(body.find("wsc_portal_request_ns_count 1"), std::string::npos);
  EXPECT_NE(body.find("wsc_portal_request_ns_last60s_count 1"),
            std::string::npos);
  EXPECT_NE(body.find("wsc_portal_request_ns{quantile=\"0.999\"}"),
            std::string::npos);
}

}  // namespace
}  // namespace wsc

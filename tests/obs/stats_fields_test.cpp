// The declared stats field tables (kCacheFields, kServerFields,
// kRetryFields) reach every exporter: each row, set to a value no other
// row holds, must show up under its own key in the JSON and text forms
// and as its own family in the Prometheus exposition.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "core/response_cache.hpp"
#include "http/server.hpp"
#include "obs/field_table.hpp"
#include "obs/promcheck.hpp"
#include "portal/portal.hpp"
#include "reflect/object.hpp"
#include "services/google/service.hpp"
#include "transport/inproc_transport.hpp"
#include "transport/retry.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"
#include "util/uri.hpp"

namespace wsc {
namespace {

using cache::kCacheFields;
using cache::StatsSnapshot;

/// True when `text` holds the unlabelled sample line `family value`.
bool has_sample(const std::string& text, const std::string& family,
                std::uint64_t value) {
  return ("\n" + text).find("\n" + family + " " + std::to_string(value) +
                            "\n") != std::string::npos;
}

/// True when `json` holds the member `"name": value` (not a prefix of a
/// longer number).
bool has_member(const std::string& json, const std::string& name,
                std::uint64_t value) {
  const std::string member = "\"" + name + "\": " + std::to_string(value);
  const std::size_t at = json.find(member);
  return at != std::string::npos &&
         std::string(",}").find(json[at + member.size()]) != std::string::npos;
}

/// Add 1000 + 10 * i to counter row i, so no two rows share a value.
template <std::size_t... I>
void bump_every_counter(cache::CacheStats& stats, std::index_sequence<I...>) {
  (stats.add(kCacheFields[I].member, 1000 + 10 * I), ...);
}

portal::PortalConfig portal_config(std::shared_ptr<cache::ResponseCache> c) {
  auto transport = std::make_shared<transport::InProcessTransport>();
  transport->bind("inproc://google/api",
                  services::google::make_google_service(
                      std::make_shared<services::google::GoogleBackend>()));
  portal::PortalConfig config;
  config.backend_endpoint = "inproc://google/api";
  config.transport = transport;
  config.response_cache = std::move(c);
  return config;
}

std::string get(portal::PortalSite& site, const std::string& target) {
  http::Request request;
  request.target = target;
  return site.handler()(request).body;
}

TEST(StatsFieldsTest, EveryCacheAndServerRowReachesEveryExporter) {
  auto response_cache = std::make_shared<cache::ResponseCache>();
  for (int i = 0; i < 3; ++i)
    response_cache->store(cache::CacheKey("k" + std::to_string(i)),
                          std::make_shared<cache::ReferenceValue>(
                              reflect::Object::make(std::int32_t{i})),
                          std::chrono::minutes(5));
  portal::PortalSite site(portal_config(response_cache));
  http::HttpServer server(0, site.handler());  // never started: no traffic
  site.attach_server(server);
  auto& live = const_cast<http::ServerStats&>(server.stats());
  for (std::size_t i = 0; i < http::kServerFields.size(); ++i)
    (live.*http::kServerFields[i].member).store(2000 + i);
  // The three stores above are counted first; the bump lands on top.
  const StatsSnapshot before = response_cache->stats();
  bump_every_counter(response_cache->counters(),
                     std::make_index_sequence<cache::kCacheCounterCount>());

  const StatsSnapshot s = response_cache->stats();
  const std::string json = cache::stats_json(s);
  const std::string text = " " + s.to_string() + " ";
  const std::string stats_page = get(site, "/stats");
  const std::string metrics = site.metrics().prometheus_text();
  EXPECT_EQ(obs::validate_prometheus_text(metrics), std::nullopt);

  std::set<std::uint64_t> seen;
  for (std::size_t i = 0; i < kCacheFields.size(); ++i) {
    const auto& row = kCacheFields[i];
    const std::uint64_t v = s.*row.member;
    if (i < cache::kCacheCounterCount) {
      EXPECT_EQ(v, before.*row.member + 1000 + 10 * i) << row.name;
    }
    EXPECT_TRUE(seen.insert(v).second) << row.name << " shares its value";
    EXPECT_TRUE(has_member(json, row.name, v)) << row.name << "\n" << json;
    EXPECT_TRUE(has_member(stats_page, row.name, v)) << row.name;
    EXPECT_NE(text.find(" " + std::string(row.name) + "=" +
                        std::to_string(v) + " "),
              std::string::npos)
        << row.name << "\n" << text;
    EXPECT_TRUE(has_sample(
        metrics, obs::family_name(cache::kCacheMetricPrefix, row), v))
        << row.name;
  }
  const std::size_t server_at = stats_page.find("\"server\": {");
  ASSERT_NE(server_at, std::string::npos) << stats_page;
  const std::string server_json = stats_page.substr(server_at);
  EXPECT_EQ(server_json, "\"server\": " + http::server_stats_json(live) + "}");
  for (std::size_t i = 0; i < http::kServerFields.size(); ++i) {
    const auto& row = http::kServerFields[i];
    EXPECT_TRUE(has_member(server_json, row.name, 2000 + i)) << row.name;
    EXPECT_TRUE(has_sample(
        metrics, obs::family_name(http::kServerMetricPrefix, row), 2000 + i))
        << row.name;
  }
}

/// Inner transport playing one queued outcome per call: 'o' delivers,
/// 'r' is a retryable refusal, 't' a terminal one, and 's' stalls past
/// the per-call deadline before a retryable refusal.  Delivers once the
/// queue is empty.
class QueuedTransport final : public transport::Transport {
 public:
  QueuedTransport(util::ManualClock& clock, std::chrono::milliseconds stall)
      : clock_(clock), stall_(stall) {}

  transport::WireResponse post(const util::Uri&,
                               const transport::WireRequest&) override {
    const char next = outcomes.empty() ? 'o' : outcomes.front();
    if (!outcomes.empty()) outcomes.erase(0, 1);
    if (next == 's') clock_.advance(stall_);
    if (next == 'r' || next == 's') throw TransportError("refused (queued)");
    if (next == 't') throw TransportError("no such host (queued)", false);
    return {};
  }
  std::string outcomes;

 private:
  util::ManualClock& clock_;
  std::chrono::milliseconds stall_;
};

TEST(StatsFieldsTest, EveryRetryRowReachesThePrometheusExport) {
  using std::chrono::milliseconds;
  transport::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.deadline = milliseconds(100);
  policy.budget_initial = policy.budget_cap = 7;  // exactly 7 retries
  policy.budget_earn = 0;
  policy.breaker_threshold = 3;
  policy.breaker_cooldown = milliseconds(1000);
  util::ManualClock clock;
  auto inner = std::make_shared<QueuedTransport>(clock, milliseconds(101));
  transport::RetryingTransport::Deps deps;
  deps.clock = &clock;
  deps.sleeper = [&clock](milliseconds d) { clock.advance(d); };
  transport::RetryingTransport retrying(inner, policy, deps);
  const util::Uri endpoint = util::Uri::parse("http://origin.example:80/svc");
  auto post = [&](std::string outcomes) {
    inner->outcomes = std::move(outcomes);
    try {
      retrying.post(endpoint, transport::WireRequest{});
    } catch (const Error&) {
    }
  };
  auto after_cooldown = [&](std::string outcomes) {
    clock.advance(policy.breaker_cooldown + milliseconds(1));
    post(std::move(outcomes));
  };
  // A scripted run that leaves every counter at a different value.
  for (int i = 0; i < 7; ++i) post("ro");  // 7 retries spend the budget
  for (const char* o : {"r", "r", "o", "r", "o"}) post(o);  // 3 exhausted
  post("s");
  post("s");                               // 2 deadline hits
  post("t");                               // 3rd failure in a row: open
  for (int i = 0; i < 6; ++i) post("");    // 6 fast fails
  for (int i = 0; i < 3; ++i) after_cooldown("t");  // 3 failed probes
  after_cooldown("o");                     // 4th probe closes
  for (int i = 0; i < 3; ++i) post("t");   // 5th open
  const transport::RetryCounters c = retrying.counters();
  const transport::RetryCounters expected{.attempts = 29,
                                          .retries = 7,
                                          .successes = 10,
                                          .failures = 18,
                                          .deadline_hits = 2,
                                          .budget_exhausted = 3,
                                          .breaker_opens = 5,
                                          .breaker_fast_fails = 6,
                                          .breaker_probes = 4,
                                          .breaker_closes = 1};

  obs::MetricsRegistry registry;
  transport::register_retry_metrics(registry, retrying);
  const std::string metrics = registry.prometheus_text();
  EXPECT_EQ(obs::validate_prometheus_text(metrics), std::nullopt);
  std::set<std::uint64_t> seen;
  for (const auto& row : transport::kRetryFields) {
    const std::uint64_t v = c.*row.member;
    EXPECT_EQ(v, expected.*row.member) << row.name;
    EXPECT_TRUE(seen.insert(v).second) << row.name << " shares its value";
    EXPECT_TRUE(has_sample(metrics, obs::family_name("", row), v)) << row.name;
  }
}

}  // namespace
}  // namespace wsc

// The Figure 3/4 query mix: exact hit-ratio interleave, hot/miss naming,
// and the http::run_load per-request target hook it plugs into.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "http/load_client.hpp"
#include "http/server.hpp"
#include "portal/portal.hpp"
#include "portal/query_string.hpp"
#include "util/error.hpp"

namespace wsc::portal {
namespace {

std::string query_of(const std::string& target) {
  ParsedTarget parsed = parse_target(target);
  EXPECT_EQ(parsed.path, "/portal");
  return parsed.query["q"];
}

bool is_hot(const std::string& query) { return query.rfind("hot-", 0) == 0; }

class HitRatioSweep : public ::testing::TestWithParam<double> {};

TEST_P(HitRatioSweep, AchievesTargetExactly) {
  QueryMix mix;
  mix.hit_ratio = GetParam();
  mix.hot_set_size = 8;
  auto next = mix.targets();
  int hot = 0;
  for (int n = 1; n <= 1000; ++n) {
    if (is_hot(query_of(next()))) ++hot;
    ASSERT_LE(std::abs(hot - GetParam() * n), 1.0) << "after " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Ratios, HitRatioSweep,
                         ::testing::Values(0.0, 0.2, 0.4, 0.6, 0.8, 1.0));

TEST(QueryMixTest, MissesNeverRepeatAndHitsNameOnlyTheHotSet) {
  QueryMix mix;
  mix.hit_ratio = 0.5;
  mix.hot_set_size = 4;
  std::set<std::string> hot_set;
  for (std::uint64_t k = 0; k < 4; ++k) hot_set.insert(mix.hot_query(k));
  ASSERT_EQ(hot_set.size(), 4u);

  auto next = mix.targets();
  std::set<std::string> hits, misses;
  for (int n = 0; n < 400; ++n) {
    const std::string query = query_of(next());
    if (is_hot(query)) {
      EXPECT_EQ(hot_set.count(query), 1u) << query;
      hits.insert(query);
    } else {
      EXPECT_TRUE(misses.insert(query).second) << "repeated " << query;
    }
  }
  EXPECT_EQ(hits, hot_set);  // hits cycle through the whole hot set
  EXPECT_EQ(misses.size(), 200u);
}

TEST(QueryMixTest, SeedsGiveDisjointNames) {
  std::set<std::string> first;
  QueryMix mix;
  mix.hit_ratio = 0.5;
  mix.seed = 1;
  auto next = mix.targets();
  for (int n = 0; n < 100; ++n) first.insert(next());
  mix.seed = 2;
  next = mix.targets();
  for (int n = 0; n < 100; ++n) EXPECT_EQ(first.count(next()), 0u);
}

TEST(QueryMixTest, RejectsInvalidMix) {
  QueryMix bad;
  bad.hit_ratio = 1.5;
  EXPECT_THROW(bad.targets(), Error);
  bad.hit_ratio = -0.1;
  EXPECT_THROW(bad.targets(), Error);
  bad = QueryMix{};
  bad.hot_set_size = 0;
  EXPECT_THROW(bad.targets(), Error);
}

TEST(QueryMixTest, EveryHookedTargetReachesTheServer) {
  std::mutex mu;
  std::vector<std::string> received;
  http::HttpServer server(0, [&](const http::Request& request) {
    EXPECT_EQ(request.method, "GET");
    std::lock_guard lock(mu);
    received.push_back(request.target);
    return http::Response{};
  });
  server.start();

  QueryMix mix;
  mix.hit_ratio = 0.4;
  std::multiset<std::string> sent;
  http::LoadOptions load;
  load.port = server.port();
  load.connections = 3;
  load.warmup = std::chrono::milliseconds(10);
  load.duration = std::chrono::milliseconds(100);
  load.next_target = [&sent, next = mix.targets()] {
    std::string target = next();
    sent.insert(target);
    return target;
  };
  http::LoadReport report = http::run_load(load);
  server.stop();

  EXPECT_EQ(report.errors, 0u);
  EXPECT_GT(report.requests, 0u);
  // The server saw only hooked targets, each as often as it was sent,
  // short of at most the one request per connection the window cut off.
  std::multiset<std::string> seen(received.begin(), received.end());
  for (auto it = seen.begin(); it != seen.end(); it = seen.upper_bound(*it))
    EXPECT_LE(seen.count(*it), sent.count(*it)) << *it;
  EXPECT_LE(sent.size() - seen.size(), load.connections);
}

}  // namespace
}  // namespace wsc::portal

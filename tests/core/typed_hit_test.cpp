// Typed hits through the GoogleClient stub (§3.1 call-by-copy isolation).
//
// The contract under test: a typed hit costs exactly what the middleware
// hit costs — the stub moves out of the object a copying representation
// built for this call instead of copying it again — while every caller
// still owns its result: mutating it never reaches the cache, and a
// pass-by-reference entry the cache shares is copied, never moved from.
// The hammers give TSan (ctest -L hitpath under the tsan preset) typed
// hits racing the invalidation and re-store of a shared entry, and hits
// racing the scrapes that merge the striped hit bookkeeping.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/client.hpp"
#include "obs/profiles.hpp"
#include "reflect/object.hpp"
#include "reflect/registry.hpp"
#include "services/google/service.hpp"
#include "services/google/stub.hpp"
#include "tests/core/alloc_counter.hpp"
#include "tests/core/representation_params.hpp"
#include "transport/inproc_transport.hpp"

namespace wsc::services::google {
namespace {

using cache::Representation;
using reflect::Object;
using soap::Parameter;

constexpr const char* kEndpoint = "inproc://google/typed-hit";

struct Stack {
  std::shared_ptr<GoogleBackend> backend = std::make_shared<GoogleBackend>();
  std::unique_ptr<GoogleClient> client;

  /// Every operation uses `representation` where Table 3 allows it and
  /// Auto elsewhere (a byte page has no generated clone).
  explicit Stack(Representation representation,
                 std::shared_ptr<cache::ResponseCache> response_cache =
                     std::make_shared<cache::ResponseCache>(),
                 cache::CachingServiceClient::Options options = {}) {
    auto transport = std::make_shared<transport::InProcessTransport>();
    transport->bind(kEndpoint, make_google_service(backend));
    for (const wsdl::OperationInfo& op : google_description()->operations()) {
      const bool fits =
          cache::applicable(representation, *op.result_type, false);
      options.policy.cacheable(op.name, std::chrono::hours(1),
                               fits ? representation : Representation::Auto);
    }
    client = std::make_unique<GoogleClient>(
        transport, kEndpoint, std::move(response_cache), options);
  }

  /// The parameter list GoogleClient::doGoogleSearch(q) builds.
  static std::vector<Parameter> search_params(const std::string& q) {
    return {Parameter{"key", Object::make(std::string(
                                 "demo-license-key-0000000000"))},
            Parameter{"q", Object::make(q)},
            Parameter{"start", Object::make(std::int32_t{0})},
            Parameter{"maxResults", Object::make(std::int32_t{10})},
            Parameter{"filter", Object::make(false)},
            Parameter{"restrict", Object::make(std::string())},
            Parameter{"safeSearch", Object::make(false)},
            Parameter{"lr", Object::make(std::string())},
            Parameter{"ie", Object::make(std::string("latin1"))},
            Parameter{"oe", Object::make(std::string("latin1"))}};
  }
};

TEST(TypedHitTest, WarmBuiltinTypeOfAllocatesNothing) {
  const auto all_builtins = [] {
    (void)reflect::type_of<bool>();
    (void)reflect::type_of<std::int32_t>();
    (void)reflect::type_of<std::int64_t>();
    (void)reflect::type_of<double>();
    (void)reflect::type_of<std::string>();
    (void)reflect::type_of<std::vector<std::uint8_t>>();
  };
  all_builtins();  // first calls register
  testing::arm_alloc_counter();
  for (int i = 0; i < 16; ++i) all_builtins();
  EXPECT_EQ(testing::disarm_alloc_counter(), 0u)
      << "a warm builtin type_of<>() must not rebuild its metadata";
}

TEST(TypedHitTest, StubHitAllocatesNoMoreThanMiddlewareHit) {
  Stack s(Representation::ReflectionCopy);
  const std::string q = "one copy per hit";
  s.client->doGoogleSearch(q);  // miss + store
  s.client->doGoogleSearch(q);  // warm the hit path (key scratch)
  ASSERT_EQ(s.client->middleware().cache().stats().hits, 1u);

  testing::arm_alloc_counter();
  { GoogleSearchResult typed = s.client->doGoogleSearch(q); }
  const std::size_t stub_allocs = testing::disarm_alloc_counter();

  testing::arm_alloc_counter();
  {
    Object untyped =
        s.client->middleware().invoke("doGoogleSearch", Stack::search_params(q));
  }
  const std::size_t middleware_allocs = testing::disarm_alloc_counter();

  EXPECT_EQ(s.client->middleware().cache().stats().hits, 3u);
  EXPECT_GT(middleware_allocs, 0u);
  EXPECT_LE(stub_allocs, middleware_allocs)
      << "the stub copied the object retrieve() built for it alone";
}

/// Allocations of one warm Reference-representation hit, with or without a
/// cost profile fed at period 1, and with or without hot-key tracking on
/// every lookup.  The profile's window clock is pinned, so no bucket
/// rotation lands inside the measurement.
std::size_t reference_hit_allocs(bool profiled, bool hot_keys = false) {
  auto transport = std::make_shared<transport::InProcessTransport>();
  transport->bind(kEndpoint,
                  make_google_service(std::make_shared<GoogleBackend>()));
  cache::OperationPolicy policy;
  policy.cacheable = true;
  policy.ttl = std::chrono::hours(1);
  policy.read_only = true;
  policy.representation = Representation::Reference;
  cache::CachingServiceClient::Options options;
  options.policy.set("doGoogleSearch", policy);
  if (profiled) {
    obs::WindowOptions window;
    window.now = [] { return std::uint64_t{1}; };
    options.profiles = std::make_shared<obs::CostProfiles>(window);
    options.profile_sample_every = 1;
  }
  auto table = std::make_shared<cache::ResponseCache>();
  if (hot_keys)
    table->enable_hot_key_tracking({/*capacity=*/64, /*sample_every=*/1});
  cache::CachingServiceClient client(transport, google_description(),
                                     kEndpoint, table, options);
  const std::vector<Parameter> params = Stack::search_params("profiled");
  client.invoke("doGoogleSearch", params);  // miss + store (+ profile row)
  client.invoke("doGoogleSearch", params);  // warm hit
  std::vector<Parameter> call = params;
  testing::arm_alloc_counter();
  { Object hit = client.invoke("doGoogleSearch", std::move(call)); }
  const std::size_t allocs = testing::disarm_alloc_counter();
  EXPECT_EQ(client.cache().stats().hits, 2u);
  return allocs;
}

TEST(TypedHitTest, ProfiledHitAllocatesNoMoreThanUnprofiledHit) {
  const std::size_t plain = reference_hit_allocs(/*profiled=*/false);
  EXPECT_EQ(reference_hit_allocs(/*profiled=*/true), plain)
      << "feeding an existing cost-profile row allocated";
}

TEST(TypedHitTest, HitWithPortalTelemetryAllocatesAsOftenAsPlainHit) {
  // The portal's configuration: profiles fed every call, every lookup
  // offered to the hot-key sketches.
  const std::size_t plain = reference_hit_allocs(/*profiled=*/false);
  EXPECT_EQ(reference_hit_allocs(/*profiled=*/true, /*hot_keys=*/true), plain)
      << "a warm hit's profile or hot-key bookkeeping allocated";
}

class TypedHitIsolation : public ::testing::TestWithParam<Representation> {};

TEST_P(TypedHitIsolation, MutatingAResultNeverChangesTheNextHit) {
  Stack s(GetParam());
  const std::string q = "isolation";
  const GoogleSearchResult expected = s.backend->search(q, 0, 10);
  const std::vector<std::uint8_t> page = s.backend->cached_page("http://x");

  for (int round = 0; round < 3; ++round) {  // miss, then hits
    GoogleSearchResult r = s.client->doGoogleSearch(q);
    ASSERT_EQ(r, expected) << "round " << round;
    r.searchQuery = "mutated";
    ASSERT_FALSE(r.resultElements.empty());
    r.resultElements[0].title = "mutated";
    r.resultElements.pop_back();
    r.directoryCategories.clear();

    std::vector<std::uint8_t> bytes = s.client->doGetCachedPage("http://x");
    ASSERT_EQ(bytes, page) << "round " << round;
    ASSERT_FALSE(bytes.empty());
    bytes[0] ^= 0xFF;
    bytes.resize(1);
  }
  EXPECT_EQ(s.client->middleware().cache().stats().hits, 4u);
}

INSTANTIATE_TEST_SUITE_P(
    CopyingRepresentations, TypedHitIsolation,
    ::testing::ValuesIn(cache::testing::copying_representations()));

TEST(TypedHitTest, PassByReferenceEntryKeepsItsStoredString) {
  // Auto stores an immutable string by reference: every hit shares it.
  Stack s(Representation::Auto);
  const std::string phrase = "pass by reference";
  const std::string expected = s.backend->spelling_suggestion(phrase);
  const std::vector<Parameter> params = {
      Parameter{"key",
                Object::make(std::string("demo-license-key-0000000000"))},
      Parameter{"phrase", Object::make(phrase)}};

  for (int i = 0; i < 8; ++i) {
    std::string typed = s.client->doSpellingSuggestion(phrase);
    ASSERT_EQ(typed, expected) << "hit " << i;
    typed.assign("mutated");
  }

  Object shared =
      s.client->middleware().invoke("doSpellingSuggestion", params);
  EXPECT_GE(shared.use_count(), 2) << "entry no longer shared with the cache";
  EXPECT_EQ(shared.as<std::string>(), expected)
      << "a typed hit moved out of the cache's stored string";
  EXPECT_EQ(s.client->middleware().cache().stats().hits, 8u);
}

TEST(TypedHitHammerTest, TypedHitsRaceInvalidationOfASharedEntry) {
  constexpr int kReaders = 4;
  constexpr int kIters = 400;
  Stack s(Representation::Auto);
  const std::string phrase = "hammered reference";
  const std::string expected = s.backend->spelling_suggestion(phrase);
  const std::vector<Parameter> params = {
      Parameter{"key",
                Object::make(std::string("demo-license-key-0000000000"))},
      Parameter{"phrase", Object::make(phrase)}};
  s.client->doSpellingSuggestion(phrase);

  std::atomic<int> wrong{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        if (s.client->doSpellingSuggestion(phrase) != expected)
          wrong.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::thread churn([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      s.client->middleware().invalidate("doSpellingSuggestion", params);
      if (s.client->doSpellingSuggestion(phrase) != expected)
        wrong.fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (std::thread& r : readers) r.join();
  stop.store(true);
  churn.join();

  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(s.client->doSpellingSuggestion(phrase), expected);
}

// Every per-hit write (CacheStats, hot-key sketches, profile hit rows)
// lands in the writing thread's stripe and the scrapes merge the stripes,
// so with the portal's telemetry on the merged figures count every hit
// exactly, while scrapes race the writers.
TEST(TypedHitHammerTest, StripedTelemetryCountsEveryHitExactly) {
  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 600;
  constexpr int kQueries = 24;  // 48 keys over 4 shards: every shard has some
  auto table = std::make_shared<cache::ResponseCache>(
      cache::ResponseCache::Config{.shards = 4});
  table->enable_hot_key_tracking({/*capacity=*/64, /*sample_every=*/1});
  auto profiles = std::make_shared<obs::CostProfiles>();
  cache::CachingServiceClient::Options options;
  options.profiles = profiles;
  options.profile_sample_every = 1;
  Stack s(Representation::ReflectionCopy, table, options);

  // "#" ends each token, so no query is a prefix of another in a key.
  std::vector<std::string> queries;
  for (int q = 0; q < kQueries; ++q)
    queries.push_back("stripe-" + std::to_string(q) + "#");
  for (const std::string& q : queries) {
    s.client->doGoogleSearch(q);
    s.client->doSpellingSuggestion(q);
  }
  const std::uint64_t warm_hits = table->stats().hits;
  // A key's hot count before the hammer: its warm-up lookups.
  std::map<std::string, std::uint64_t> before;
  for (const auto& h : table->hot_keys(0)) before[h.key] = h.count;
  ASSERT_EQ(before.size(), 2u * kQueries);

  // calls[t][op][q]: thread t's hits on operation op (0 = search) and q.
  std::vector<std::array<std::vector<std::uint64_t>, 2>> calls(kThreads);
  std::atomic<bool> done{false};
  std::thread scraper([&] {
    while (!done.load(std::memory_order_relaxed)) {
      (void)table->stats();
      (void)table->hot_keys(0);
      (void)profiles->snapshot();
    }
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto& mine = calls[t];
      mine[0].assign(kQueries, 0);
      mine[1].assign(kQueries, 0);
      for (int i = 0; i < kCallsPerThread; ++i) {
        const int q = (t * 7 + i * 5) % kQueries;
        const int op = (i + t) % 2;
        if (op == 0) {
          s.client->doGoogleSearch(queries[q]);
        } else {
          s.client->doSpellingSuggestion(queries[q]);
        }
        ++mine[op][q];
      }
    });
  }
  for (std::thread& t : threads) t.join();
  done.store(true);
  scraper.join();

  std::uint64_t op_calls[2] = {0, 0};
  std::map<std::string, std::uint64_t> key_calls;  // "<op>/<query>"
  for (const auto& mine : calls) {
    for (int op = 0; op < 2; ++op) {
      for (int q = 0; q < kQueries; ++q) {
        op_calls[op] += mine[op][q];
        key_calls[std::to_string(op) + "/" + queries[q]] += mine[op][q];
      }
    }
  }
  const std::uint64_t total = std::uint64_t{kThreads} * kCallsPerThread;

  EXPECT_EQ(table->stats().hits - warm_hits, total);

  const std::vector<obs::CostProfiles::Row> rows = profiles->snapshot();
  ASSERT_EQ(rows.size(), 2u);
  for (const obs::CostProfiles::Row& row : rows) {
    const int op = row.operation == "doGoogleSearch" ? 0 : 1;
    EXPECT_EQ(row.hits, op_calls[op]) << row.operation;
    EXPECT_EQ(row.hit_ns.count, op_calls[op]) << row.operation;
  }

  const std::vector<obs::TopKSketch::HotKey> hot = table->hot_keys(0);
  ASSERT_EQ(hot.size(), 2u * kQueries);
  for (const obs::TopKSketch::HotKey& h : hot) {
    const int op = h.key.find("|doGoogleSearch|") != std::string::npos ? 0 : 1;
    const std::size_t at = h.key.find("stripe-");
    ASSERT_NE(at, std::string::npos) << h.key;
    const std::string query =
        h.key.substr(at, h.key.find('#', at) - at + 1);
    EXPECT_EQ(h.count - before.at(h.key),
              key_calls.at(std::to_string(op) + "/" + query))
        << h.key;
    EXPECT_EQ(h.error, 0u) << "no stripe should have replaced an entry";
  }
}

}  // namespace
}  // namespace wsc::services::google

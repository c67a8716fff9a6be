// Typed hits through the GoogleClient stub (§3.1 call-by-copy isolation).
//
// The contract under test: a typed hit costs exactly what the middleware
// hit costs — the stub moves out of the object a copying representation
// built for this call instead of copying it again — while every caller
// still owns its result: mutating it never reaches the cache, and a
// pass-by-reference entry the cache shares is copied, never moved from.
// The hammer gives TSan (ctest -L hitpath under the tsan preset) typed
// hits racing the invalidation and re-store of a shared entry.
#include <gtest/gtest.h>

#include <atomic>
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
  explicit Stack(Representation representation) {
    auto transport = std::make_shared<transport::InProcessTransport>();
    transport->bind(kEndpoint, make_google_service(backend));
    cache::CachingServiceClient::Options options;
    for (const wsdl::OperationInfo& op : google_description()->operations()) {
      const bool fits =
          cache::applicable(representation, *op.result_type, false);
      options.policy.cacheable(op.name, std::chrono::hours(1),
                               fits ? representation : Representation::Auto);
    }
    client = std::make_unique<GoogleClient>(
        transport, kEndpoint, std::make_shared<cache::ResponseCache>(),
        options);
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
/// cost profile fed at period 1.  The profile's window clock is pinned, so
/// no bucket rotation lands inside the measurement.
std::size_t reference_hit_allocs(bool profiled) {
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
  cache::CachingServiceClient client(transport, google_description(),
                                     kEndpoint,
                                     std::make_shared<cache::ResponseCache>(),
                                     options);
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

}  // namespace
}  // namespace wsc::services::google

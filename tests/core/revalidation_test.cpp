// §3.2 HTTP consistency hook: If-Modified-Since revalidation of expired
// cache entries (extension over the paper's plain TTL, using the exact
// mechanism the paper points at: "the If-Modified-Since header enables
// conditional requests and then a server can return an empty response
// with status code 304").
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/client.hpp"
#include "soap/dispatcher.hpp"
#include "soap/serializer.hpp"
#include "tests/soap/test_service.hpp"
#include "transport/inproc_transport.hpp"

namespace wsc::cache {
namespace {

using reflect::Object;
using soap::Parameter;
using std::chrono::milliseconds;
using std::chrono::seconds;
using wsc::soap::testing::make_test_service;
using wsc::soap::testing::test_description;

constexpr const char* kEndpoint = "inproc://svc/reval";

// --- ResponseCache primitives ---------------------------------------------------

class DummyValue final : public CachedValue {
 public:
  reflect::Object retrieve() const override { return Object::make(7); }
  Representation representation() const override {
    return Representation::Reference;
  }
  std::size_t memory_size() const override { return 16; }
};

TEST(StaleLookupTest, FreshEntryCountsHit) {
  util::ManualClock clock;
  ResponseCache cache(ResponseCache::Config{}, clock);
  cache.store(CacheKey("k"), std::make_shared<DummyValue>(), milliseconds(100),
              seconds(42));
  ResponseCache::LookupResult s =
      cache.lookup(CacheKey("k").ref(), ResponseCache::Lookup::Stale);
  EXPECT_TRUE(s.fresh);
  ASSERT_NE(s.value, nullptr);
  EXPECT_EQ(s.last_modified, seconds(42));
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(StaleLookupTest, ExpiredEntryExposedWithoutCounting) {
  util::ManualClock clock;
  ResponseCache cache(ResponseCache::Config{}, clock);
  cache.store(CacheKey("k"), std::make_shared<DummyValue>(), milliseconds(100),
              seconds(42));
  clock.advance(milliseconds(200));
  ResponseCache::LookupResult s =
      cache.lookup(CacheKey("k").ref(), ResponseCache::Lookup::Stale);
  EXPECT_FALSE(s.fresh);
  ASSERT_NE(s.value, nullptr);  // stale but present
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(cache.entry_count(), 1u);  // not removed
}

TEST(StaleLookupTest, AbsentEntryCountsMiss) {
  ResponseCache cache;
  ResponseCache::LookupResult s =
      cache.lookup(CacheKey("nope").ref(), ResponseCache::Lookup::Stale);
  EXPECT_EQ(s.value, nullptr);
  EXPECT_FALSE(s.fresh);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(StaleLookupTest, RefreshRenewsLease) {
  util::ManualClock clock;
  ResponseCache cache(ResponseCache::Config{}, clock);
  cache.store(CacheKey("k"), std::make_shared<DummyValue>(), milliseconds(100));
  clock.advance(milliseconds(200));
  // expired... and erased!
  EXPECT_EQ(cache.lookup(CacheKey("k").ref()).value,
            nullptr);
  // Re-store and refresh before expiry this time.
  cache.store(CacheKey("k"), std::make_shared<DummyValue>(), milliseconds(100));
  clock.advance(milliseconds(90));
  EXPECT_TRUE(cache.refresh(CacheKey("k"), milliseconds(100)));
  clock.advance(milliseconds(90));
  EXPECT_NE(cache.lookup(CacheKey("k").ref()).value, nullptr);  // lease renewed
  EXPECT_EQ(cache.stats().revalidations, 1u);
}

TEST(StaleLookupTest, RefreshOnMissingEntryFails) {
  ResponseCache cache;
  EXPECT_FALSE(cache.refresh(CacheKey("ghost"), milliseconds(100)));
}

// --- full middleware flow --------------------------------------------------------

/// Counts every post() that reaches the wire, conditional requests included.
class CountingTransport final : public transport::Transport {
 public:
  CountingTransport(std::shared_ptr<Transport> inner, std::atomic<int>& calls)
      : inner_(std::move(inner)), calls_(calls) {}
  transport::WireResponse post(const util::Uri& endpoint,
                               const transport::WireRequest& request) override {
    ++calls_;
    return inner_->post(endpoint, request);
  }
  using Transport::post;

 private:
  std::shared_ptr<Transport> inner_;
  std::atomic<int>& calls_;
};

struct RevalFixture {
  RevalFixture() {
    transport = std::make_shared<transport::InProcessTransport>();
    auto service = make_test_service();
    service->bind("echoString", [this](const std::vector<Parameter>& p) {
      ++service_calls;
      return Object::make("v" + std::to_string(resource_version.load()) + ":" +
                          p.at(0).value.as<std::string>());
    });
    transport->bind(
        kEndpoint, service, {},
        [this](const std::string&) {
          return std::optional<seconds>(seconds(last_modified.load()));
        });
  }

  CachingServiceClient make_client(
      bool revalidate, milliseconds ttl = milliseconds(1000),
      double refresh_ahead = 0.0,
      std::shared_ptr<obs::CostProfiles> profiles = nullptr) {
    CachingServiceClient::Options options;
    OperationPolicy p;
    p.cacheable = true;
    p.ttl = ttl;
    p.revalidate = revalidate;
    p.refresh_ahead = refresh_ahead;
    options.policy.set("echoString", p);
    options.profiles = std::move(profiles);
    options.profile_sample_every = 1;
    response_cache =
        std::make_shared<ResponseCache>(ResponseCache::Config{}, clock);
    return CachingServiceClient(
        std::make_shared<CountingTransport>(transport, wire_calls),
        test_description(), kEndpoint, response_cache, options);
  }

  Object call(CachingServiceClient& client) {
    return client.invoke("echoString", {{"s", Object::make(std::string("q"))}});
  }

  util::ManualClock clock;
  std::shared_ptr<transport::InProcessTransport> transport;
  std::shared_ptr<ResponseCache> response_cache;
  std::atomic<int> service_calls{0};
  std::atomic<int> wire_calls{0};
  std::atomic<int> resource_version{1};
  std::atomic<long> last_modified{1000};  // seconds
};

TEST(RevalidationFlowTest, UnchangedResourceRenewsWithout304Refetch) {
  RevalFixture f;
  auto client = f.make_client(/*revalidate=*/true);
  EXPECT_EQ(f.call(client).as<std::string>(), "v1:q");
  EXPECT_EQ(f.service_calls, 1);

  f.clock.advance(milliseconds(2000));  // entry expires; resource unchanged
  const StatsSnapshot before = f.response_cache->stats();
  const int wire_before = f.wire_calls;
  EXPECT_EQ(f.call(client).as<std::string>(), "v1:q");
  EXPECT_EQ(f.service_calls, 1);  // 304 answered before dispatch
  EXPECT_EQ(f.response_cache->stats().revalidations, 1u);
  // The 304 call is one conditional request that answers as a hit.
  const StatsSnapshot after = f.response_cache->stats();
  EXPECT_EQ(f.wire_calls - wire_before, 1);
  EXPECT_EQ(after.revalidations - before.revalidations, 1u);
  EXPECT_EQ(after.hits - before.hits, 1u);
  EXPECT_EQ(after.misses - before.misses, 0u);

  // The renewed lease serves fresh hits again.
  EXPECT_EQ(f.call(client).as<std::string>(), "v1:q");
  EXPECT_EQ(f.service_calls, 1);
}

TEST(RevalidationFlowTest, BackgroundRevalidationCountsNoHitOrMiss) {
  RevalFixture f;
  auto profiles = std::make_shared<obs::CostProfiles>();
  auto client = f.make_client(/*revalidate=*/true, milliseconds(1000),
                              /*refresh_ahead=*/0.5, profiles);
  f.call(client);                       // cold miss, stored with Last-Modified
  f.clock.advance(milliseconds(600));   // fresh, past the 500ms soft TTL
  EXPECT_EQ(f.call(client).as<std::string>(), "v1:q");  // hit wins the claim

  // The background refresh asks conditionally and gets a 304.
  for (int i = 0; i < 2000 && f.response_cache->stats().revalidations == 0;
       ++i)
    std::this_thread::sleep_for(milliseconds(1));
  const StatsSnapshot stats = f.response_cache->stats();
  ASSERT_EQ(stats.revalidations, 1u);
  EXPECT_EQ(f.wire_calls, 2);
  EXPECT_EQ(f.service_calls, 1);
  // Only the two foreground calls are counted, in /stats and the profile.
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  std::uint64_t profile_hits = 0, profile_misses = 0;
  for (const obs::CostProfiles::Row& row : profiles->snapshot()) {
    profile_hits += row.hits;
    profile_misses += row.misses;
  }
  EXPECT_EQ(profile_hits, 1u);
  EXPECT_EQ(profile_misses, 1u);

  // The renewed lease serves a fresh hit past the old expiry (and before
  // the new soft TTL, so no second refresh starts).
  f.clock.advance(milliseconds(450));
  EXPECT_EQ(f.call(client).as<std::string>(), "v1:q");
  EXPECT_EQ(f.wire_calls, 2);
}

TEST(RevalidationFlowTest, ChangedResourceRefetches) {
  RevalFixture f;
  auto client = f.make_client(/*revalidate=*/true);
  f.call(client);
  f.clock.advance(milliseconds(2000));
  f.resource_version = 2;
  f.last_modified = 5000;  // after the cached entry's Last-Modified
  EXPECT_EQ(f.call(client).as<std::string>(), "v2:q");
  EXPECT_EQ(f.service_calls, 2);
  EXPECT_EQ(f.response_cache->stats().revalidations, 0u);
}

TEST(RevalidationFlowTest, DisabledPolicyAlwaysRefetches) {
  RevalFixture f;
  auto client = f.make_client(/*revalidate=*/false);
  f.call(client);
  f.clock.advance(milliseconds(2000));
  EXPECT_EQ(f.call(client).as<std::string>(), "v1:q");
  EXPECT_EQ(f.service_calls, 2);  // full round trip despite no change
}

TEST(RevalidationFlowTest, NoLastModifiedFallsBackToRefetch) {
  RevalFixture f;
  // Rebind without a Last-Modified provider.
  f.transport = std::make_shared<transport::InProcessTransport>();
  auto service = make_test_service();
  service->bind("echoString", [&f](const std::vector<Parameter>& p) {
    ++f.service_calls;
    return Object::make("plain:" + p.at(0).value.as<std::string>());
  });
  f.transport->bind(kEndpoint, service);

  auto client = f.make_client(/*revalidate=*/true);
  f.call(client);
  f.clock.advance(milliseconds(2000));
  EXPECT_EQ(f.call(client).as<std::string>(), "plain:q");
  EXPECT_EQ(f.service_calls, 2);  // stale entry, no validator: refetch
}

TEST(RevalidationFlowTest, StaleEntriesStayUsableWhileRevalidating) {
  // The stale value handle remains retrievable even if the entry is
  // replaced concurrently (shared_ptr semantics).
  util::ManualClock clock;
  ResponseCache cache(ResponseCache::Config{}, clock);
  cache.store(CacheKey("k"), std::make_shared<DummyValue>(), milliseconds(10));
  clock.advance(milliseconds(20));
  ResponseCache::LookupResult s =
      cache.lookup(CacheKey("k").ref(), ResponseCache::Lookup::Stale);
  cache.store(CacheKey("k"), std::make_shared<DummyValue>(), milliseconds(10));
  EXPECT_EQ(s.value->retrieve().as<std::int32_t>(), 7);
}

// --- peek_operation (used by conditional dispatch) --------------------------------

TEST(PeekOperationTest, FindsFirstBodyChild) {
  soap::RpcRequest r;
  r.ns = "urn:Test";
  r.operation = "echoString";
  r.params = {{"s", Object::make(std::string("x"))}};
  EXPECT_EQ(soap::peek_operation(soap::serialize_request(r)), "echoString");
}

TEST(PeekOperationTest, NonSoapInputsYieldEmpty) {
  EXPECT_EQ(soap::peek_operation("<html/>"), "");
  EXPECT_EQ(soap::peek_operation("not xml at all"), "");
  EXPECT_EQ(soap::peek_operation(""), "");
  EXPECT_EQ(soap::peek_operation(
                "<e:Envelope xmlns:e=\"http://schemas.xmlsoap.org/soap/envelope/\">"
                "<e:Body/></e:Envelope>"),
            "");
}

TEST(PeekOperationTest, IgnoresHeaderBlocks) {
  const char* doc =
      "<e:Envelope xmlns:e=\"http://schemas.xmlsoap.org/soap/envelope/\">"
      "<e:Header><sec><token>x</token></sec></e:Header>"
      "<e:Body><w:theOp xmlns:w=\"urn:T\"/></e:Body></e:Envelope>";
  EXPECT_EQ(soap::peek_operation(doc), "theOp");
}

}  // namespace
}  // namespace wsc::cache

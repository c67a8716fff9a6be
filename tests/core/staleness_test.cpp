// Stale-if-error degraded mode: a Peek lookup must expose expired entries
// with zero side effects (a Fresh lookup would evict them on sight), and
// CachingServiceClient must serve an expired-but-in-grace entry when the
// wire call fails for good — counting every such serve.
#include <gtest/gtest.h>

#include <memory>

#include "core/client.hpp"
#include "soap/serializer.hpp"
#include "tests/soap/test_service.hpp"
#include "transport/fault_injection.hpp"
#include "transport/inproc_transport.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"

namespace wsc::cache {
namespace {

using reflect::Object;
using soap::Parameter;
using std::chrono::milliseconds;
using std::chrono::seconds;
using wsc::soap::testing::make_test_service;
using wsc::soap::testing::test_description;

constexpr const char* kEndpoint = "inproc://svc/stale";

class DummyValue final : public CachedValue {
 public:
  reflect::Object retrieve() const override { return Object::make(7); }
  Representation representation() const override {
    return Representation::Reference;
  }
  std::size_t memory_size() const override { return 16; }
};

// --- ResponseCache::lookup(key, Lookup::Peek) -----------------------------

TEST(LookupAllowStaleTest, FreshEntryReportedWithZeroStaleness) {
  util::ManualClock clock;
  ResponseCache cache(ResponseCache::Config{}, clock);
  cache.store(CacheKey("k"), std::make_shared<DummyValue>(), milliseconds(100),
              seconds(42));
  clock.advance(milliseconds(40));
  ResponseCache::LookupResult s =
      cache.lookup(CacheKey("k").ref(), ResponseCache::Lookup::Peek);
  ASSERT_NE(s.value, nullptr);
  EXPECT_TRUE(s.fresh);
  EXPECT_EQ(s.staleness, util::Duration(0));
  EXPECT_EQ(s.last_modified, seconds(42));
}

TEST(LookupAllowStaleTest, ExpiredEntryReportsHowStaleItIs) {
  util::ManualClock clock;
  ResponseCache cache(ResponseCache::Config{}, clock);
  cache.store(CacheKey("k"), std::make_shared<DummyValue>(), milliseconds(100),
              seconds(42));
  clock.advance(milliseconds(250));
  ResponseCache::LookupResult s =
      cache.lookup(CacheKey("k").ref(), ResponseCache::Lookup::Peek);
  ASSERT_NE(s.value, nullptr);
  EXPECT_FALSE(s.fresh);
  EXPECT_EQ(s.staleness, util::Duration(milliseconds(150)));
}

TEST(LookupAllowStaleTest, HasNoSideEffectsAtAll) {
  util::ManualClock clock;
  ResponseCache cache(ResponseCache::Config{}, clock);
  cache.store(CacheKey("k"), std::make_shared<DummyValue>(), milliseconds(100),
              seconds(42));
  clock.advance(milliseconds(500));

  // Repeated stale lookups: no hit/miss/expiration accounting, and — the
  // point of the method — no eviction of the expired entry.
  for (int i = 0; i < 3; ++i) {
    ResponseCache::LookupResult s =
        cache.lookup(CacheKey("k").ref(), ResponseCache::Lookup::Peek);
    ASSERT_NE(s.value, nullptr);
  }
  StatsSnapshot stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.expirations, 0u);
  EXPECT_EQ(stats.entries, 1u);

  // A Fresh lookup keeps its eager-eviction contract.
  EXPECT_EQ(cache.lookup(CacheKey("k").ref()).value, nullptr);
  EXPECT_EQ(cache.stats().expirations, 1u);
  EXPECT_EQ(
      cache.lookup(CacheKey("k").ref(), ResponseCache::Lookup::Peek).value,
      nullptr);
}

TEST(LookupAllowStaleTest, AbsentKeyReturnsEmptyWithoutCountingAMiss) {
  util::ManualClock clock;
  ResponseCache cache(ResponseCache::Config{}, clock);
  ResponseCache::LookupResult s =
      cache.lookup(CacheKey("nope").ref(), ResponseCache::Lookup::Peek);
  EXPECT_EQ(s.value, nullptr);
  EXPECT_FALSE(s.fresh);
  EXPECT_EQ(cache.stats().misses, 0u);
}

// --- CachingServiceClient stale-on-error ----------------------------------------

struct ClientRig {
  explicit ClientRig(CachePolicy policy) {
    auto inproc = std::make_shared<transport::InProcessTransport>();
    inproc->bind(kEndpoint, make_test_service());
    faults = std::make_shared<transport::FaultInjectingTransport>(
        inproc, transport::FaultSpec{});
    cache = std::make_shared<ResponseCache>(ResponseCache::Config{}, clock);
    CachingServiceClient::Options options;
    options.policy = std::move(policy);
    client = std::make_unique<CachingServiceClient>(
        faults, test_description(), kEndpoint, cache, std::move(options));
  }

  std::string echo(const std::string& s) {
    return client->invoke("echoString", {{"s", Object::make(s)}})
        .as<std::string>();
  }

  util::ManualClock clock;
  std::shared_ptr<transport::FaultInjectingTransport> faults;
  std::shared_ptr<ResponseCache> cache;
  std::unique_ptr<CachingServiceClient> client;
};

CachePolicy grace_policy(milliseconds ttl = milliseconds(100),
                         milliseconds grace = seconds(10)) {
  CachePolicy policy;
  policy.cacheable("echoString", ttl);
  policy.stale_if_error("echoString", grace);
  return policy;
}

TEST(StaleOnErrorTest, OutageWithinGraceServesExpiredEntry) {
  ClientRig rig(grace_policy());
  EXPECT_EQ(rig.echo("hi"), "echo:hi");  // warm
  rig.clock.advance(milliseconds(200));  // expire
  rig.faults->set_down(true);            // origin gone
  EXPECT_EQ(rig.echo("hi"), "echo:hi");  // degraded serve, correct value
  StatsSnapshot stats = rig.cache->stats();
  EXPECT_EQ(stats.stale_serves, 1u);
  EXPECT_EQ(stats.entries, 1u);  // the fallback entry was not destroyed
}

TEST(StaleOnErrorTest, RepeatedOutageCallsKeepServingStale) {
  ClientRig rig(grace_policy());
  rig.echo("hi");
  rig.clock.advance(milliseconds(200));
  rig.faults->set_down(true);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(rig.echo("hi"), "echo:hi");
  EXPECT_EQ(rig.cache->stats().stale_serves, 5u);
}

TEST(StaleOnErrorTest, BeyondGraceFailsLoudly) {
  ClientRig rig(grace_policy(milliseconds(100), milliseconds(500)));
  rig.echo("hi");
  rig.clock.advance(milliseconds(700));  // 600ms past expiry > 500ms grace
  rig.faults->set_down(true);
  EXPECT_THROW(rig.echo("hi"), TransportError);
  EXPECT_EQ(rig.cache->stats().stale_serves, 0u);
}

TEST(StaleOnErrorTest, NoGraceConfiguredFailsLoudly) {
  CachePolicy policy;
  policy.cacheable("echoString", milliseconds(100));
  ClientRig rig(std::move(policy));
  rig.echo("hi");
  rig.clock.advance(milliseconds(200));
  rig.faults->set_down(true);
  EXPECT_THROW(rig.echo("hi"), TransportError);
  EXPECT_EQ(rig.cache->stats().stale_serves, 0u);
}

TEST(StaleOnErrorTest, ColdCacheCannotAbsorbTheFailure) {
  ClientRig rig(grace_policy());
  rig.faults->set_down(true);
  EXPECT_THROW(rig.echo("never-seen"), TransportError);
}

TEST(StaleOnErrorTest, FreshEntryStillServedNormallyUnderGracePolicy) {
  ClientRig rig(grace_policy());
  rig.echo("hi");
  rig.faults->set_down(true);  // origin down, but the entry is still fresh
  EXPECT_EQ(rig.echo("hi"), "echo:hi");
  StatsSnapshot stats = rig.cache->stats();
  EXPECT_EQ(stats.stale_serves, 0u);  // that was a plain fresh hit
  EXPECT_EQ(stats.hits, 1u);
}

TEST(StaleOnErrorTest, CorruptXmlAlsoTriggersStaleServe) {
  ClientRig rig(grace_policy());
  rig.echo("hi");
  rig.clock.advance(milliseconds(200));
  transport::FaultSpec corrupt;
  corrupt.p_corrupt_xml = 1.0;  // origin answers, but with mangled XML
  rig.faults->set_spec(corrupt);
  EXPECT_EQ(rig.echo("hi"), "echo:hi");
  EXPECT_EQ(rig.cache->stats().stale_serves, 1u);
}

TEST(StaleOnErrorTest, RecoveryRefreshesInsteadOfServingStale) {
  ClientRig rig(grace_policy());
  rig.echo("hi");
  rig.clock.advance(milliseconds(200));
  rig.faults->set_down(true);
  EXPECT_EQ(rig.echo("hi"), "echo:hi");  // stale serve during outage
  rig.faults->set_down(false);
  EXPECT_EQ(rig.echo("hi"), "echo:hi");  // origin back: a real refetch
  StatsSnapshot stats = rig.cache->stats();
  EXPECT_EQ(stats.stale_serves, 1u);  // did not grow after recovery
  // The refetch re-stored the entry: it is fresh again.
  EXPECT_EQ(rig.echo("hi"), "echo:hi");
  EXPECT_GE(rig.cache->stats().hits, 1u);
}

TEST(StaleOnErrorTest, UncacheableOperationsAreNeverServedStale) {
  CachePolicy policy;  // voidOp left unconfigured: uncacheable
  policy.cacheable("echoString", milliseconds(100));
  policy.stale_if_error("echoString", seconds(10));
  ClientRig rig(std::move(policy));
  rig.echo("hi");
  rig.faults->set_down(true);
  EXPECT_THROW(
      rig.client->invoke("voidOp", {{"x", Object::make(std::int32_t(1))}}),
      TransportError);
}

}  // namespace
}  // namespace wsc::cache

// Single-flight miss coalescing, stale-while-revalidate, and soft-TTL
// refresh-ahead (DESIGN.md §11).
//
// The deterministic actor in these tests is GateTransport: it parks every
// wire call on a condition variable while the gate is closed, so a "slow
// leader" or an N-thread herd is scripted, not timed.  Condition-variable
// waits need real time (a ManualClock cannot wake a parked follower), so
// the timeout tests use short real deadlines; everything else is
// gate-sequenced and free of sleeps.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/client.hpp"
#include "http/cache_headers.hpp"
#include "obs/events.hpp"
#include "tests/soap/test_service.hpp"
#include "transport/inproc_transport.hpp"
#include "transport/retry.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"

namespace wsc::cache {
namespace {

using reflect::Object;
using std::chrono::milliseconds;
using std::chrono::seconds;
using wsc::soap::testing::make_test_service;
using wsc::soap::testing::test_description;

constexpr const char* kEndpoint = "inproc://svc/coalesce";

/// Transport decorator that parks every post() while the gate is closed,
/// and can be told to throw instead of forwarding once released.
class GateTransport final : public transport::Transport {
 public:
  explicit GateTransport(std::shared_ptr<Transport> inner)
      : inner_(std::move(inner)) {}

  transport::WireResponse post(const util::Uri& endpoint,
                               const transport::WireRequest& request) override {
    bool fail;
    {
      std::unique_lock lock(mu_);
      ++calls_;
      arrived_.notify_all();
      released_.wait(lock, [this] { return open_; });
      fail = fail_;
    }
    if (fail)
      throw TransportError("gate: scripted wire failure", /*retryable=*/false);
    return inner_->post(endpoint, request);
  }
  using Transport::post;

  void open() {
    std::lock_guard lock(mu_);
    open_ = true;
    released_.notify_all();
  }
  void close() {
    std::lock_guard lock(mu_);
    open_ = false;
  }
  void fail_released_calls() {
    std::lock_guard lock(mu_);
    fail_ = true;
  }
  /// Block until at least n calls have arrived at the gate (counting every
  /// call since construction, parked or already released).
  void await_calls(int n) {
    std::unique_lock lock(mu_);
    arrived_.wait(lock, [&] { return calls_ >= n; });
  }
  int calls() const {
    std::lock_guard lock(mu_);
    return calls_;
  }

 private:
  std::shared_ptr<Transport> inner_;
  mutable std::mutex mu_;
  std::condition_variable arrived_, released_;
  int calls_ = 0;
  bool open_ = false;
  bool fail_ = false;
};

struct Rig {
  explicit Rig(CachePolicy policy, CachingServiceClient::Options extra = {}) {
    auto inproc = std::make_shared<transport::InProcessTransport>();
    inproc->bind(kEndpoint, make_test_service());
    gate = std::make_shared<GateTransport>(inproc);
    cache = std::make_shared<ResponseCache>(ResponseCache::Config{}, clock);
    CachingServiceClient::Options options = std::move(extra);
    options.policy = std::move(policy);
    client = std::make_unique<CachingServiceClient>(
        gate, test_description(), kEndpoint, cache, std::move(options));
  }

  std::string echo(const std::string& s) {
    return client->invoke("echoString", {{"s", Object::make(s)}})
        .as<std::string>();
  }

  /// Poll (real time) until pred() holds or ~2s elapse.
  template <typename Pred>
  static bool eventually(Pred pred) {
    for (int i = 0; i < 2000; ++i) {
      if (pred()) return true;
      std::this_thread::sleep_for(milliseconds(1));
    }
    return pred();
  }

  util::ManualClock clock;
  std::shared_ptr<GateTransport> gate;
  std::shared_ptr<ResponseCache> cache;
  std::unique_ptr<CachingServiceClient> client;
};

CachePolicy plain_policy(milliseconds ttl = std::chrono::hours(1)) {
  CachePolicy policy;
  policy.cacheable("echoString", ttl);
  return policy;
}

/// Launch `n` concurrent echo("same") calls; join() returns when all ended.
struct Herd {
  Herd(Rig& rig, int n) : results(n), errors(n) {
    threads.reserve(n);
    for (int i = 0; i < n; ++i)
      threads.emplace_back([&rig, this, i] {
        try {
          results[i] = rig.echo("same");
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
  }
  void join() {
    for (auto& t : threads) t.join();
  }
  std::vector<std::thread> threads;
  std::vector<std::string> results;
  std::vector<std::exception_ptr> errors;
};

// --- The herd: N identical misses, one backend call ---------------------

TEST(CoalescingTest, HerdOfIdenticalMissesMakesOneBackendCall) {
  constexpr int kThreads = 16;
  Rig rig(plain_policy());
  Herd herd(rig, kThreads);
  // One leader reaches the wire and parks at the gate; every other thread
  // must end up parked on its flight before we let the call finish.
  rig.gate->await_calls(1);
  ASSERT_TRUE(Rig::eventually([&] {
    return rig.cache->stats().coalesced_waits >= kThreads - 1;
  }));
  rig.gate->open();
  herd.join();

  EXPECT_EQ(rig.gate->calls(), 1);  // the whole point
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_EQ(herd.errors[i], nullptr);
    EXPECT_EQ(herd.results[i], "echo:same");
  }
  StatsSnapshot stats = rig.cache->stats();
  EXPECT_EQ(stats.coalesced_waits, kThreads - 1u);
  EXPECT_EQ(stats.coalesced_failures, 0u);
  EXPECT_EQ(stats.stores, 1u);
}

TEST(CoalescingTest, DisabledCoalescingMakesOneCallPerCaller) {
  constexpr int kThreads = 4;
  CachingServiceClient::Options options;
  options.coalesce_misses = false;
  Rig rig(plain_policy(), options);
  Herd herd(rig, kThreads);
  // Without single-flight, all four misses reach the wire SIMULTANEOUSLY —
  // four calls parked at the closed gate is the thundering herd itself.
  rig.gate->await_calls(kThreads);
  rig.gate->open();
  herd.join();
  EXPECT_EQ(rig.gate->calls(), kThreads);
  EXPECT_EQ(rig.cache->stats().coalesced_waits, 0u);
}

// --- Leader failure: ONE broadcast, not N retries -----------------------

TEST(CoalescingTest, LeaderFailureIsBroadcastToAllFollowersOnce) {
  constexpr int kThreads = 8;
  const std::uint64_t failures_before =
      obs::event_log().count(obs::EventKind::LeaderFailure);
  Rig rig(plain_policy());
  Herd herd(rig, kThreads);
  rig.gate->await_calls(1);
  ASSERT_TRUE(Rig::eventually([&] {
    return rig.cache->stats().coalesced_waits >= kThreads - 1;
  }));
  rig.gate->fail_released_calls();
  rig.gate->open();
  herd.join();

  EXPECT_EQ(rig.gate->calls(), 1);  // nobody retried the origin
  int failed = 0;
  for (auto& error : herd.errors) {
    if (!error) continue;
    ++failed;
    EXPECT_THROW(std::rethrow_exception(error), TransportError);
  }
  EXPECT_EQ(failed, kThreads);  // everyone saw the one failure
  StatsSnapshot stats = rig.cache->stats();
  EXPECT_EQ(stats.coalesced_failures, kThreads - 1u);
  EXPECT_EQ(obs::event_log().count(obs::EventKind::LeaderFailure),
            failures_before + 1);
}

TEST(CoalescingTest, FollowersDegradeToStaleOnBroadcastFailure) {
  constexpr int kThreads = 4;
  CachePolicy policy = plain_policy(milliseconds(100));
  policy.stale_if_error("echoString", seconds(10));
  Rig rig(std::move(policy));
  rig.gate->open();
  EXPECT_EQ(rig.echo("same"), "echo:same");  // warm: wire call #1
  rig.clock.advance(milliseconds(200));      // expire within grace
  rig.gate->close();
  rig.gate->fail_released_calls();

  Herd herd(rig, kThreads);
  rig.gate->await_calls(2);  // the refetch leader parked at the gate
  ASSERT_TRUE(Rig::eventually([&] {
    return rig.cache->stats().coalesced_waits >= kThreads - 1;
  }));
  rig.gate->open();  // leader's call fails; ONE failure broadcast
  herd.join();
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_EQ(herd.errors[i], nullptr) << "caller " << i << " threw";
    EXPECT_EQ(herd.results[i], "echo:same");  // stale value, correct bytes
  }
  // Leader and every follower each made their own degraded-mode decision.
  StatsSnapshot stats = rig.cache->stats();
  EXPECT_EQ(stats.stale_serves, kThreads + 0u);
  EXPECT_EQ(stats.coalesced_failures, kThreads - 1u);
  EXPECT_EQ(rig.gate->calls(), 2);  // warm + the one failed refetch
}

// --- Follower deadlines --------------------------------------------------

TEST(CoalescingTest, FollowerDeadlineExpiresWhileLeaderIsSlow) {
  CachingServiceClient::Options options;
  options.coalesce_wait = milliseconds(50);
  Rig rig(plain_policy(), options);

  std::thread leader([&] { EXPECT_EQ(rig.echo("same"), "echo:same"); });
  rig.gate->await_calls(1);
  // Follower: parks 50ms on the leader's flight, then gives up.  No stale
  // entry, no grace -> TimeoutError, and the origin saw ONE call.
  EXPECT_THROW(rig.echo("same"), TimeoutError);
  EXPECT_EQ(rig.gate->calls(), 1);
  rig.gate->open();
  leader.join();
  StatsSnapshot stats = rig.cache->stats();
  EXPECT_EQ(stats.coalesced_waits, 1u);
  EXPECT_EQ(stats.coalesced_failures, 0u);
}

TEST(CoalescingTest, FollowerDeadlineFallsBackToStaleWithinGrace) {
  CachePolicy policy = plain_policy(milliseconds(100));
  policy.stale_if_error("echoString", seconds(10));
  CachingServiceClient::Options options;
  options.coalesce_wait = milliseconds(50);
  Rig rig(std::move(policy), options);
  rig.gate->open();
  EXPECT_EQ(rig.echo("same"), "echo:same");  // warm: wire call #1
  rig.clock.advance(milliseconds(200));      // expire within grace
  rig.gate->close();

  std::thread leader([&] { EXPECT_EQ(rig.echo("same"), "echo:same"); });
  rig.gate->await_calls(2);  // the refetch leader is parked (slow)
  // Follower gives up after 50ms but holds a grace-eligible stale entry:
  // it degrades to the stale value instead of surfacing the timeout.
  EXPECT_EQ(rig.echo("same"), "echo:same");
  StatsSnapshot mid = rig.cache->stats();
  EXPECT_EQ(mid.stale_serves, 1u);
  EXPECT_EQ(mid.coalesced_waits, 1u);
  rig.gate->open();
  leader.join();
  EXPECT_EQ(rig.gate->calls(), 2);
  EXPECT_EQ(rig.cache->stats().stores, 2u);  // the slow leader did land
}

// --- Shutdown with parked waiters ---------------------------------------

TEST(CoalescingTest, ShutdownWakesParkedFollowers) {
  constexpr int kThreads = 4;
  Rig rig(plain_policy());
  Herd herd(rig, kThreads);
  rig.gate->await_calls(1);
  ASSERT_TRUE(Rig::eventually([&] {
    return rig.cache->stats().coalesced_waits >= kThreads - 1;
  }));
  rig.cache->shutdown_flights();
  // Followers wake with FlightWait::Shutdown and surface a plain Error
  // (not a timeout: shutdown is immediate).  The leader is still parked at
  // the gate; release it — its complete_flight becomes a no-op.
  rig.gate->open();
  herd.join();

  int shutdown_errors = 0, ok = 0;
  for (int i = 0; i < kThreads; ++i) {
    if (!herd.errors[i]) {
      ++ok;
      EXPECT_EQ(herd.results[i], "echo:same");
      continue;
    }
    ++shutdown_errors;
    try {
      std::rethrow_exception(herd.errors[i]);
    } catch (const TransportError&) {
      ADD_FAILURE() << "follower surfaced a transport error on shutdown";
    } catch (const Error&) {
      // expected: "cache shut down while waiting..."
    }
  }
  EXPECT_EQ(ok, 1);  // the leader
  EXPECT_EQ(shutdown_errors, kThreads - 1);
}

TEST(CoalescingTest, DestructionWithWaitersParkedIsCleanAndDeadlockFree) {
  constexpr int kThreads = 3;
  auto rig = std::make_unique<Rig>(plain_policy());
  Herd herd(*rig, kThreads);
  rig->gate->await_calls(1);
  ASSERT_TRUE(Rig::eventually([&] {
    return rig->cache->stats().coalesced_waits >= kThreads - 1;
  }));
  // Shut flights down exactly as ~ResponseCache would, then release the
  // leader so every thread (and only then the rig) can wind down.
  rig->cache->shutdown_flights();
  rig->gate->open();
  herd.join();
  rig.reset();  // full destruction: refresh queue joined, second shutdown
                // is a no-op, nothing leaks, nothing deadlocks
}

// --- NoValue: leader's answer was not storable --------------------------

TEST(CoalescingTest, UnstorableLeaderResultReleasesFollowersToTheirOwnCalls) {
  constexpr int kThreads = 4;
  // The origin says no-store on every response: the leader completes its
  // flight with NO value, and each follower falls back to its own call.
  auto inproc = std::make_shared<transport::InProcessTransport>();
  http::CacheDirectives no_store;
  no_store.no_store = true;
  inproc->bind(kEndpoint, make_test_service(), no_store);
  auto gate = std::make_shared<GateTransport>(inproc);
  util::ManualClock clock;
  auto cache = std::make_shared<ResponseCache>(ResponseCache::Config{}, clock);
  CachingServiceClient::Options options;
  options.policy = plain_policy();
  CachingServiceClient client(gate, test_description(), kEndpoint, cache,
                              std::move(options));

  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([&] {
      if (client.invoke("echoString", {{"s", Object::make(std::string("x"))}})
              .as<std::string>() == "echo:x")
        ++ok;
    });
  gate->await_calls(1);
  ASSERT_TRUE(Rig::eventually(
      [&] { return cache->stats().coalesced_waits >= kThreads - 1; }));
  gate->open();
  for (auto& t : threads) t.join();

  EXPECT_EQ(ok.load(), kThreads);
  // Leader called once; every follower woke with NoValue and called too.
  EXPECT_EQ(gate->calls(), kThreads);
  EXPECT_EQ(cache->stats().stores, 0u);
}

// --- Stale-while-revalidate ----------------------------------------------

TEST(CoalescingTest, StaleWithinGraceIsServedWithoutBlockingOnTheWire) {
  CachePolicy policy = plain_policy(milliseconds(100));
  policy.stale_while_revalidate("echoString", seconds(10));
  Rig rig(std::move(policy));
  rig.gate->open();
  EXPECT_EQ(rig.echo("same"), "echo:same");  // warm: 1 call, 1 store
  ASSERT_EQ(rig.gate->calls(), 1);
  rig.clock.advance(milliseconds(150));  // 50ms past expiry, within grace
  rig.gate->close();                     // the wire is now SLOW

  // The entry is expired-within-grace: this call must return the stale
  // value IMMEDIATELY even though the refresh it kicked off is parked at
  // the gate — the non-blocking property, not a fast-backend accident.
  EXPECT_EQ(rig.echo("same"), "echo:same");
  StatsSnapshot stats = rig.cache->stats();
  EXPECT_EQ(stats.stale_while_revalidate_served, 1u);

  // Release the wire: the background refresh lands as call #2 + store #2.
  rig.gate->open();
  ASSERT_TRUE(Rig::eventually([&] { return rig.cache->stats().stores >= 2; }));
  EXPECT_EQ(rig.gate->calls(), 2);
  // The entry is fresh again: the next call is a plain hit.
  EXPECT_EQ(rig.echo("same"), "echo:same");
  EXPECT_EQ(rig.gate->calls(), 2);
}

TEST(CoalescingTest, ExpiryStormOnSwrKeyNeverBlocksCallers) {
  constexpr int kThreads = 8;
  CachePolicy policy = plain_policy(milliseconds(100));
  policy.stale_while_revalidate("echoString", seconds(10));
  Rig rig(std::move(policy));
  rig.gate->open();
  EXPECT_EQ(rig.echo("same"), "echo:same");  // warm
  const int warm_calls = rig.gate->calls();
  rig.clock.advance(milliseconds(150));  // everyone arrives to a stale entry

  Herd herd(rig, kThreads);
  herd.join();
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_EQ(herd.errors[i], nullptr);
    EXPECT_EQ(herd.results[i], "echo:same");
  }
  // All callers were served (stale or, after the refresh landed, fresh);
  // the refresh itself was deduplicated by the flight table.  The bound is
  // not exactly 1 extra call: a caller that read "stale" just as the
  // refresh retired its flight may lead one more — but never a herd.
  StatsSnapshot stats = rig.cache->stats();
  EXPECT_GE(stats.stale_while_revalidate_served, 1u);
  ASSERT_TRUE(Rig::eventually(
      [&] { return rig.cache->stats().stores >= 2; }));
  EXPECT_LE(rig.gate->calls(), warm_calls + 3);
}

TEST(CoalescingTest, BeyondSwrGraceFallsBackToSynchronousMiss) {
  CachePolicy policy = plain_policy(milliseconds(100));
  policy.stale_while_revalidate("echoString", milliseconds(200));
  Rig rig(std::move(policy));
  rig.gate->open();
  rig.echo("same");
  rig.clock.advance(milliseconds(500));  // 400ms past expiry > 200ms grace
  EXPECT_EQ(rig.echo("same"), "echo:same");
  StatsSnapshot stats = rig.cache->stats();
  EXPECT_EQ(stats.stale_while_revalidate_served, 0u);
  EXPECT_EQ(rig.gate->calls(), 2);  // a plain synchronous refetch
}

// --- Refresh-ahead -------------------------------------------------------

TEST(CoalescingTest, SoftTtlHitTriggersExactlyOneBackgroundRefresh) {
  const std::uint64_t events_before =
      obs::event_log().count(obs::EventKind::RefreshAhead);
  CachePolicy policy = plain_policy(milliseconds(100));
  policy.refresh_ahead("echoString", 0.5);
  Rig rig(std::move(policy));
  rig.gate->open();
  EXPECT_EQ(rig.echo("same"), "echo:same");  // warm; soft TTL = 50ms
  rig.clock.advance(milliseconds(60));       // fresh, past the soft TTL

  // First hit past the soft TTL wins the claim and schedules ONE refresh;
  // further hits (claim consumed) trigger nothing.
  EXPECT_EQ(rig.echo("same"), "echo:same");
  EXPECT_EQ(rig.echo("same"), "echo:same");
  EXPECT_EQ(rig.echo("same"), "echo:same");
  StatsSnapshot stats = rig.cache->stats();
  EXPECT_EQ(stats.refresh_ahead_triggered, 1u);
  EXPECT_EQ(obs::event_log().count(obs::EventKind::RefreshAhead),
            events_before + 1);

  // The refresh lands in the background and re-arms the claim...
  ASSERT_TRUE(Rig::eventually([&] { return rig.cache->stats().stores >= 2; }));
  EXPECT_EQ(rig.gate->calls(), 2);
  // ...so the cycle repeats: past the NEW soft TTL, one more trigger.
  rig.clock.advance(milliseconds(60));
  EXPECT_EQ(rig.echo("same"), "echo:same");
  EXPECT_EQ(rig.cache->stats().refresh_ahead_triggered, 2u);
}

TEST(CoalescingTest, BackgroundRefreshesCountNoProfileMiss) {
  // A refresh renews an entry whose request the foreground already counted
  // as a hit: the profile row (the adaptive policy's miss-ratio input) must
  // agree with /stats, not count each refresh as one more miss.
  CachePolicy policy = plain_policy(milliseconds(100));
  policy.refresh_ahead("echoString", 0.5);
  CachingServiceClient::Options options;
  options.profiles = std::make_shared<obs::CostProfiles>();
  options.profile_sample_every = 1;
  std::shared_ptr<obs::CostProfiles> profiles = options.profiles;
  Rig rig(std::move(policy), std::move(options));
  rig.gate->open();
  EXPECT_EQ(rig.echo("same"), "echo:same");  // the one cold miss
  const auto row = [&] { return profiles->snapshot().at(0); };
  for (std::uint64_t cycle = 1; cycle <= 5; ++cycle) {
    rig.clock.advance(milliseconds(60));  // fresh, past the soft TTL
    EXPECT_EQ(rig.echo("same"), "echo:same");
    // Wait for this cycle's refresh to finish before the next one: its
    // profile sample lands after the store AND after its flight closed,
    // so the next hit's refresh cannot board the finishing flight.
    ASSERT_TRUE(Rig::eventually(
        [&] { return row().stored_entries >= cycle + 1; }));
  }
  ASSERT_EQ(profiles->snapshot().size(), 1u);
  const StatsSnapshot stats = rig.cache->stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 5u);
  EXPECT_EQ(row().misses, stats.misses);
  EXPECT_EQ(row().hits, stats.hits);
  EXPECT_EQ(row().stored_entries, 6u);
}

TEST(CoalescingTest, HitsBeforeSoftTtlNeverTrigger) {
  CachePolicy policy = plain_policy(milliseconds(100));
  policy.refresh_ahead("echoString", 0.8);
  Rig rig(std::move(policy));
  rig.gate->open();
  rig.echo("same");
  rig.clock.advance(milliseconds(40));  // soft TTL is 80ms
  for (int i = 0; i < 5; ++i) EXPECT_EQ(rig.echo("same"), "echo:same");
  EXPECT_EQ(rig.cache->stats().refresh_ahead_triggered, 0u);
  EXPECT_EQ(rig.gate->calls(), 1);
}

// --- Breaker open mid-herd -----------------------------------------------

TEST(CoalescingTest, OpenBreakerFailsTheWholeHerdWithoutTouchingTheWire) {
  constexpr int kThreads = 6;
  // Stack: inproc -> gate (failing) -> retrying with a low breaker
  // threshold.  The breaker lives ABOVE the gate, so once it opens nothing
  // reaches the gate's call counter.
  auto inproc = std::make_shared<transport::InProcessTransport>();
  inproc->bind(kEndpoint, make_test_service());
  auto gate = std::make_shared<GateTransport>(inproc);
  gate->fail_released_calls();
  gate->open();  // origin hard-down from the start, failing instantly
  transport::RetryPolicy retry_policy;
  retry_policy.max_attempts = 1;
  retry_policy.breaker_threshold = 3;
  retry_policy.breaker_cooldown = std::chrono::hours(1);
  auto retrying =
      std::make_shared<transport::RetryingTransport>(gate, retry_policy);
  util::ManualClock clock;
  auto cache = std::make_shared<ResponseCache>(ResponseCache::Config{}, clock);
  CachingServiceClient::Options options;
  options.policy = plain_policy();
  CachingServiceClient client(retrying, test_description(), kEndpoint, cache,
                              std::move(options));

  auto call = [&] {
    return client.invoke("echoString", {{"s", Object::make(std::string("x"))}});
  };
  // Trip the breaker: 3 straight failures.
  for (int i = 0; i < 3; ++i) EXPECT_THROW(call(), TransportError);
  const int wire_calls_at_open = gate->calls();

  // The herd: every caller fails fast — via its own BreakerOpenError or
  // via the one broadcast from whoever led a flight.  Nobody touches the
  // wire.  (BreakerOpenError is-a TransportError, so one catch covers
  // both shapes.)
  std::vector<std::thread> threads;
  std::atomic<int> failed{0};
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([&] {
      try {
        call();
      } catch (const TransportError&) {
        ++failed;
      }
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(failed.load(), kThreads);
  EXPECT_EQ(gate->calls(), wire_calls_at_open);
}

// --- Direct flight API ---------------------------------------------------

class UnitValue final : public CachedValue {
 public:
  reflect::Object retrieve() const override { return Object::make(7); }
  Representation representation() const override {
    return Representation::Reference;
  }
  std::size_t memory_size() const override { return 16; }
};

TEST(FlightApiTest, LeaderCompletesFollowerReceivesValue) {
  util::ManualClock clock;
  ResponseCache cache(ResponseCache::Config{}, clock);
  CacheKey key("k");
  ResponseCache::FlightHandle leader = cache.join_flight(key.ref());
  ASSERT_TRUE(static_cast<bool>(leader));
  EXPECT_TRUE(leader.leader);
  ResponseCache::FlightHandle follower = cache.join_flight(key.ref());
  ASSERT_TRUE(static_cast<bool>(follower));
  EXPECT_FALSE(follower.leader);
  EXPECT_EQ(leader.flight, follower.flight);

  std::thread waiter([&] {
    ResponseCache::FlightResult r = cache.wait_flight(follower, seconds(5));
    EXPECT_EQ(r.outcome, ResponseCache::FlightWait::Value);
    EXPECT_NE(r.value, nullptr);
  });
  cache.complete_flight(leader, std::make_shared<UnitValue>());
  waiter.join();
  // The flight is retired: the next joiner leads a NEW flight.
  ResponseCache::FlightHandle next = cache.join_flight(key.ref());
  EXPECT_TRUE(next.leader);
  cache.complete_flight(next, nullptr);
  EXPECT_EQ(cache.stats().coalesced_waits, 1u);
}

TEST(FlightApiTest, FailureDeliversTheExceptionAndCountsOnce) {
  util::ManualClock clock;
  ResponseCache cache(ResponseCache::Config{}, clock);
  CacheKey key("k");
  ResponseCache::FlightHandle leader = cache.join_flight(key.ref());
  ResponseCache::FlightHandle follower = cache.join_flight(key.ref());
  cache.fail_flight(leader, std::make_exception_ptr(TransportError("boom")));
  ResponseCache::FlightResult r = cache.wait_flight(follower, seconds(1));
  EXPECT_EQ(r.outcome, ResponseCache::FlightWait::Error);
  ASSERT_NE(r.error, nullptr);
  EXPECT_THROW(std::rethrow_exception(r.error), TransportError);
  EXPECT_EQ(cache.stats().coalesced_failures, 1u);
}

TEST(FlightApiTest, CompletingTwiceAndFollowerMisuseAreNoOps) {
  util::ManualClock clock;
  ResponseCache cache(ResponseCache::Config{}, clock);
  CacheKey key("k");
  ResponseCache::FlightHandle leader = cache.join_flight(key.ref());
  ResponseCache::FlightHandle follower = cache.join_flight(key.ref());
  cache.complete_flight(follower, nullptr);  // follower cannot complete
  cache.complete_flight(leader, nullptr);
  cache.fail_flight(leader, std::make_exception_ptr(Error("late")));  // no-op
  ResponseCache::FlightResult r = cache.wait_flight(follower, seconds(1));
  EXPECT_EQ(r.outcome, ResponseCache::FlightWait::NoValue);
  EXPECT_EQ(r.error, nullptr);
  EXPECT_EQ(cache.stats().coalesced_failures, 0u);
}

TEST(FlightApiTest, WaitOnNullOrLeaderHandleReturnsShutdownImmediately) {
  util::ManualClock clock;
  ResponseCache cache(ResponseCache::Config{}, clock);
  ResponseCache::FlightHandle null_handle;
  EXPECT_EQ(cache.wait_flight(null_handle, seconds(5)).outcome,
            ResponseCache::FlightWait::Shutdown);
  CacheKey key("k");
  ResponseCache::FlightHandle leader = cache.join_flight(key.ref());
  EXPECT_EQ(cache.wait_flight(leader, seconds(5)).outcome,
            ResponseCache::FlightWait::Shutdown);
  EXPECT_EQ(cache.stats().coalesced_waits, 0u);  // misuse never counts
  cache.complete_flight(leader, nullptr);
}

TEST(FlightApiTest, ShutdownMakesJoinReturnNullHandles) {
  util::ManualClock clock;
  ResponseCache cache(ResponseCache::Config{}, clock);
  cache.shutdown_flights();
  EXPECT_FALSE(static_cast<bool>(cache.join_flight(CacheKey("k").ref())));
  cache.shutdown_flights();  // idempotent
}

TEST(FlightApiTest, SeparateKeysFlySeparately) {
  util::ManualClock clock;
  ResponseCache cache(ResponseCache::Config{}, clock);
  ResponseCache::FlightHandle a = cache.join_flight(CacheKey("a").ref());
  ResponseCache::FlightHandle b = cache.join_flight(CacheKey("b").ref());
  EXPECT_TRUE(a.leader);
  EXPECT_TRUE(b.leader);
  EXPECT_NE(a.flight, b.flight);
  cache.complete_flight(a, nullptr);
  cache.complete_flight(b, nullptr);
}

}  // namespace
}  // namespace wsc::cache

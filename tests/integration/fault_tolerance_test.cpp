// End-to-end fault tolerance over the full stack (ISSUE 3 acceptance):
//   GoogleClient -> CachingServiceClient -> RetryingTransport ->
//   FaultInjectingTransport -> InProcessTransport -> GoogleBackend
//
// (a) a deterministic fault schedule of transient faults is absorbed by
//     the retry layer with zero application-visible errors,
// (b) with the origin hard-down and a warm-but-expired cache, operations
//     with a stale-if-error grace keep answering correctly (stale serves
//     counted), across every representation applicable to the result type,
// (c) once the breaker opens, failing fast is >= 10x cheaper in wall-clock
//     time than the configured per-call deadline.
//
// Every fault schedule is seeded; failures print the seed via SCOPED_TRACE
// so the exact run reproduces.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "core/client.hpp"
#include "core/representation.hpp"
#include "services/google/service.hpp"
#include "services/google/stub.hpp"
#include "transport/fault_injection.hpp"
#include "transport/inproc_transport.hpp"
#include "transport/retry.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"

namespace wsc {
namespace {

using cache::CachePolicy;
using cache::Representation;
using cache::StatsSnapshot;
using services::google::default_google_policy;
using services::google::GoogleBackend;
using services::google::GoogleClient;
using services::google::make_google_service;
using std::chrono::milliseconds;
using transport::FaultInjectingTransport;
using transport::FaultSpec;
using transport::RetryingTransport;
using transport::RetryPolicy;

constexpr const char* kEndpoint = "inproc://google/api";

/// The whole client pipeline over an in-process origin, in virtual time:
/// backoff sleeps advance the shared ManualClock, so deadlines and TTLs
/// interact exactly as they would on a wall clock, instantly.
struct Stack {
  Stack(FaultSpec spec, RetryPolicy retry_policy, CachePolicy policy) {
    backend = std::make_shared<GoogleBackend>();
    auto origin = std::make_shared<transport::InProcessTransport>();
    origin->bind(kEndpoint, make_google_service(backend));
    faults = std::make_shared<FaultInjectingTransport>(origin, spec);

    RetryingTransport::Deps deps;
    deps.clock = &clock;
    deps.jitter_seed = spec.seed;
    deps.sleeper = [this](milliseconds d) { clock.advance(d); };
    retrying = std::make_shared<RetryingTransport>(faults, retry_policy, deps);

    response_cache = std::make_shared<cache::ResponseCache>(
        cache::ResponseCache::Config{}, clock);
    cache::bind_transport_stats(*retrying, response_cache);

    cache::CachingServiceClient::Options options;
    options.policy = std::move(policy);
    client = std::make_unique<GoogleClient>(retrying, kEndpoint,
                                            response_cache, options);
  }

  StatsSnapshot stats() const { return response_cache->stats(); }

  util::ManualClock clock;
  std::shared_ptr<GoogleBackend> backend;
  std::shared_ptr<FaultInjectingTransport> faults;
  std::shared_ptr<RetryingTransport> retrying;
  std::shared_ptr<cache::ResponseCache> response_cache;
  std::unique_ptr<GoogleClient> client;
};

RetryPolicy absorbing_retry_policy() {
  RetryPolicy policy;
  policy.max_attempts = 8;
  policy.base_backoff = milliseconds(5);
  policy.max_backoff = milliseconds(100);
  policy.budget_initial = 1000.0;
  policy.budget_earn = 1.0;
  policy.budget_cap = 1000.0;
  policy.breaker_threshold = 1000;  // keep the breaker out of test (a)
  return policy;
}

// (a) Transient faults — refusals, stalls, truncations — on a third of all
// calls, absorbed invisibly: every response correct, zero errors surface.
TEST(FaultToleranceTest, TransientFaultScheduleAbsorbedInvisibly) {
  for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
    SCOPED_TRACE("fault seed = " + std::to_string(seed));
    FaultSpec spec;
    spec.seed = seed;
    spec.p_connect_refused = 0.12;
    spec.p_read_stall = 0.08;
    spec.p_truncate_body = 0.10;
    Stack stack(spec, absorbing_retry_policy(),
                default_google_policy(Representation::Auto));

    int errors = 0;
    for (int i = 0; i < 200; ++i) {
      std::string phrase = "phrase-" + std::to_string(i);
      try {
        EXPECT_EQ(stack.client->doSpellingSuggestion(phrase),
                  stack.backend->spelling_suggestion(phrase));
      } catch (const Error& e) {
        ADD_FAILURE() << "call " << i << " surfaced: " << e.what();
        ++errors;
      }
    }
    EXPECT_EQ(errors, 0);
    StatsSnapshot stats = stack.stats();
    EXPECT_GT(stats.transport_retries, 0u);  // faults did fire underneath
    FaultInjectingTransport::Counters faults = stack.faults->counters();
    EXPECT_GT(faults.refused + faults.stalled + faults.truncated, 0u);
  }
}

// (b) Hard outage + warm-but-expired cache: operations with a grace keep
// serving the last good value, for every representation the result type
// admits.
TEST(FaultToleranceTest, OutageServesStaleAcrossRepresentations) {
  const auto& result_type = reflect::type_of<std::string>();
  int covered = 0;
  for (Representation rep : cache::kConcreteRepresentations) {
    if (!cache::applicable(rep, result_type, /*read_only=*/false)) continue;
    ++covered;
    SCOPED_TRACE(std::string("representation = ") +
                 std::string(cache::representation_name(rep)));

    CachePolicy policy = default_google_policy(rep, milliseconds(100));
    policy.stale_if_error("doSpellingSuggestion", std::chrono::minutes(5));
    Stack stack(FaultSpec{}, absorbing_retry_policy(), std::move(policy));

    std::string warm = stack.client->doSpellingSuggestion("helo wrold");
    stack.clock.advance(milliseconds(200));  // past TTL, inside grace
    stack.faults->set_down(true);

    EXPECT_EQ(stack.client->doSpellingSuggestion("helo wrold"), warm);
    EXPECT_EQ(stack.client->doSpellingSuggestion("helo wrold"), warm);
    StatsSnapshot stats = stack.stats();
    EXPECT_EQ(stats.stale_serves, 2u);
    EXPECT_GT(stats.transport_retries, 0u);  // it did try the wire first
  }
  // A string result admits at least the four universal representations.
  EXPECT_GE(covered, 4);
}

// Without a grace, the same outage surfaces the transport failure —
// degraded mode is opt-in per operation.
TEST(FaultToleranceTest, OutageWithoutGraceSurfacesTheFailure) {
  Stack stack(FaultSpec{}, absorbing_retry_policy(),
              default_google_policy(Representation::Auto, milliseconds(100)));
  stack.client->doSpellingSuggestion("helo wrold");
  stack.clock.advance(milliseconds(200));
  stack.faults->set_down(true);
  EXPECT_THROW(stack.client->doSpellingSuggestion("helo wrold"),
               TransportError);
  EXPECT_EQ(stack.stats().stale_serves, 0u);
}

// (c) Breaker open => failing fast costs real wall-clock microseconds, at
// least 10x below the per-call deadline budget.
TEST(FaultToleranceTest, BreakerFastFailBeatsDeadlineTenfold) {
  const milliseconds deadline(500);
  RetryPolicy retry_policy;
  retry_policy.max_attempts = 2;
  retry_policy.base_backoff = milliseconds(1);
  retry_policy.max_backoff = milliseconds(2);
  retry_policy.deadline = deadline;
  retry_policy.breaker_threshold = 2;
  retry_policy.breaker_cooldown = std::chrono::seconds(60);
  CachePolicy policy =
      default_google_policy(Representation::Auto, milliseconds(100));
  policy.stale_if_error("doSpellingSuggestion", std::chrono::minutes(5));
  Stack stack(FaultSpec{}, retry_policy, std::move(policy));

  std::string warm = stack.client->doSpellingSuggestion("helo wrold");
  stack.clock.advance(milliseconds(200));  // past TTL, inside grace
  stack.faults->set_down(true);

  // Trip the breaker (threshold=2 consecutive failures, each retried once).
  stack.client->doSpellingSuggestion("helo wrold");  // stale-served
  EXPECT_EQ(stack.retrying->breaker_state(util::Uri::parse(kEndpoint)),
            RetryingTransport::BreakerState::Open);
  std::uint64_t wire_calls = stack.faults->counters().calls;

  // While open: still answering (stale), but without touching the wire —
  // and fast.  Wall-clock bound measured with the real clock; the virtual
  // clock is frozen, so only breaker bookkeeping runs.
  auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(stack.client->doSpellingSuggestion("helo wrold"), warm);
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(stack.faults->counters().calls, wire_calls);
  EXPECT_LT(elapsed, deadline / 10);

  StatsSnapshot stats = stack.stats();
  EXPECT_GT(stats.breaker_opens, 0u);
  EXPECT_GT(stats.stale_serves, 0u);
}

// Breaker recovery: after the cooldown a single probe closes the breaker
// and traffic returns to the (recovered) origin.
TEST(FaultToleranceTest, BreakerRecoversThroughHalfOpenProbe) {
  RetryPolicy retry_policy;
  retry_policy.max_attempts = 1;
  retry_policy.breaker_threshold = 2;
  retry_policy.breaker_cooldown = std::chrono::seconds(2);
  Stack stack(FaultSpec{}, retry_policy,
              default_google_policy(Representation::Auto, milliseconds(100)));

  stack.faults->set_down(true);
  for (int i = 0; i < 2; ++i) {
    EXPECT_THROW(stack.client->doSpellingSuggestion("helo wrold"),
                 TransportError);
  }
  const util::Uri endpoint = util::Uri::parse(kEndpoint);
  EXPECT_EQ(stack.retrying->breaker_state(endpoint),
            RetryingTransport::BreakerState::Open);
  EXPECT_THROW(stack.client->doSpellingSuggestion("helo wrold"),
               BreakerOpenError);

  stack.clock.advance(std::chrono::seconds(3));  // cooldown elapses
  stack.faults->set_down(false);                 // origin recovered
  EXPECT_EQ(stack.client->doSpellingSuggestion("helo wrold"),
            stack.backend->spelling_suggestion("helo wrold"));
  EXPECT_EQ(stack.retrying->breaker_state(endpoint),
            RetryingTransport::BreakerState::Closed);
  StatsSnapshot stats = stack.stats();
  EXPECT_GT(stats.breaker_opens, 0u);
  EXPECT_GT(stats.breaker_probes, 0u);
}

// Per-call deadline: a persistently failing origin cannot hold a caller
// past the deadline budget; the hit is visible in the shared stats.
TEST(FaultToleranceTest, DeadlineBoundsACallAgainstADeadOrigin) {
  RetryPolicy retry_policy = absorbing_retry_policy();
  retry_policy.max_attempts = 1000;
  retry_policy.base_backoff = milliseconds(40);
  retry_policy.max_backoff = milliseconds(40);
  retry_policy.deadline = milliseconds(200);
  Stack stack(FaultSpec{}, retry_policy,
              default_google_policy(Representation::Auto));

  stack.faults->set_down(true);
  util::TimePoint before = stack.clock.now();
  EXPECT_THROW(stack.client->doSpellingSuggestion("helo wrold"),
               TimeoutError);
  // Virtual time spent is the deadline, give or take one backoff slice.
  EXPECT_LE(stack.clock.now() - before, milliseconds(240));
  EXPECT_EQ(stack.stats().deadline_hits, 1u);
}

}  // namespace
}  // namespace wsc

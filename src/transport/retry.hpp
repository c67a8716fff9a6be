// Retrying Transport decorator: bounded retries with exponential backoff
// and decorrelated jitter, a per-call deadline, a token-bucket retry
// budget, and a per-endpoint circuit breaker.
//
// Layering (bottom-up): HttpTransport (socket deadlines) or
// InProcessTransport, optionally a FaultInjectingTransport, then this
// decorator, then the caching client.  The cache above turns "the wire
// call failed after all this" into a stale-if-error serve when the policy
// allows; this layer's job is only to make that failure *prompt* and to
// absorb transient faults invisibly.
//
// Determinism: the clock, the jitter RNG, and the sleep primitive are all
// injectable, so tests drive the whole schedule in virtual time.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "obs/field_table.hpp"
#include "transport/transport.hpp"
#include "util/clock.hpp"
#include "util/random.hpp"

namespace wsc::transport {

struct RetryPolicy {
  /// Total tries per post() (1 = no retries).
  int max_attempts = 3;
  /// Backoff between attempts: decorrelated jitter in
  /// [base_backoff, 3 * previous], capped at max_backoff.
  std::chrono::milliseconds base_backoff{25};
  std::chrono::milliseconds max_backoff{1000};
  /// Wall-clock budget for one post() across all attempts and backoffs;
  /// zero = unbounded.  Exceeding it throws a non-retryable TimeoutError.
  std::chrono::milliseconds deadline{0};
  /// Token-bucket retry budget shared across all endpoints: each delivered
  /// response earns `budget_earn` tokens (capped at `budget_cap`), each
  /// retry spends 1.  Keeps a persistent outage from multiplying load by
  /// max_attempts (retry-storm guard).
  double budget_initial = 10.0;
  double budget_earn = 0.1;
  double budget_cap = 10.0;
  /// Circuit breaker, tracked per endpoint (host:port): this many
  /// *consecutive* failures open it; while open every call fast-fails with
  /// BreakerOpenError; after `breaker_cooldown` one half-open probe is let
  /// through — success closes the breaker, failure re-opens it.
  int breaker_threshold = 5;
  std::chrono::milliseconds breaker_cooldown{2000};
};

struct RetryCounters {
  std::uint64_t attempts = 0;
  std::uint64_t retries = 0;
  std::uint64_t successes = 0;
  std::uint64_t failures = 0;
  std::uint64_t deadline_hits = 0;
  std::uint64_t budget_exhausted = 0;
  std::uint64_t breaker_opens = 0;
  std::uint64_t breaker_fast_fails = 0;
  std::uint64_t breaker_probes = 0;
  std::uint64_t breaker_closes = 0;
};

/// Every RetryCounters field.  The retry and breaker families share no
/// prefix, so each row carries its full family stem.
inline constexpr auto kRetryFields = std::to_array<obs::Field<RetryCounters>>({
    {"wsc_retry_attempts", "Wire calls actually made", obs::kCounter,
     &RetryCounters::attempts},
    {"wsc_retry_retries", "Attempts beyond the first", obs::kCounter,
     &RetryCounters::retries},
    {"wsc_retry_successes", "Delivered post() calls", obs::kCounter,
     &RetryCounters::successes},
    {"wsc_retry_failures", "Failed post() calls (all attempts spent)",
     obs::kCounter, &RetryCounters::failures},
    {"wsc_retry_deadline_hits", "Per-call deadlines exceeded", obs::kCounter,
     &RetryCounters::deadline_hits},
    {"wsc_retry_budget_exhausted",
     "Retries suppressed by the token-bucket budget", obs::kCounter,
     &RetryCounters::budget_exhausted},
    {"wsc_breaker_opens", "Circuit breaker open events", obs::kCounter,
     &RetryCounters::breaker_opens},
    {"wsc_breaker_fast_fails", "Calls rejected while the breaker was open",
     obs::kCounter, &RetryCounters::breaker_fast_fails},
    {"wsc_breaker_probes", "Half-open recovery trial calls", obs::kCounter,
     &RetryCounters::breaker_probes},
    {"wsc_breaker_closes", "Breaker recoveries (probe succeeded)",
     obs::kCounter, &RetryCounters::breaker_closes},
});

class RetryingTransport final : public Transport {
 public:
  enum class BreakerState { Closed, Open, HalfOpen };

  /// Injectable dependencies; the defaults are the real clock, a seeded
  /// jitter RNG, and std::this_thread::sleep_for.
  struct Deps {
    const util::Clock* clock = nullptr;  // null = util::steady_clock()
    std::uint64_t jitter_seed = 0x5eed;
    std::function<void(std::chrono::milliseconds)> sleeper;  // null = real
  };

  /// Event hooks, fired outside the internal lock, so a caller can fold
  /// retry/breaker/deadline activity into its own stats (the caching
  /// client bridges these into CacheStats; see bind_transport_stats).
  struct Listener {
    std::function<void()> on_retry;
    std::function<void()> on_breaker_open;
    std::function<void()> on_breaker_probe;
    std::function<void()> on_deadline_hit;
  };

  RetryingTransport(std::shared_ptr<Transport> inner, RetryPolicy policy);
  RetryingTransport(std::shared_ptr<Transport> inner, RetryPolicy policy,
                    Deps deps);

  WireResponse post(const util::Uri& endpoint,
                    const WireRequest& request) override;
  using Transport::post;

  void set_listener(Listener listener);
  RetryCounters counters() const;
  BreakerState breaker_state(const util::Uri& endpoint) const;
  double budget_tokens() const;

 private:
  struct Breaker {
    BreakerState state = BreakerState::Closed;
    int consecutive_failures = 0;
    util::TimePoint open_until{};
    bool probe_in_flight = false;
  };

  /// Gate one attempt through the breaker; throws BreakerOpenError on
  /// fast-fail.  Returns true when this attempt is a half-open probe.
  bool admit(const std::string& key, const util::Uri& endpoint);
  void on_success(const std::string& key, bool was_probe);
  void on_failure(const std::string& key, bool was_probe);
  std::chrono::milliseconds next_backoff(std::chrono::milliseconds previous);

  static std::string breaker_key(const util::Uri& endpoint);
  void sleep_for(std::chrono::milliseconds d);
  util::TimePoint now() const { return clock_->now(); }

  std::shared_ptr<Transport> inner_;
  RetryPolicy policy_;
  const util::Clock* clock_;
  std::function<void(std::chrono::milliseconds)> sleeper_;
  Listener listener_;

  mutable std::mutex mu_;
  util::Rng jitter_;
  double budget_;
  std::map<std::string, Breaker> breakers_;
  RetryCounters counters_;
};

/// Export every kRetryFields row from ONE counters() snapshot per scrape,
/// plus the remaining budget tokens gauge.  The transport must outlive
/// the registry's exports.
void register_retry_metrics(obs::MetricsRegistry& registry,
                            const RetryingTransport& transport);

}  // namespace wsc::transport

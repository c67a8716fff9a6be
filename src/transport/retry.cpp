#include "transport/retry.hpp"

#include <algorithm>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace wsc::transport {

RetryingTransport::RetryingTransport(std::shared_ptr<Transport> inner,
                                     RetryPolicy policy)
    : RetryingTransport(std::move(inner), policy, Deps{}) {}

RetryingTransport::RetryingTransport(std::shared_ptr<Transport> inner,
                                     RetryPolicy policy, Deps deps)
    : inner_(std::move(inner)),
      policy_(policy),
      clock_(deps.clock ? deps.clock : &util::steady_clock()),
      sleeper_(std::move(deps.sleeper)),
      jitter_(deps.jitter_seed),
      budget_(policy.budget_initial) {
  if (!inner_) throw Error("RetryingTransport: null inner transport");
  policy_.max_attempts = std::max(1, policy_.max_attempts);
}

void RetryingTransport::set_listener(Listener listener) {
  std::lock_guard lock(mu_);
  listener_ = std::move(listener);
}

RetryCounters RetryingTransport::counters() const {
  std::lock_guard lock(mu_);
  return counters_;
}

RetryingTransport::BreakerState RetryingTransport::breaker_state(
    const util::Uri& endpoint) const {
  std::lock_guard lock(mu_);
  auto it = breakers_.find(breaker_key(endpoint));
  return it == breakers_.end() ? BreakerState::Closed : it->second.state;
}

double RetryingTransport::budget_tokens() const {
  std::lock_guard lock(mu_);
  return budget_;
}

std::string RetryingTransport::breaker_key(const util::Uri& endpoint) {
  return endpoint.host + ":" + std::to_string(endpoint.effective_port());
}

void RetryingTransport::sleep_for(std::chrono::milliseconds d) {
  if (d.count() <= 0) return;
  // Attribute the sleep to the in-flight call's Backoff stage (no-op when
  // no trace is active); the client subtracts it from its Wire stage so
  // the two never double-count.
  obs::StageTimer timer(obs::Stage::Backoff);
  if (sleeper_) {
    sleeper_(d);
  } else {
    std::this_thread::sleep_for(d);
  }
}

std::chrono::milliseconds RetryingTransport::next_backoff(
    std::chrono::milliseconds previous) {
  // Decorrelated jitter (AWS architecture blog): uniform in
  // [base, 3 * previous], capped.  Spreads a thundering herd of clients
  // that all saw the same outage at the same instant.
  auto lo = policy_.base_backoff.count();
  auto hi = std::max<std::chrono::milliseconds::rep>(lo, 3 * previous.count());
  auto pick = lo + static_cast<std::chrono::milliseconds::rep>(
                       jitter_.next_below(static_cast<std::uint64_t>(hi - lo) + 1));
  return std::min(std::chrono::milliseconds(pick), policy_.max_backoff);
}

bool RetryingTransport::admit(const std::string& key,
                              const util::Uri& endpoint) {
  std::function<void()> notify;
  bool probe = false;
  {
    std::lock_guard lock(mu_);
    Breaker& breaker = breakers_[key];
    if (breaker.state == BreakerState::Open) {
      if (now() < breaker.open_until) {
        ++counters_.breaker_fast_fails;
        ++counters_.failures;
        throw BreakerOpenError("circuit breaker open for " + key +
                               " (fast fail; cooling down)");
      }
      breaker.state = BreakerState::HalfOpen;
      breaker.probe_in_flight = false;
    }
    if (breaker.state == BreakerState::HalfOpen) {
      if (breaker.probe_in_flight) {
        ++counters_.breaker_fast_fails;
        ++counters_.failures;
        throw BreakerOpenError("circuit breaker half-open for " + key +
                               " (probe already in flight)");
      }
      breaker.probe_in_flight = true;
      probe = true;
      ++counters_.breaker_probes;
      notify = listener_.on_breaker_probe;
    }
  }
  (void)endpoint;
  if (notify) notify();
  return probe;
}

void RetryingTransport::on_success(const std::string& key, bool was_probe) {
  std::lock_guard lock(mu_);
  Breaker& breaker = breakers_[key];
  breaker.consecutive_failures = 0;
  if (was_probe || breaker.state != BreakerState::Closed) {
    breaker.state = BreakerState::Closed;
    breaker.probe_in_flight = false;
    ++counters_.breaker_closes;
  }
  budget_ = std::min(policy_.budget_cap, budget_ + policy_.budget_earn);
  ++counters_.successes;
}

void RetryingTransport::on_failure(const std::string& key, bool was_probe) {
  std::function<void()> notify;
  {
    std::lock_guard lock(mu_);
    Breaker& breaker = breakers_[key];
    if (was_probe || breaker.state == BreakerState::HalfOpen) {
      // The recovery probe failed: re-open for a fresh cooldown.
      breaker.state = BreakerState::Open;
      breaker.open_until = now() + policy_.breaker_cooldown;
      breaker.probe_in_flight = false;
      ++counters_.breaker_opens;
      notify = listener_.on_breaker_open;
    } else {
      ++breaker.consecutive_failures;
      if (breaker.state == BreakerState::Closed &&
          breaker.consecutive_failures >= policy_.breaker_threshold) {
        breaker.state = BreakerState::Open;
        breaker.open_until = now() + policy_.breaker_cooldown;
        ++counters_.breaker_opens;
        notify = listener_.on_breaker_open;
      }
    }
  }
  if (notify) notify();
}

WireResponse RetryingTransport::post(const util::Uri& endpoint,
                                     const WireRequest& request) {
  const std::string key = breaker_key(endpoint);
  const bool bounded = policy_.deadline.count() > 0;
  const util::TimePoint deadline_at =
      bounded ? now() + policy_.deadline : util::TimePoint{};
  std::chrono::milliseconds previous_backoff = policy_.base_backoff;

  // Either rethrows the active exception (or a deadline TimeoutError), or
  // performs the backoff sleep and lets the loop try again.
  auto retry_or_rethrow = [&](int attempt, bool retryable) {
    std::chrono::milliseconds backoff{0};
    std::function<void()> notify;
    bool deadline_hit = false;
    {
      std::lock_guard lock(mu_);
      if (!retryable || attempt >= policy_.max_attempts) {
        ++counters_.failures;
        throw;
      }
      if (bounded && now() >= deadline_at) {
        ++counters_.failures;
        ++counters_.deadline_hits;
        notify = listener_.on_deadline_hit;
        deadline_hit = true;
      } else if (budget_ < 1.0) {
        ++counters_.budget_exhausted;
        ++counters_.failures;
        throw;  // retry budget spent: do not amplify the outage
      } else {
        budget_ -= 1.0;
        backoff = next_backoff(previous_backoff);
        if (bounded) {
          auto remaining =
              std::chrono::duration_cast<std::chrono::milliseconds>(
                  deadline_at - now());
          backoff = std::min(backoff, remaining);
        }
        ++counters_.retries;
        notify = listener_.on_retry;
      }
    }
    if (notify) notify();
    if (deadline_hit)
      throw TimeoutError("per-call deadline of " +
                             std::to_string(policy_.deadline.count()) +
                             "ms exceeded after " + std::to_string(attempt) +
                             " attempt(s) to " + key,
                         /*retryable=*/false);
    sleep_for(backoff);
    previous_backoff = std::max(backoff, policy_.base_backoff);
  };

  for (int attempt = 1;; ++attempt) {
    bool probe = admit(key, endpoint);  // throws BreakerOpenError when open
    {
      std::lock_guard lock(mu_);
      ++counters_.attempts;
    }
    try {
      WireResponse response = inner_->post(endpoint, request);
      on_success(key, probe);
      return response;
    } catch (const TransportError& error) {
      on_failure(key, probe);
      retry_or_rethrow(attempt, error.retryable());
    } catch (const HttpError& error) {
      // Gateway-style statuses are origin overload/unavailability: count
      // them against the breaker and retry.  Anything else is a definitive
      // answer from a live endpoint — not this layer's business.
      int s = error.status();
      bool transient = s == 429 || s == 502 || s == 503 || s == 504;
      if (!transient) {
        std::lock_guard lock(mu_);
        ++counters_.failures;
        throw;
      }
      on_failure(key, probe);
      retry_or_rethrow(attempt, true);
    }
  }
}

void register_retry_metrics(obs::MetricsRegistry& registry,
                            const RetryingTransport& transport) {
  obs::register_fields(registry, "", kRetryFields, {},
                       [&transport] { return transport.counters(); });
  registry.gauge_fn("wsc_retry_budget_tokens", "Remaining retry budget tokens",
                    {}, [&transport] { return transport.budget_tokens(); });
}

}  // namespace wsc::transport

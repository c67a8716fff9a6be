#include "core/stats.hpp"

#include <cstdio>

namespace wsc::cache {

std::string StatsSnapshot::to_string() const {
  char buf[832];
  std::snprintf(buf, sizeof(buf),
                "hits=%llu misses=%llu (ratio %.1f%%) stores=%llu "
                "rejected_stores=%llu "
                "expired=%llu evicted=%llu clock_sweeps=%llu "
                "second_chances=%llu invalidations=%llu revalidated=%llu "
                "uncacheable=%llu "
                "stale_serves=%llu retries=%llu breaker_opens=%llu "
                "breaker_probes=%llu deadline_hits=%llu "
                "coalesced_waits=%llu coalesced_failures=%llu "
                "swr_served=%llu refresh_ahead=%llu "
                "entries=%llu bytes=%llu",
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(misses), hit_ratio() * 100.0,
                static_cast<unsigned long long>(stores),
                static_cast<unsigned long long>(rejected_stores),
                static_cast<unsigned long long>(expirations),
                static_cast<unsigned long long>(evictions),
                static_cast<unsigned long long>(clock_sweeps),
                static_cast<unsigned long long>(second_chances),
                static_cast<unsigned long long>(invalidations),
                static_cast<unsigned long long>(revalidations),
                static_cast<unsigned long long>(uncacheable),
                static_cast<unsigned long long>(stale_serves),
                static_cast<unsigned long long>(transport_retries),
                static_cast<unsigned long long>(breaker_opens),
                static_cast<unsigned long long>(breaker_probes),
                static_cast<unsigned long long>(deadline_hits),
                static_cast<unsigned long long>(coalesced_waits),
                static_cast<unsigned long long>(coalesced_failures),
                static_cast<unsigned long long>(stale_while_revalidate_served),
                static_cast<unsigned long long>(refresh_ahead_triggered),
                static_cast<unsigned long long>(entries),
                static_cast<unsigned long long>(bytes));
  return buf;
}

std::string stats_json(const StatsSnapshot& s) {
  std::string out = "{";
  bool first = true;
  auto field = [&](const char* name, std::uint64_t value) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %llu", first ? "" : ", ", name,
                  static_cast<unsigned long long>(value));
    out += buf;
    first = false;
  };
  field("hits", s.hits);
  field("misses", s.misses);
  field("stores", s.stores);
  field("rejected_stores", s.rejected_stores);
  field("expirations", s.expirations);
  field("evictions", s.evictions);
  field("clock_sweeps", s.clock_sweeps);
  field("second_chances", s.second_chances);
  field("invalidations", s.invalidations);
  field("revalidations", s.revalidations);
  field("uncacheable", s.uncacheable);
  field("stale_serves", s.stale_serves);
  field("transport_retries", s.transport_retries);
  field("breaker_opens", s.breaker_opens);
  field("breaker_probes", s.breaker_probes);
  field("deadline_hits", s.deadline_hits);
  field("coalesced_waits", s.coalesced_waits);
  field("coalesced_failures", s.coalesced_failures);
  field("stale_while_revalidate_served", s.stale_while_revalidate_served);
  field("refresh_ahead_triggered", s.refresh_ahead_triggered);
  field("entries", s.entries);
  field("bytes", s.bytes);
  char ratio[48];
  std::snprintf(ratio, sizeof(ratio), ", \"hit_ratio\": %.6f", s.hit_ratio());
  out += ratio;
  out += "}";
  return out;
}

StatsSnapshot CacheStats::snapshot(std::uint64_t entries,
                                   std::uint64_t bytes) const {
  StatsSnapshot s;
  s.hits = hits_.v.load(std::memory_order_relaxed);
  s.misses = misses_.v.load(std::memory_order_relaxed);
  s.stores = stores_.v.load(std::memory_order_relaxed);
  s.rejected_stores = rejected_stores_.load(std::memory_order_relaxed);
  s.expirations = expirations_.v.load(std::memory_order_relaxed);
  s.evictions = evictions_.v.load(std::memory_order_relaxed);
  s.clock_sweeps = clock_sweeps_.load(std::memory_order_relaxed);
  s.second_chances = second_chances_.load(std::memory_order_relaxed);
  s.invalidations = invalidations_.load(std::memory_order_relaxed);
  s.revalidations = revalidations_.load(std::memory_order_relaxed);
  s.uncacheable = uncacheable_.load(std::memory_order_relaxed);
  s.stale_serves = stale_serves_.load(std::memory_order_relaxed);
  s.transport_retries = transport_retries_.load(std::memory_order_relaxed);
  s.breaker_opens = breaker_opens_.load(std::memory_order_relaxed);
  s.breaker_probes = breaker_probes_.load(std::memory_order_relaxed);
  s.deadline_hits = deadline_hits_.load(std::memory_order_relaxed);
  s.coalesced_waits = coalesced_waits_.load(std::memory_order_relaxed);
  s.coalesced_failures = coalesced_failures_.load(std::memory_order_relaxed);
  s.stale_while_revalidate_served = swr_served_.load(std::memory_order_relaxed);
  s.refresh_ahead_triggered = refresh_ahead_.load(std::memory_order_relaxed);
  s.entries = entries;
  s.bytes = bytes;
  return s;
}

}  // namespace wsc::cache

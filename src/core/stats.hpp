// Cache instrumentation counters (thread-safe), declared once in
// kCacheFields: the live counters, the snapshot, the /stats JSON, the
// to_string() text and the wsc_cache_* Prometheus families are all
// generated from that table.
//
// Layout matters here: these counters are bumped from the cache's
// contention-free hit path, where a line shared between cores would undo
// the shared_mutex work — every hit on every core would still ping-pong
// that line.  The counters are therefore kept in util::kStripes stripes,
// each on cache lines of its own: a bump is one relaxed fetch_add on the
// calling thread's stripe at a row chosen at compile time, and a snapshot
// sums the stripes.  All increments and snapshot loads use relaxed
// ordering consistently — they are monotonic tallies, not synchronization
// points.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "obs/field_table.hpp"
#include "util/stripe.hpp"

namespace wsc::cache {

/// Point-in-time snapshot, cheap to copy into reports.
struct StatsSnapshot {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
  std::uint64_t rejected_stores = 0;
  std::uint64_t expirations = 0;
  std::uint64_t evictions = 0;
  std::uint64_t clock_sweeps = 0;
  std::uint64_t second_chances = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t revalidations = 0;
  std::uint64_t uncacheable = 0;
  std::uint64_t stale_serves = 0;
  std::uint64_t transport_retries = 0;
  std::uint64_t breaker_opens = 0;
  std::uint64_t breaker_probes = 0;
  std::uint64_t deadline_hits = 0;
  std::uint64_t coalesced_waits = 0;
  std::uint64_t coalesced_failures = 0;
  std::uint64_t stale_while_revalidate_served = 0;
  std::uint64_t refresh_ahead_triggered = 0;
  std::uint64_t entries = 0;
  std::uint64_t bytes = 0;

  double hit_ratio() const {
    std::uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups);
  }

  /// Every field as `name=value`, then the hit ratio.
  std::string to_string() const;
};

/// Every exported cache field, in /stats order: the counters CacheStats
/// keeps live, then the two gauges a snapshot is handed.
inline constexpr auto kCacheFields = std::to_array<obs::Field<StatsSnapshot>>({
    {"hits", "Fresh entries served", obs::kCounter, &StatsSnapshot::hits},
    {"misses", "Lookups that missed", obs::kCounter, &StatsSnapshot::misses},
    {"stores", "Entries inserted or replaced", obs::kCounter,
     &StatsSnapshot::stores},
    {"rejected_stores", "store() calls dropped for a non-positive TTL",
     obs::kCounter, &StatsSnapshot::rejected_stores},
    {"expirations", "Entries found expired", obs::kCounter,
     &StatsSnapshot::expirations},
    {"evictions", "CLOCK / byte-budget removals", obs::kCounter,
     &StatsSnapshot::evictions},
    {"clock_sweeps", "Ring slots examined by the CLOCK eviction hand",
     obs::kCounter, &StatsSnapshot::clock_sweeps},
    {"second_chances",
     "Marked (recently hit) entries spared by the eviction hand",
     obs::kCounter, &StatsSnapshot::second_chances},
    {"invalidations", "Explicit invalidate()/clear()", obs::kCounter,
     &StatsSnapshot::invalidations},
    {"revalidations", "Stale entries refreshed via 304", obs::kCounter,
     &StatsSnapshot::revalidations},
    {"uncacheable", "Calls bypassing the cache per policy", obs::kCounter,
     &StatsSnapshot::uncacheable},
    {"stale_serves", "Expired entries served on wire failure", obs::kCounter,
     &StatsSnapshot::stale_serves},
    {"transport_retries", "Wire attempts beyond the first", obs::kCounter,
     &StatsSnapshot::transport_retries},
    {"breaker_opens", "Circuit breaker open events", obs::kCounter,
     &StatsSnapshot::breaker_opens},
    {"breaker_probes", "Half-open recovery trial calls", obs::kCounter,
     &StatsSnapshot::breaker_probes},
    {"deadline_hits", "Per-call deadlines exceeded", obs::kCounter,
     &StatsSnapshot::deadline_hits},
    {"coalesced_waits",
     "Followers parked on another caller's in-flight backend call",
     obs::kCounter, &StatsSnapshot::coalesced_waits},
    {"coalesced_failures",
     "Followers that observed the one broadcast leader failure",
     obs::kCounter, &StatsSnapshot::coalesced_failures},
    {"stale_while_revalidate_served",
     "Expired-within-grace entries served while a refresh ran",
     obs::kCounter, &StatsSnapshot::stale_while_revalidate_served},
    {"refresh_ahead_triggered", "Soft-TTL asynchronous refreshes kicked off",
     obs::kCounter, &StatsSnapshot::refresh_ahead_triggered},
    {"entries", "Current entry count", obs::kGauge, &StatsSnapshot::entries},
    {"bytes", "Current approximate byte footprint", obs::kGauge,
     &StatsSnapshot::bytes},
});

/// Prefix of the cache's Prometheus families (wsc_cache_hits_total, ...).
inline constexpr std::string_view kCacheMetricPrefix = "wsc_cache_";

/// CacheStats keeps every row but the trailing entries/bytes gauges live.
inline constexpr std::size_t kCacheCounterCount = kCacheFields.size() - 2;

/// Flat JSON object carrying every kCacheFields row plus the hit ratio
/// (the /stats admin endpoint's body).
std::string stats_json(const StatsSnapshot& snapshot);

class CacheStats {
 public:
  /// A live counter, named by its StatsSnapshot member and resolved to
  /// its table row at compile time; a member that is not a counter row
  /// does not compile.
  struct Counter {
    consteval Counter(std::uint64_t StatsSnapshot::*member) : row(0) {
      while (row < kCacheCounterCount && kCacheFields[row].member != member)
        ++row;
      if (row == kCacheCounterCount) throw "not a kCacheFields counter row";
    }
    std::size_t row;
  };

  void add(Counter counter, std::uint64_t n = 1) {
    stripes_[util::thread_stripe()].rows[counter.row].fetch_add(
        n, std::memory_order_relaxed);
  }

  /// The stripes summed, plus the two gauges.
  StatsSnapshot snapshot(std::uint64_t entries, std::uint64_t bytes) const;

 private:
  /// Every counter row, on cache lines no other stripe uses.  (Not
  /// hardware_destructive_interference_size: GCC warns it is ABI-unstable
  /// across -mtune; 64 is right for every deployment target we have.)
  struct alignas(64) Stripe {
    std::array<std::atomic<std::uint64_t>, kCacheCounterCount> rows{};
  };

  std::array<Stripe, util::kStripes> stripes_;
};

}  // namespace wsc::cache

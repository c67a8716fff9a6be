#include "core/stats.hpp"

#include <cstdio>

namespace wsc::cache {

std::string StatsSnapshot::to_string() const {
  char ratio[32];
  std::snprintf(ratio, sizeof(ratio), " hit_ratio=%.1f%%", hit_ratio() * 100.0);
  return obs::fields_text(*this, kCacheFields) + ratio;
}

std::string stats_json(const StatsSnapshot& s) {
  char ratio[48];
  std::snprintf(ratio, sizeof(ratio), ", \"hit_ratio\": %.6f}", s.hit_ratio());
  return "{" + obs::fields_json(s, kCacheFields) + ratio;
}

StatsSnapshot CacheStats::snapshot(std::uint64_t entries,
                                   std::uint64_t bytes) const {
  StatsSnapshot s;
  for (const Stripe& stripe : stripes_)
    for (std::size_t i = 0; i < kCacheCounterCount; ++i)
      s.*kCacheFields[i].member +=
          stripe.rows[i].load(std::memory_order_relaxed);
  s.entries = entries;
  s.bytes = bytes;
  return s;
}

}  // namespace wsc::cache

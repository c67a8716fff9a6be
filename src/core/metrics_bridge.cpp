#include "core/metrics_bridge.hpp"

#include "core/adaptive_policy.hpp"
#include "core/response_cache.hpp"

namespace wsc::cache {

void register_cache_metrics(obs::MetricsRegistry& registry,
                            const ResponseCache& cache, obs::Labels labels) {
  obs::register_fields(registry, kCacheMetricPrefix, kCacheFields,
                       std::move(labels), [&cache] { return cache.stats(); });
}

void register_adaptive_metrics(obs::MetricsRegistry& registry,
                               const AdaptivePolicy& policy,
                               obs::Labels labels) {
  obs::register_fields(registry, "wsc_adaptive_",
                       AdaptivePolicy::kCounterFields, labels,
                       [&policy]() -> const AdaptivePolicy& { return policy; });
  registry.gauge_fn("wsc_adaptive_operations",
                    "Operations under adaptive management", labels, [&policy] {
                      return static_cast<double>(policy.operation_count());
                    });
  registry.gauge_fn(
      "wsc_adaptive_memory_pressure",
      "1 while cache bytes hold the objective at bytes-minimizing",
      std::move(labels),
      [&policy] { return policy.memory_pressure() ? 1.0 : 0.0; });
}

}  // namespace wsc::cache

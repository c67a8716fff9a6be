// Ablation I — telemetry overhead on the contention-free hit path.
//
// The PR 5 hit path was made contention-free so that per-hit cost stays
// the Table 7 retrieval cost; the live cost-model telemetry (cost
// profiles, hot-key tracking, slow-call watchdog) rides on that path and
// must stay within a 2% overhead budget when FULLY enabled, compared to
// the same binary with telemetry compiled in but disabled.
//
// Two measurements, single-threaded closed loop (overhead is a per-op
// cost; contention was ablated separately in BENCH_ablation_hitpath):
//
//   1. client_hit — the end-to-end middleware hit (request build, keygen,
//      lookup, retrieve) through GoogleClient::doSpellingSuggestion with
//      a warmed cache, across telemetry variants:
//        telemetry_off : profiles null, hot keys off, no slow-call check
//        profiles_on   : cost profiles attached, 1/64 hit sampling
//        hotkeys_on    : per-shard top-K sketch, 1/64 lookup sampling
//        all_on        : both of the above + slow-call watchdog armed
//   2. raw_lookup — KeyScratch keygen + ResponseCache::lookup(ref) alone,
//      hot-key flag off vs on, isolating the cache-side cost (one relaxed
//      load when off, a sampled sketch offer when on).
//
// Writes BENCH_ablation_obs_overhead.json with ns_per_op per variant and
// overhead_pct relative to the disabled baseline.  `--smoke` shrinks the
// loop for CI; timings then measure bitrot, not truth.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/client.hpp"
#include "core/response_cache.hpp"
#include "obs/profiles.hpp"
#include "services/google/service.hpp"
#include "services/google/stub.hpp"
#include "transport/inproc_transport.hpp"

using namespace wsc;
using services::google::GoogleBackend;

namespace {

struct Variant {
  const char* name;
  bool profiles = false;
  bool hot_keys = false;
  bool slow_call = false;
};

constexpr Variant kVariants[] = {
    {"telemetry_off", false, false, false},
    {"profiles_on", true, false, false},
    {"hotkeys_on", false, true, false},
    {"all_on", true, true, true},
};

struct Fixture {
  explicit Fixture(const Variant& v) {
    auto backend = std::make_shared<GoogleBackend>();
    auto transport = std::make_shared<transport::InProcessTransport>();
    transport->bind("inproc://google/api",
                    services::google::make_google_service(backend));
    cache::CachingServiceClient::Options options;
    options.policy = services::google::default_google_policy(
        cache::Representation::Reference, std::chrono::hours(1));
    if (v.profiles) {
      options.profiles = std::make_shared<obs::CostProfiles>();
      options.profile_sample_every = 64;
    }
    if (v.slow_call)  // armed but never tripped: measures the check alone
      options.slow_call_threshold_ns = std::chrono::hours(1).count() * 1'000'000'000ull;
    response_cache = std::make_shared<cache::ResponseCache>();
    if (v.hot_keys) response_cache->enable_hot_key_tracking({64, 64});
    client = std::make_unique<services::google::GoogleClient>(
        transport, "inproc://google/api", response_cache, options);
  }

  std::shared_ptr<cache::ResponseCache> response_cache;
  std::unique_ptr<services::google::GoogleClient> client;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double ns_per_op(std::chrono::steady_clock::time_point t0, int ops) {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - t0)
             .count() /
         ops;
}

/// End-to-end middleware hit cost under one telemetry variant.
double run_client_hit(const Variant& v, int ops) {
  Fixture f(v);
  f.client->doSpellingSuggestion("stock quote");  // warm: one miss + store
  for (int i = 0; i < 1000; ++i)                  // warm allocators/caches
    f.client->doSpellingSuggestion("stock quote");
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < ops; ++i)
    f.client->doSpellingSuggestion("stock quote");
  return ns_per_op(t0, ops);
}

/// Cache-side cost alone: keygen into a scratch + lookup by borrowed ref.
double run_raw_lookup(bool hot_keys, int ops) {
  cache::ResponseCache cache;
  if (hot_keys) cache.enable_hot_key_tracking({64, 64});
  auto cases = bench::google_cases();
  cache::ToStringKeyGenerator gen;
  cache::CacheKey key = gen.generate(cases[0].request);
  bench::CaptureScratch scratch_cap;
  cache::ResponseCapture capture = cases[0].capture_copy(scratch_cap);
  cache.store(key,
              cache::make_cached_value(cache::Representation::Reference,
                                       capture),
              std::chrono::hours(1));
  cache::KeyScratch scratch;
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < ops; ++i) {
    gen.generate_into(cases[0].request, scratch);
    if (cache.lookup(scratch.ref()).value == nullptr) std::abort();
  }
  return ns_per_op(t0, ops);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const int kOps = smoke ? 20'000 : 150'000;
  const int kReps = smoke ? 2 : 7;
  constexpr int kVariantCount = std::size(kVariants);

  bench::BenchJson json;

  // Paired interleaved reps: the shared bench host drifts by more than
  // the effect size over tens of seconds, so comparing a variant's
  // best-of against a baseline measured much earlier reports drift, not
  // overhead.  Each rep measures every variant back-to-back and the
  // overhead is the MEDIAN across reps of the within-rep ratio to that
  // same rep's telemetry_off cell — drift slower than one rep cancels,
  // and the median discards the reps where a noise spike landed inside
  // one cell of the pair.
  std::printf(
      "Ablation I (telemetry overhead), %d hits per cell, "
      "median paired ratio over %d reps\n",
      kOps, kReps);
  double best_ns[kVariantCount];
  std::vector<double> ratios[kVariantCount];
  std::fill(best_ns, best_ns + kVariantCount, 1e300);
  for (int rep = 0; rep < kReps; ++rep) {
    double cell[kVariantCount];
    for (int i = 0; i < kVariantCount; ++i) {
      cell[i] = run_client_hit(kVariants[i], kOps);
      best_ns[i] = std::min(best_ns[i], cell[i]);
    }
    for (int i = 0; i < kVariantCount; ++i)
      ratios[i].push_back(cell[i] / cell[0]);
  }
  std::printf("%16s %12s %12s\n", "variant", "ns_per_hit", "overhead");
  for (int i = 0; i < kVariantCount; ++i) {
    const double overhead = (median(ratios[i]) - 1.0) * 100.0;
    std::printf("%16s %12.1f %11.2f%%\n", kVariants[i].name, best_ns[i],
                overhead);
    json.add(kVariants[i].name, "ns_per_op", best_ns[i]);
    json.add(kVariants[i].name, "overhead_pct", overhead);
  }

  std::printf("\nraw keygen+lookup (cache side only):\n");
  double raw_off = 1e300, raw_on = 1e300;
  std::vector<double> raw_ratios;
  for (int rep = 0; rep < kReps; ++rep) {
    const double off = run_raw_lookup(false, kOps);
    const double on = run_raw_lookup(true, kOps);
    raw_off = std::min(raw_off, off);
    raw_on = std::min(raw_on, on);
    raw_ratios.push_back(on / off);
  }
  const double raw_overhead = (median(raw_ratios) - 1.0) * 100.0;
  std::printf("%16s %12.1f\n%16s %12.1f (%.2f%%)\n", "hotkeys_off", raw_off,
              "hotkeys_on", raw_on, raw_overhead);
  json.add("raw_lookup_off", "ns_per_op", raw_off);
  json.add("raw_lookup_on", "ns_per_op", raw_on);
  json.add("raw_lookup_on", "overhead_pct", raw_overhead);

  json.add("meta", "ops_per_cell", kOps);
  json.add("meta", "smoke", smoke ? 1 : 0);
  json.write_file("BENCH_ablation_obs_overhead.json");
  return 0;
}

// Ablation L — does closing the loop (adaptive representation selection
// from live cost models) beat the paper's static trait-based auto_select?
//
// Four sections, all on doGoogleSearch (the large/complex result where
// representations differ most), over the in-process transport:
//
//   1. Shifting-mix sweep: every fixed representation, static Auto, and
//      the adaptive policy under each objective drive the same workload
//      of alternating hot (hit-heavy) and churn (store-heavy) rounds
//      with a decision tick per round.  Per variant: median measured
//      hit latency (second-half hot rounds, so adaptive is converged),
//      bytes/entry of the final churn round's stores, and the weighted
//      objective J = alpha*hit_ns + beta*bytes.
//   2. Memory pressure: a small cache byte budget; churn drives the
//      footprint over the high watermark and the policy must force the
//      Bytes objective and shrink new entries to the serialized
//      envelope (~2.5 KB vs ~13 KB reflection copies).
//   3. Converged-overhead (paired medians): alternating same-length hit
//      batches on a static-auto client and a converged adaptive client;
//      overhead_pct compares the medians of the per-batch means, so
//      scheduler noise hits both sides symmetrically.
//   4. Seed reproducibility: two runs with the same seed must make the
//      identical probe stream and decisions.
//
// Writes BENCH_ablation_adaptive.json.  `--smoke` shrinks the workload
// to a CI-sized bitrot check: same code paths, noisier numbers.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/adaptive_policy.hpp"
#include "core/client.hpp"
#include "core/response_cache.hpp"
#include "obs/profiles.hpp"
#include "services/google/stub.hpp"
#include "transport/inproc_transport.hpp"

namespace {

using namespace wsc;
using reflect::Object;
using soap::Parameter;

constexpr const char* kEndpoint = "inproc://bench/google";
constexpr const char* kOp = "doGoogleSearch";
// ns-per-byte weight of the weighted objective: makes the ~10.5 KB gap
// between a reflection copy and the serialized envelope dominate the
// few-microsecond retrieval gap, as a byte-constrained deployment would.
constexpr double kAlpha = 1.0;
constexpr double kBeta = 10.0;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::vector<Parameter> search_params(const std::string& q) {
  return {Parameter{"key", Object::make(std::string(32, '0'))},
          Parameter{"q", Object::make(q)},
          Parameter{"start", Object::make(std::int32_t{0})},
          Parameter{"maxResults", Object::make(std::int32_t{10})},
          Parameter{"filter", Object::make(false)},
          Parameter{"restrict", Object::make(std::string())},
          Parameter{"safeSearch", Object::make(false)},
          Parameter{"lr", Object::make(std::string())},
          Parameter{"ie", Object::make(std::string("latin1"))},
          Parameter{"oe", Object::make(std::string("latin1"))}};
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

struct RunConfig {
  int rounds = 8;      // even: hot phase, odd: churn phase
  int hot_keys = 8;    // fresh per hot round, so hits see the current rep
  int hot_iters = 60;  // passes over the hot set per hot round
  int churn_keys = 400;
  std::uint64_t seed = 1;
};

struct Variant {
  std::string name;
  cache::Representation fixed = cache::Representation::Auto;  // Auto = policy
  bool adaptive = false;
  cache::AdaptiveObjective objective = cache::AdaptiveObjective::Weighted;
};

struct RunResult {
  double hit_ns = 0;          // median measured hit, converged half
  double bytes_per_entry = 0; // mean over the final churn round's entries
  double weighted = 0;        // kAlpha*hit_ns + kBeta*bytes_per_entry
  std::uint64_t switches = 0;
  std::uint64_t decisions = 0;
  std::uint64_t explore_stores = 0;
  cache::Representation final_rep = cache::Representation::Auto;
};

std::shared_ptr<cache::AdaptivePolicy> make_policy(
    cache::AdaptiveObjective objective, std::uint64_t seed,
    double sample_fraction = 1.0) {
  cache::AdaptivePolicy::Config config;
  config.objective = objective;
  config.alpha = kAlpha;
  config.beta = kBeta;
  config.sample_fraction = sample_fraction;
  config.seed = seed;
  config.decision_interval = std::chrono::hours(24);  // bench ticks by hand
  return std::make_shared<cache::AdaptivePolicy>(
      std::make_shared<obs::CostProfiles>(), config);
}

RunResult run_variant(const std::shared_ptr<transport::Transport>& transport,
                      const Variant& variant, const RunConfig& rc) {
  auto response_cache = std::make_shared<cache::ResponseCache>();
  cache::CachingServiceClient::Options options;
  options.policy = services::google::default_google_policy(variant.fixed);
  std::shared_ptr<cache::AdaptivePolicy> policy;
  if (variant.adaptive) {
    policy = make_policy(variant.objective, rc.seed);
    options.adaptive = policy;
  }
  cache::CachingServiceClient client(transport,
                                     services::google::google_description(),
                                     kEndpoint, response_cache,
                                     std::move(options));

  std::vector<double> hit_samples;
  for (int round = 0; round < rc.rounds; ++round) {
    if (round % 2 == 0) {
      // Hot phase on a fresh hot set: pass 0 stores (with whatever the
      // variant currently selects), later passes are pure hits.
      for (int pass = 0; pass < rc.hot_iters; ++pass) {
        for (int k = 0; k < rc.hot_keys; ++k) {
          const std::string q = "hot-r" + std::to_string(round) + "-k" +
                                std::to_string(k);
          if (pass == 0 || round < rc.rounds / 2) {
            client.invoke(kOp, search_params(q));
          } else {
            const std::uint64_t t0 = now_ns();
            client.invoke(kOp, search_params(q));
            hit_samples.push_back(static_cast<double>(now_ns() - t0));
          }
        }
      }
    } else {
      for (int k = 0; k < rc.churn_keys; ++k)
        client.invoke(kOp, search_params("p" + std::to_string(round) + "-k" +
                                         std::to_string(k)));
    }
    if (policy) policy->decide_now();
  }

  RunResult result;
  result.hit_ns = median(std::move(hit_samples));
  // Bytes per entry of the FINAL churn round's stores (the converged
  // representation), not the whole cache (which mixes warmup entries).
  const int last_churn = rc.rounds - 1;
  double bytes = 0;
  int counted = 0;
  for (int k = 0; k < std::min(rc.churn_keys, 64); ++k) {
    const cache::CacheKey key = client.key_for(
        kOp, search_params("p" + std::to_string(last_churn) + "-k" +
                           std::to_string(k)));
    if (std::shared_ptr<const cache::CachedValue> value =
            response_cache->lookup(key.ref()).value) {
      bytes += static_cast<double>(value->memory_size());
      ++counted;
      result.final_rep = value->representation();
    }
  }
  if (counted) result.bytes_per_entry = bytes / counted;
  result.weighted = kAlpha * result.hit_ns + kBeta * result.bytes_per_entry;
  if (policy) {
    result.switches = policy->switches();
    result.decisions = policy->decisions();
    result.explore_stores = policy->explore_stores();
    if (result.final_rep == cache::Representation::Auto)
      result.final_rep = policy->current(kOp);
  }
  return result;
}

/// Section 2: small byte budget, churn until pressure, report what new
/// entries cost afterwards.
void memory_pressure(wsc::bench::BenchJson& json,
                     const std::shared_ptr<transport::Transport>& transport,
                     bool smoke) {
  auto response_cache = std::make_shared<cache::ResponseCache>(
      cache::ResponseCache::Config{.max_bytes = 256 * 1024});
  cache::CachingServiceClient::Options options;
  options.policy = services::google::default_google_policy();
  auto policy = make_policy(cache::AdaptiveObjective::Latency, 1);
  options.adaptive = policy;  // budget rides in via bind_cache()
  cache::CachingServiceClient client(transport,
                                     services::google::google_description(),
                                     kEndpoint, response_cache,
                                     std::move(options));

  // Fill: reflection copies (~13 KB each) blow through the 0.9 * 256 KiB
  // watermark within ~20 entries.
  const int fill = smoke ? 40 : 80;
  double pre_bytes = 0;
  int pre_counted = 0;
  for (int k = 0; k < fill; ++k) {
    client.invoke(kOp, search_params("fill-" + std::to_string(k)));
    if (k < 8) {
      const cache::CacheKey key =
          client.key_for(kOp, search_params("fill-" + std::to_string(k)));
      if (auto value = response_cache->lookup(key.ref()).value) {
        pre_bytes += static_cast<double>(value->memory_size());
        ++pre_counted;
      }
    }
    if (k % 10 == 9) policy->decide_now();
  }
  // Under pressure now: new stores must use the byte-minimal form.
  const int post = smoke ? 20 : 40;
  double post_bytes = 0;
  int post_counted = 0;
  for (int k = 0; k < post; ++k) {
    client.invoke(kOp, search_params("post-" + std::to_string(k)));
    const cache::CacheKey key =
        client.key_for(kOp, search_params("post-" + std::to_string(k)));
    if (auto value = response_cache->lookup(key.ref()).value) {
      post_bytes += static_cast<double>(value->memory_size());
      ++post_counted;
    }
  }
  const double pre = pre_counted ? pre_bytes / pre_counted : 0;
  const double post_avg = post_counted ? post_bytes / post_counted : 0;
  std::printf(
      "pressure: budget 256KiB, bytes/entry %.0f -> %.0f, transitions %llu, "
      "pressure %s\n",
      pre, post_avg,
      static_cast<unsigned long long>(policy->pressure_transitions()),
      policy->memory_pressure() ? "ON" : "off");
  json.add("pressure", "budget_bytes", 256 * 1024);
  json.add("pressure", "pre_bytes_per_entry", pre);
  json.add("pressure", "post_bytes_per_entry", post_avg);
  json.add("pressure", "transitions",
           static_cast<double>(policy->pressure_transitions()));
  json.add("pressure", "engaged", policy->memory_pressure() ? 1 : 0);
}

/// Section 3: paired-median hit-path overhead of a converged policy.
void converged_overhead(wsc::bench::BenchJson& json,
                        const std::shared_ptr<transport::Transport>& transport,
                        bool smoke) {
  auto make_client = [&](std::shared_ptr<cache::AdaptivePolicy> policy) {
    cache::CachingServiceClient::Options options;
    options.policy = services::google::default_google_policy();
    options.adaptive = std::move(policy);
    // Both sides carry live cost profiles (the production portal always
    // does): the delta measured here is the adaptive machinery alone,
    // not the already-budgeted telemetry sampling.
    if (!options.adaptive)
      options.profiles = std::make_shared<obs::CostProfiles>();
    return cache::CachingServiceClient(
        transport, services::google::google_description(), kEndpoint,
        std::make_shared<cache::ResponseCache>(), std::move(options));
  };
  // Default sample fraction: the production setting, not the bench's
  // probe-everything exploration mode.
  auto policy = make_policy(cache::AdaptiveObjective::Latency, 1,
                            cache::AdaptivePolicy::Config{}.sample_fraction);
  cache::CachingServiceClient stat = make_client(nullptr);
  cache::CachingServiceClient adap = make_client(policy);

  const int kHot = 8;
  for (int k = 0; k < kHot; ++k) {
    stat.invoke(kOp, search_params("ovh-" + std::to_string(k)));
    adap.invoke(kOp, search_params("ovh-" + std::to_string(k)));
  }
  policy->decide_now();  // converged: hot set stays, no switches follow

  const int batches = smoke ? 8 : 24;
  const int per_batch = smoke ? 100 : 400;
  std::vector<double> stat_ns, adap_ns;
  auto run_batch = [&](cache::CachingServiceClient& client) {
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < per_batch; ++i)
      client.invoke(kOp, search_params("ovh-" + std::to_string(i % kHot)));
    return static_cast<double>(now_ns() - t0) / per_batch;
  };
  for (int b = 0; b < batches; ++b) {
    stat_ns.push_back(run_batch(stat));  // paired: same scheduler epoch
    adap_ns.push_back(run_batch(adap));
    policy->decide_now();
  }
  const double stat_med = median(std::move(stat_ns));
  const double adap_med = median(std::move(adap_ns));
  const double overhead_pct =
      stat_med > 0 ? 100.0 * (adap_med - stat_med) / stat_med : 0;
  std::printf("overhead: static %.0fns adaptive %.0fns -> %+.2f%%\n", stat_med,
              adap_med, overhead_pct);
  json.add("overhead", "static_hit_ns", stat_med);
  json.add("overhead", "adaptive_hit_ns", adap_med);
  json.add("overhead", "overhead_pct", overhead_pct);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  auto backend = std::make_shared<services::google::GoogleBackend>();
  auto transport = std::make_shared<transport::InProcessTransport>();
  transport->bind(kEndpoint, services::google::make_google_service(backend));

  RunConfig rc;
  if (smoke) {
    rc.rounds = 4;
    rc.hot_iters = 20;
    rc.churn_keys = 64;
  }

  std::vector<Variant> variants = {
      {"fixed/XML_message", cache::Representation::XmlMessage},
      {"fixed/SAX_events", cache::Representation::SaxEvents},
      {"fixed/Serialized", cache::Representation::Serialized},
      {"fixed/Reflection", cache::Representation::ReflectionCopy},
      {"static_auto", cache::Representation::Auto},
      {"adaptive/latency", cache::Representation::Auto, true,
       cache::AdaptiveObjective::Latency},
      {"adaptive/bytes", cache::Representation::Auto, true,
       cache::AdaptiveObjective::Bytes},
      {"adaptive/weighted", cache::Representation::Auto, true,
       cache::AdaptiveObjective::Weighted},
  };

  wsc::bench::BenchJson json;
  double static_weighted = 0, adaptive_weighted = 0;
  double best_fixed_hit = 0, best_fixed_bytes = 0;
  double adaptive_latency_hit = 0, adaptive_bytes_bytes = 0;
  for (const Variant& variant : variants) {
    const RunResult r = run_variant(transport, variant, rc);
    std::printf("%-20s hit %8.0fns  bytes/entry %7.0f  J %9.0f  "
                "switches %llu  -> %s\n",
                variant.name.c_str(), r.hit_ns, r.bytes_per_entry, r.weighted,
                static_cast<unsigned long long>(r.switches),
                cache::representation_name(r.final_rep).data());
    json.add("mix/" + variant.name, "hit_ns", r.hit_ns);
    json.add("mix/" + variant.name, "bytes_per_entry", r.bytes_per_entry);
    json.add("mix/" + variant.name, "weighted_J", r.weighted);
    json.add("mix/" + variant.name, "switches",
             static_cast<double>(r.switches));
    json.add("mix/" + variant.name, "final_rep",
             static_cast<double>(r.final_rep));
    if (variant.name == "static_auto") static_weighted = r.weighted;
    if (variant.name == "adaptive/weighted") adaptive_weighted = r.weighted;
    if (variant.name == "adaptive/latency") adaptive_latency_hit = r.hit_ns;
    if (variant.name == "adaptive/bytes") adaptive_bytes_bytes =
        r.bytes_per_entry;
    if (variant.name.rfind("fixed/", 0) == 0) {
      if (best_fixed_hit == 0 || r.hit_ns < best_fixed_hit)
        best_fixed_hit = r.hit_ns;
      if (best_fixed_bytes == 0 || r.bytes_per_entry < best_fixed_bytes)
        best_fixed_bytes = r.bytes_per_entry;
    }
  }
  // Acceptance ratios (>= 1.2 gain over static auto on the weighted
  // objective; pure objectives within 10% of the best fixed form).
  const double gain =
      adaptive_weighted > 0 ? static_weighted / adaptive_weighted : 0;
  json.add("criteria", "weighted_gain_vs_static", gain);
  json.add("criteria", "latency_vs_best_fixed",
           best_fixed_hit > 0 ? adaptive_latency_hit / best_fixed_hit : 0);
  json.add("criteria", "bytes_vs_best_fixed",
           best_fixed_bytes > 0 ? adaptive_bytes_bytes / best_fixed_bytes : 0);
  std::printf("weighted gain vs static auto: %.2fx\n", gain);

  memory_pressure(json, transport, smoke);
  converged_overhead(json, transport, smoke);

  // Section 4: given identical cost feeds, the probe stream AND the
  // decisions are a pure function of the seed — two policies driven by
  // the same synthetic sequence must trace identically (real-run scores
  // differ only because measured timings differ).
  auto trace = [](std::uint64_t seed) {
    cache::AdaptivePolicy::Config config;
    config.objective = cache::AdaptiveObjective::Weighted;
    config.alpha = kAlpha;
    config.beta = kBeta;
    config.sample_fraction = 0.25;
    config.seed = seed;
    config.decision_interval = std::chrono::hours(24);
    auto profiles = std::make_shared<obs::CostProfiles>();
    cache::AdaptivePolicy policy(profiles, config);
    const std::vector<cache::Representation> applicable = {
        cache::Representation::Serialized,
        cache::Representation::ReflectionCopy,
        cache::Representation::SaxEvents};
    std::string t;
    for (int i = 0; i < 200; ++i) {
      const cache::AdaptivePolicy::Choice choice = policy.choose(
          "Svc", kOp, cache::Representation::ReflectionCopy, applicable);
      t.push_back('0' + static_cast<char>(choice.representation));
      t.push_back('0' + static_cast<char>(choice.probe));
      if (choice.probe != cache::Representation::Auto)
        profiles->record_probe("Svc", kOp,
                               cache::representation_name(choice.probe),
                               1000 + 500 * static_cast<int>(choice.probe), 0,
                               2000 + 1000 * static_cast<int>(choice.probe));
      if (i % 40 == 39) {
        policy.decide_now();
        t.push_back('D');
        t.push_back('0' + static_cast<char>(policy.current(kOp)));
      }
    }
    return t;
  };
  const std::string run_a = trace(42), run_b = trace(42);
  const bool match = run_a == run_b;
  std::printf("seed reproducibility: %s (trace %zu events, differs from "
              "seed 43: %s)\n",
              match ? "ok" : "MISMATCH", run_a.size(),
              trace(43) != run_a ? "yes" : "no");
  json.add("criteria", "seed_reproducible", match ? 1 : 0);
  json.add("meta", "smoke", smoke ? 1 : 0);
  json.write_file("BENCH_ablation_adaptive.json");
  return 0;
}

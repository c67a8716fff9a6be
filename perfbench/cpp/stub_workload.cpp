// stub_hits: the client hit path on its own, with no HTTP.
//
// Closed-loop application threads call the typed GoogleClient stub across
// all three Google operations on a warmed hot set, so every call is a hit.
// The client is configured as the portal configures its own: cost
// profiles fed on every call, hot-key tracking on every lookup.  Its
// transport is in-process, and only the warm-up ever reaches it.
//
// This workload exists because on hot_portal the client hit path is a
// small share of each request's CPU; a change to keygen, lookup, retrieve
// or the glue around them shows here first.
#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/response_cache.hpp"
#include "obs/profiles.hpp"
#include "obs/trace.hpp"
#include "services/google/service.hpp"
#include "services/google/stub.hpp"
#include "transport/inproc_transport.hpp"

namespace perfbench {

namespace {

using namespace wsc;
using services::google::GoogleBackend;
using services::google::GoogleClient;
using services::google::GoogleSearchResult;

constexpr std::size_t kThreads = 2;
constexpr std::size_t kHotKeys = 64;
constexpr double kZipf = 1.0;
constexpr double kWarmSeconds = 1.0;
constexpr const char* kEndpoint = "inproc://services/google";

/// The hot set and the backend's answer for each key.
struct HotSet {
  std::vector<std::string> queries, phrases, urls;
  std::vector<GoogleSearchResult> results;
  std::vector<std::string> suggestions;
  std::vector<std::vector<std::uint8_t>> pages;

  explicit HotSet(std::uint64_t seed) {
    const GoogleBackend backend;
    for (std::size_t i = 0; i < kHotKeys; ++i) {
      queries.push_back(make_query("stub", seed, i));
      phrases.push_back(make_query("spell", seed, i) + " " + make_query("ing", seed, i));
      urls.push_back("http://" + make_query("page", seed, i) + ".example.com/");
      results.push_back(backend.search(queries.back(), 0, 10));
      suggestions.push_back(backend.spelling_suggestion(phrases.back()));
      pages.push_back(backend.cached_page(urls.back()));
    }
  }
};

struct StubStack {
  LayerTimer wire_timer;
  std::shared_ptr<obs::CostProfiles> profiles;
  std::shared_ptr<cache::ResponseCache> cache;
  std::unique_ptr<GoogleClient> client;
};

std::unique_ptr<StubStack> build_stack(const HotSet& hot) {
  auto s = std::make_unique<StubStack>();
  auto inproc = std::make_shared<transport::InProcessTransport>();
  inproc->bind(kEndpoint, services::google::make_google_service(
                              std::make_shared<GoogleBackend>()));
  s->cache = std::make_shared<cache::ResponseCache>();
  s->cache->enable_hot_key_tracking({/*capacity=*/64, /*sample_every=*/1});
  s->profiles = std::make_shared<obs::CostProfiles>();
  cache::CachingServiceClient::Options options;
  options.key_method = cache::KeyMethod::ToString;
  options.policy = services::google::default_google_policy();
  options.profiles = s->profiles;
  options.profile_sample_every = 1;
  options.slow_call_threshold_ns = 50'000'000;
  s->client = std::make_unique<GoogleClient>(
      std::make_shared<TimedTransport>(inproc, s->wire_timer), kEndpoint, s->cache,
      std::move(options));
  for (std::size_t i = 0; i < kHotKeys; ++i) {
    s->client->doGoogleSearch(hot.queries[i]);
    s->client->doSpellingSuggestion(hot.phrases[i]);
    s->client->doGetCachedPage(hot.urls[i]);
  }
  return s;
}

/// Each thread keeps the latencies of its last 2^20 calls: memory that does
/// not grow with the call rate, so rss_mb does not move with speed.
constexpr std::size_t kLatencyRing = std::size_t{1} << 20;

struct ThreadOut {
  std::vector<std::uint64_t> latency_ns = std::vector<std::uint64_t>(kLatencyRing);
  std::uint64_t calls = 0;
  std::uint64_t wrong = 0;
};

/// One application thread: half searches, a quarter each of spelling and
/// cached-page calls, keys drawn Zipf from the hot set.
void app_thread(GoogleClient& client, const HotSet& hot, const Zipf& zipf,
                std::uint64_t stream, std::uint64_t end_ns, ThreadOut& out) {
  std::uint64_t now = now_ns();
  for (std::uint64_t i = 0; now < end_ns; ++i) {
    const std::uint64_t r = mix64(stream ^ mix64(i));
    const std::size_t k = zipf.rank(uniform(stream, i));
    const std::uint64_t t0 = now_ns();
    bool ok = false;
    switch (r & 3) {
      case 0:
      case 1: {
        const GoogleSearchResult got = client.doGoogleSearch(hot.queries[k]);
        now = now_ns();
        ok = got == hot.results[k];
        break;
      }
      case 2: {
        const std::string got = client.doSpellingSuggestion(hot.phrases[k]);
        now = now_ns();
        ok = got == hot.suggestions[k];
        break;
      }
      default: {
        const std::vector<std::uint8_t> got = client.doGetCachedPage(hot.urls[k]);
        now = now_ns();
        ok = got == hot.pages[k];
        break;
      }
    }
    out.latency_ns[out.calls % kLatencyRing] = now - t0;
    ++out.calls;
    if (!ok) ++out.wrong;
  }
}

struct Phase {
  std::vector<std::uint64_t> latency_ns;
  std::uint64_t calls = 0;
  std::uint64_t wrong = 0;
  ProcSample before, after;
  cache::StatsSnapshot cache;  // delta
  LayerTimer::Sample wire;     // delta

  double cpu_us_per_req() const {
    return calls ? static_cast<double>(after.cpu_ns - before.cpu_ns) / 1e3 /
                       static_cast<double>(calls)
                 : 0.0;
  }
};

Phase run_phase(StubStack& s, const HotSet& hot, const Zipf& zipf,
                std::uint64_t seed, std::uint64_t phase_id, double seconds) {
  Phase p;
  std::vector<ThreadOut> outs(kThreads);
  const cache::StatsSnapshot c0 = s.cache->stats();
  const LayerTimer::Sample wire0 = s.wire_timer.sample();
  p.before = ProcSample::take();
  const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  {
    std::vector<std::jthread> threads;
    for (std::size_t t = 0; t < kThreads; ++t)
      threads.emplace_back(app_thread, std::ref(*s.client), std::cref(hot),
                           std::cref(zipf), mix64(seed ^ (phase_id << 32 | t)),
                           end, std::ref(outs[t]));
  }
  p.after = ProcSample::take();
  p.cache = stats_delta(c0, s.cache->stats());
  p.wire = s.wire_timer.sample() - wire0;
  for (const ThreadOut& o : outs) {
    p.calls += o.calls;
    p.wrong += o.wrong;
    p.latency_ns.insert(p.latency_ns.end(), o.latency_ns.begin(),
                        o.latency_ns.begin() + static_cast<std::ptrdiff_t>(
                                                   std::min<std::uint64_t>(o.calls, kLatencyRing)));
  }
  return p;
}

}  // namespace

Report run_stub_workload(const Args& args) {
  const HotSet hot(args.seed);
  const Zipf zipf(kHotKeys, kZipf);

  Report report;
  const auto build = [&] { return build_stack(hot); };
  std::unique_ptr<StubStack> stack = repeat_setup(kSetupRuns, build, report);
  StubStack& s = *stack;

  report.connections_or_threads = kThreads;
  report.host_probe_us.push_back(host_probe_us());
  const Phase warm = run_phase(s, hot, zipf, args.seed, 0, kWarmSeconds);
  if (warm.wrong) report.problem("warm-in: " + std::to_string(warm.wrong) + " wrong results");

  std::vector<Phase> phases;
  if (!args.trace) {
    phases.push_back(run_phase(s, hot, zipf, args.seed, 1, args.seconds));
  } else {
    phases.push_back(run_phase(s, hot, zipf, args.seed, 1, args.seconds / 2));
    obs::tracer().reset();
    obs::tracer().set_enabled(true);
    g_tracing = true;
    phases.push_back(run_phase(s, hot, zipf, args.seed, 2, args.seconds / 2));
    g_tracing = false;
    obs::tracer().set_enabled(false);
  }
  const Phase& last = phases.back();
  report.host_probe_us.push_back(host_probe_us());

  for (const Phase& p : phases) {
    report.attempted += p.calls;
    report.failed += p.wrong;
    report.ctx_switches += p.after.ctx_switches - p.before.ctx_switches;
    // Count identity: every stub call is exactly one cache hit or miss.
    if (p.cache.hits + p.cache.misses != p.calls)
      report.problem("cache hits + misses (" + std::to_string(p.cache.hits + p.cache.misses) +
                     ") != stub calls (" + std::to_string(p.calls) + ")");
    if (p.wire.calls != 0)
      report.problem("stub_hits reached the transport " + std::to_string(p.wire.calls) +
                     " times; every call should hit");
  }
  if (report.failed)
    report.problem(std::to_string(report.failed) + " stub results differ from the backend's");
  report.steal_pct = steal_pct(phases.front().before, last.after);
  report.latency_samples = last.latency_ns.size();
  for (const obs::CostProfiles::Row& row : s.profiles->snapshot())
    report.representations.push_back({row.operation, row.representation});

  if (!args.trace) {
    const cache::ResponseCache::Footprint footprint = s.cache->footprint();
    EndToEndInputs in;
    in.latency_ns = &last.latency_ns;
    in.requests = last.calls;
    in.workload_cpu_ns = last.after.cpu_ns - last.before.cpu_ns;
    in.cache_entries = footprint.entries;
    in.cache_bytes = footprint.bytes;
    in.rss_mib = rss_mib();
    // The second group of set-ups, now that the measured stack is gone.
    stack.reset();
    repeat_setup(kSetupRuns, build, report);
    add_end_to_end_metrics(report, in);
  } else {
    const obs::TraceSummary trace = obs::tracer().snapshot();
    LayerInputs in;
    in.cpu_us_untraced = phases.front().cpu_us_per_req();
    in.cpu_us_traced = last.cpu_us_per_req();
    in.requests = last.calls;
    in.ctx_switches = last.after.ctx_switches - last.before.ctx_switches;
    in.wire = last.wire;
    in.backend_calls = last.wire.calls;  // the in-process transport is the backend
    in.cache = last.cache;
    in.trace = &trace;
    add_layer_metrics(report, in);
  }
  return report;
}

}  // namespace perfbench

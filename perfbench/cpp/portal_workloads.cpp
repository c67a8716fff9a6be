// The two portal workloads: the paper's section 5.2 topology in one
// process, on loopback.
//
//   OpenLoop --HTTP--> portal HttpServer (reactor) --> PortalSite
//     --> CachingServiceClient + ResponseCache --> HttpTransport
//     --HTTP--> backend HttpServer (reactor) --> SOAP dispatcher --> GoogleBackend
//
// Layers are timed from outside: a span around the portal handler, a
// Transport decorator around HttpTransport::post, and a span around the
// backend's SOAP handler.  The client's own stages come from the
// program's process-wide obs::tracer().
#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "core/adaptive_policy.hpp"
#include "core/response_cache.hpp"
#include "obs/trace.hpp"
#include "open_loop.hpp"
#include "portal/portal.hpp"
#include "services/google/service.hpp"
#include "transport/http_transport.hpp"
#include "transport/soap_http.hpp"

namespace perfbench {

namespace {

using namespace wsc;
using services::google::GoogleBackend;
using services::google::GoogleSearchResult;

constexpr std::size_t kConnections = 4;
constexpr std::size_t kServerWorkers = 4;
constexpr const char* kSearch = "doGoogleSearch";

// Bytes one GoogleSearchResult entry holds as a ReflectionCopy (measured:
// cache_bytes_per_entry on hot_portal).  Budgets are stated in entries of
// that size, so a representation that grows or shrinks changes how many
// entries fit, as in the paper's Table 9.
constexpr std::size_t kReflectionEntryBytes = 6'600;

enum class Kind { Hot, Cold };

struct Spec {
  Kind kind;
  double rate;  // offered req/s: about half what a 4-vCPU host sustains
};

// Unmeasured load at the workload's rate before the measured phase.
constexpr double kWarmSeconds = 1.0;

// hot_portal: 64 warmed queries, every request a hit.
constexpr std::size_t kHotKeys = 64;
// cold_portal: unique queries into a budget of 64 entries, prefilled 4x
// over so every shard is full and every store evicts.
constexpr std::size_t kColdBudgetEntries = 64;
constexpr std::size_t kColdPrefill = 4 * kColdBudgetEntries;

Spec spec_for(const std::string& workload) {
  if (workload == "hot_portal") return {Kind::Hot, 3500};
  if (workload == "cold_portal") return {Kind::Cold, 800};
  throw std::invalid_argument("unknown workload: " + workload);
}

// Both workloads pin doGoogleSearch to ReflectionCopy, the paper's choice
// for GoogleSearchResult, so no representation choice varies between runs.
constexpr cache::Representation kPinned = cache::Representation::ReflectionCopy;

cache::CachePolicy search_policy() {
  cache::OperationPolicy search;
  search.cacheable = true;
  search.ttl = std::chrono::hours(1);
  search.representation = kPinned;
  cache::CachePolicy policy;
  policy.set(kSearch, search);
  return policy;
}

/// What a correct page for a query must say: the backend's answer count
/// and every result URL.
std::vector<std::string> page_needles(const GoogleBackend& backend,
                                      const std::string& query) {
  const GoogleSearchResult r = backend.search(query, 0, 10);
  std::vector<std::string> needles;
  needles.push_back("Results for \"" + query + "\"");
  needles.push_back("about " + std::to_string(r.estimatedTotalResultsCount) +
                    " results");
  for (const auto& e : r.resultElements) needles.push_back("href=\"" + e.URL + "\"");
  return needles;
}

bool page_matches(const std::vector<std::string>& needles, const std::string& body) {
  return std::all_of(needles.begin(), needles.end(), [&](const std::string& n) {
    return body.find(n) != std::string::npos;
  });
}

const std::string kTargetPrefix = "/portal?q=";

struct PortalStack {
  LayerTimer portal_timer;
  LayerTimer wire_timer;
  LayerTimer backend_timer;
  std::unique_ptr<http::HttpServer> backend_server;
  std::shared_ptr<cache::ResponseCache> cache;
  std::unique_ptr<portal::PortalSite> site;
  std::unique_ptr<http::HttpServer> portal_server;
  std::unique_ptr<OpenLoop> load;
};

http::ServerOptions reactor_options() {
  http::ServerOptions options;
  options.mode = http::ServerOptions::Mode::Reactor;
  options.worker_threads = kServerWorkers;
  return options;
}

std::unique_ptr<PortalStack> build_stack(Kind kind,
                                         const std::vector<std::string>& prefill) {
  auto s = std::make_unique<PortalStack>();
  s->backend_server = std::make_unique<http::HttpServer>(
      0,
      timed_handler(transport::make_soap_handler(
                        "/soap/google", services::google::make_google_service(
                                            std::make_shared<GoogleBackend>())),
                    s->backend_timer),
      reactor_options());
  s->backend_server->start();

  cache::ResponseCache::Config cache_config;
  if (kind == Kind::Cold) cache_config.max_bytes = kColdBudgetEntries * kReflectionEntryBytes;
  s->cache = std::make_shared<cache::ResponseCache>(cache_config);

  portal::PortalConfig config;
  config.backend_endpoint = s->backend_server->base_url() + "/soap/google";
  config.transport = std::make_shared<TimedTransport>(
      std::make_shared<transport::HttpTransport>(), s->wire_timer);
  config.options.key_method = cache::KeyMethod::ToString;
  config.options.policy = search_policy();
  config.response_cache = s->cache;
  s->site = std::make_unique<portal::PortalSite>(std::move(config));
  s->portal_server = std::make_unique<http::HttpServer>(
      0, timed_handler(s->site->handler(), s->portal_timer), reactor_options());
  s->site->attach_server(*s->portal_server);
  s->portal_server->start();

  for (const std::string& q : prefill) s->site->google().doGoogleSearch(q);
  s->load = std::make_unique<OpenLoop>(s->portal_server->port(), kConnections);
  return s;
}

/// One measured stretch of open-loop load, with the counters around it.
struct Phase {
  OpenLoopResult load;
  ProcSample before, after;
  cache::StatsSnapshot cache;  // delta
  LayerTimer::Sample portal, wire, backend;  // deltas

  double cpu_us_per_req() const {
    const double workload_ns =
        static_cast<double>(after.cpu_ns - before.cpu_ns) -
        static_cast<double>(load.thread_cpu_ns);
    return load.completed ? workload_ns / 1e3 / static_cast<double>(load.completed)
                          : 0.0;
  }
};

Phase run_phase(PortalStack& s, double rate, double seconds,
                const OpenLoop::TargetFn& target, const OpenLoop::CheckFn& check) {
  Phase p;
  const cache::StatsSnapshot c0 = s.cache->stats();
  const LayerTimer::Sample portal0 = s.portal_timer.sample();
  const LayerTimer::Sample wire0 = s.wire_timer.sample();
  const LayerTimer::Sample backend0 = s.backend_timer.sample();
  p.before = ProcSample::take();
  p.load = s.load->run(rate, seconds, target, check);
  p.after = ProcSample::take();
  p.cache = stats_delta(c0, s.cache->stats());
  p.portal = s.portal_timer.sample() - portal0;
  p.wire = s.wire_timer.sample() - wire0;
  p.backend = s.backend_timer.sample() - backend0;
  return p;
}

double mean_us(const std::vector<std::uint64_t>& ns) {
  if (ns.empty()) return 0;
  double sum = 0;
  for (std::uint64_t v : ns) sum += static_cast<double>(v);
  return sum / static_cast<double>(ns.size()) / 1e3;
}

}  // namespace

Report run_portal_workload(const Args& args) {
  const Spec spec = spec_for(args.workload);
  const double rate = spec.rate;
  const std::uint64_t seed = args.seed;
  const GoogleBackend expected_backend;

  // Inputs, all drawn from the seed.
  std::vector<std::string> keys;  // hot_portal's queries, by popularity
  std::vector<std::string> prefill;
  std::unique_ptr<Zipf> zipf;
  if (spec.kind == Kind::Hot) {
    for (std::size_t i = 0; i < kHotKeys; ++i) keys.push_back(make_query("hot", seed, i));
    prefill = keys;
    zipf = std::make_unique<Zipf>(kHotKeys, 1.0);
  } else {
    for (std::size_t i = 0; i < kColdPrefill; ++i)
      prefill.push_back(make_query("fill", seed, i));
  }
  std::unordered_map<std::string, std::vector<std::string>> needles;
  for (const std::string& q : keys) needles[kTargetPrefix + q] = page_needles(expected_backend, q);

  const OpenLoop::TargetFn target = [&](std::uint64_t seq) {
    if (spec.kind == Kind::Cold) return kTargetPrefix + make_query("cold", seed, seq);
    return kTargetPrefix + keys[zipf->rank(uniform(seed, seq))];
  };
  // A page byte-identical to one already verified for the same query is
  // right too; remembering its hash keeps the generator's own CPU low.
  std::unordered_map<std::string, std::size_t> verified;
  const OpenLoop::CheckFn check = [&](const std::string& t,
                                      const http::Response& response) {
    if (spec.kind == Kind::Cold)
      return page_matches(page_needles(expected_backend, t.substr(kTargetPrefix.size())),
                          response.body);
    const std::size_t hash = std::hash<std::string>{}(response.body);
    const auto seen = verified.find(t);
    if (seen != verified.end() && seen->second == hash) return true;
    const auto it = needles.find(t);
    if (it == needles.end() || !page_matches(it->second, response.body)) return false;
    verified[t] = hash;
    return true;
  };

  // Set-up, several times over; the last stack is the one measured.
  Report report;
  const auto build = [&] { return build_stack(spec.kind, prefill); };
  std::unique_ptr<PortalStack> stack = repeat_setup(kSetupRuns, build, report);
  PortalStack& s = *stack;

  report.offered_rps = rate;
  report.connections_or_threads = kConnections;
  report.host_probe_us.push_back(host_probe_us());

  // Warm-in at the workload's rate: lazy allocations, connection pools and
  // branch predictors settle before anything is measured.
  const Phase warm = run_phase(s, rate, kWarmSeconds, target, check);
  if (warm.load.failed)
    report.problem("warm-in: " + std::to_string(warm.load.failed) + " failed, first: " +
                   warm.load.first_error);

  std::vector<Phase> phases;
  if (!args.trace) {
    phases.push_back(run_phase(s, rate, args.seconds, target, check));
  } else {
    // Untraced then traced halves: the per-layer numbers come from the
    // second, and the CPU gap between the two is the trace's own cost.
    phases.push_back(run_phase(s, rate, args.seconds / 2, target, check));
    obs::tracer().reset();
    obs::tracer().set_enabled(true);
    g_tracing = true;
    phases.push_back(run_phase(s, rate, args.seconds / 2, target, check));
    g_tracing = false;
    obs::tracer().set_enabled(false);
  }
  const Phase& last = phases.back();
  report.host_probe_us.push_back(host_probe_us());

  for (const Phase& p : phases) {
    report.attempted += p.load.attempted;
    report.failed += p.load.failed;
    if (!p.load.first_error.empty()) report.problem(p.load.first_error);
    // The layers each workload must bypass while it is measured.
    if (spec.kind == Kind::Hot && p.wire.calls != 0)
      report.problem("hot_portal reached the transport " + std::to_string(p.wire.calls) +
                     " times; every request should hit");
    if (spec.kind == Kind::Cold && p.cache.hits != 0)
      report.problem("cold_portal hit the cache " + std::to_string(p.cache.hits) +
                     " times; every request should miss");
    report.backlog_max = std::max(report.backlog_max, p.load.backlog_max);
    report.backlog_growing = report.backlog_growing || p.load.backlog_growing;
    report.ctx_switches += p.after.ctx_switches - p.before.ctx_switches;
  }
  report.steal_pct = steal_pct(phases.front().before, last.after);
  report.generator_cpu_us_per_req =
      last.load.attempted ? static_cast<double>(last.load.thread_cpu_ns) / 1e3 /
                                static_cast<double>(last.load.attempted)
                          : 0.0;
  report.late_p50_us = static_cast<double>(quantile(last.load.late_ns, 0.50)) / 1e3;
  report.late_p99_us = static_cast<double>(quantile(last.load.late_ns, 0.99)) / 1e3;
  report.adaptive_switches = s.site->adaptive().switches();
  report.representations.push_back({kSearch, std::string(cache::representation_name(kPinned))});

  // Count identity: every call the transport decorator saw reached the
  // backend handler.  A request the generator gave up on may still be on
  // the wire, so give it a moment to land.
  for (int i = 0; i < 300; ++i) {
    if (s.wire_timer.sample().calls == s.backend_timer.sample().calls) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (s.wire_timer.sample().calls != s.backend_timer.sample().calls)
    report.problem("transport calls (" + std::to_string(s.wire_timer.sample().calls) +
                   ") != backend handler calls (" +
                   std::to_string(s.backend_timer.sample().calls) + ")");

  // Count identity: the generator's connections are the only ones the
  // portal accepted.
  const std::uint64_t accepted =
      s.portal_server->stats().get(s.portal_server->stats().connections_accepted);
  if (accepted != kConnections)
    report.problem("portal accepted " + std::to_string(accepted) + " connections, not " +
                   std::to_string(kConnections));

  const cache::ResponseCache::Footprint footprint = s.cache->footprint();
  if (!args.trace) {
    EndToEndInputs in;
    in.latency_ns = &last.load.latency_ns;
    in.requests = last.load.completed;
    in.workload_cpu_ns = last.after.cpu_ns - last.before.cpu_ns - last.load.thread_cpu_ns;
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
    in.requests = last.load.attempted;
    in.ctx_switches = last.after.ctx_switches - last.before.ctx_switches;
    in.generator_service_us = mean_us(last.load.service_ns);
    in.portal = last.portal;
    in.wire = last.wire;
    in.backend = last.backend;
    in.backend_calls = last.backend.calls;
    in.connections_accepted = accepted;
    in.cache = last.cache;
    in.trace = &trace;
    add_layer_metrics(report, in);
    report.latency_samples = last.load.latency_ns.size();
  }
  return report;
}

}  // namespace perfbench

#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <ctime>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "services/google/service.hpp"
#include "util/random.hpp"

namespace perfbench {

std::atomic<bool> g_tracing{false};

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

namespace {

std::uint64_t timeval_ns(const timeval& tv) {
  return static_cast<std::uint64_t>(tv.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(tv.tv_usec) * 1'000ull;
}

std::uint64_t rusage_cpu_ns(const rusage& ru) {
  return timeval_ns(ru.ru_utime) + timeval_ns(ru.ru_stime);
}

}  // namespace

std::uint64_t process_cpu_ns() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return rusage_cpu_ns(ru);
}

ProcSample ProcSample::take() {
  ProcSample s;
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  s.cpu_ns = rusage_cpu_ns(ru);
  s.ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);

  // First line of /proc/stat: cpu user nice system idle iowait irq softirq steal ...
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  if (label == "cpu") {
    for (int field = 0; field < 8; ++field) {
      std::uint64_t ticks = 0;
      if (!(stat >> ticks)) break;
      s.total_ticks += ticks;
      if (field == 7) s.steal_ticks = ticks;
    }
  }
  return s;
}

double steal_pct(const ProcSample& from, const ProcSample& to) {
  const std::uint64_t total = to.total_ticks - from.total_ticks;
  return total ? 100.0 * static_cast<double>(to.steal_ticks - from.steal_ticks) /
                     static_cast<double>(total)
               : 0.0;
}

double host_probe_us() {
  constexpr int kCalls = 400;
  const wsc::services::google::GoogleBackend backend;
  std::vector<std::string> queries;
  for (int i = 0; i < 50; ++i) queries.push_back(make_query("probe", 0, i));
  // Summing the result sizes keeps every call's result in use.
  std::size_t results = 0;
  const std::uint64_t t0 = thread_cpu_ns();
  for (int i = 0; i < kCalls; ++i)
    results += backend.search(queries[i % queries.size()], 0, 10).resultElements.size();
  const std::uint64_t spent = thread_cpu_ns() - t0;
  if (results == 0) throw std::runtime_error("host probe: the backend returned no results");
  return static_cast<double>(spent) / 1e3 / kCalls;
}

double rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kib = 0;
      in >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

std::uint64_t quantile(std::vector<std::uint64_t> samples, double q) {
  if (samples.empty()) return 0;
  const std::size_t k = std::min(
      samples.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(samples.size() - 1)));
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(k),
                   samples.end());
  return samples[k];
}

wsc::http::Handler timed_handler(wsc::http::Handler inner, LayerTimer& timer) {
  return [inner = std::move(inner), &timer](const wsc::http::Request& request) {
    LayerTimer::Span span(timer);
    return inner(request);
  };
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double uniform(std::uint64_t seed, std::uint64_t index) {
  return static_cast<double>(mix64(seed ^ mix64(index)) >> 11) * 0x1.0p-53;
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

std::size_t Zipf::rank(double u) const {
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

std::string make_query(const char* tag, std::uint64_t seed, std::uint64_t index) {
  wsc::util::Rng rng(seed * 0x9e3779b97f4a7c15ull + index);
  return std::string(tag) + std::to_string(seed) + "x" + std::to_string(index) +
         rng.next_word(4, 9);
}

namespace {

double per(double num, double den) { return den > 0 ? num / den : 0.0; }

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Traced calls with one outcome, summed over operations and
/// representations.
struct Totals {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::array<std::uint64_t, wsc::obs::kStageCount> stage_ns{};

  double mean_ns() const {
    return per(static_cast<double>(total_ns), static_cast<double>(calls));
  }
  double stage_mean_ns(wsc::obs::Stage s) const {
    return per(static_cast<double>(stage_ns[static_cast<std::size_t>(s)]),
               static_cast<double>(calls));
  }
  double stage_sum_mean_ns() const {
    std::uint64_t sum = 0;
    for (std::uint64_t ns : stage_ns) sum += ns;
    return per(static_cast<double>(sum), static_cast<double>(calls));
  }
};

Totals sum_outcome(const wsc::obs::TraceSummary* trace,
                   std::optional<wsc::obs::Outcome> outcome) {
  Totals t;
  if (!trace) return t;
  for (const wsc::obs::GroupSummary& g : trace->groups) {
    if (outcome && g.labels.outcome != *outcome) continue;
    t.calls += g.calls;
    t.total_ns += g.total_sum_ns;
    for (std::size_t i = 0; i < wsc::obs::kStageCount; ++i)
      t.stage_ns[i] += g.stages[i].sum_ns;
  }
  return t;
}

}  // namespace

wsc::cache::StatsSnapshot stats_delta(const wsc::cache::StatsSnapshot& a,
                                      const wsc::cache::StatsSnapshot& b) {
  wsc::cache::StatsSnapshot d;
  d.hits = b.hits - a.hits;
  d.misses = b.misses - a.misses;
  d.stores = b.stores - a.stores;
  d.evictions = b.evictions - a.evictions;
  d.clock_sweeps = b.clock_sweeps - a.clock_sweeps;
  d.entries = b.entries;
  d.bytes = b.bytes;
  return d;
}

void add_end_to_end_metrics(Report& r, const EndToEndInputs& in) {
  r.latency_samples = in.latency_ns->size();
  r.p99_ms = static_cast<double>(quantile(*in.latency_ns, 0.99)) / 1e6;
  r.add("setup_s", median(r.setup_cpu_s), "s");
  r.add("p50_ms", static_cast<double>(quantile(*in.latency_ns, 0.50)) / 1e6, "ms");
  r.add("cpu_us_per_req",
        per(static_cast<double>(in.workload_cpu_ns) / 1e3,
            static_cast<double>(in.requests)),
        "us");
  r.add("cache_bytes_per_entry",
        per(static_cast<double>(in.cache_bytes),
            static_cast<double>(in.cache_entries)),
        "B");
  r.add("rss_mb", in.rss_mib, "MiB");
}

void add_layer_metrics(Report& r, const LayerInputs& in) {
  using wsc::obs::Outcome;
  using wsc::obs::Stage;
  const double req = static_cast<double>(in.requests);
  const wsc::cache::StatsSnapshot& c = in.cache;

  // http: what the generator saw beyond the portal handler's own time.
  r.add("http.overhead_us",
        in.generator_service_us > 0 ? in.generator_service_us - in.portal.mean_us()
                                    : 0.0,
        "us");
  r.add("http.ctx_switches_per_req",
        per(static_cast<double>(in.ctx_switches), req), "count");
  r.add("http.connections_accepted",
        static_cast<double>(in.connections_accepted), "count");

  // portal: handler time, and what is left after the stub call.
  const Totals all = sum_outcome(in.trace, std::nullopt);
  r.add("portal.handler_us", in.portal.mean_us(), "us");
  r.add("portal.render_self_us",
        in.portal.timed
            ? in.portal.mean_us() -
                  per(static_cast<double>(all.total_ns) / 1e3,
                      static_cast<double>(in.portal.timed))
            : 0.0,
        "us");

  // core, hit path.
  const Totals hit = sum_outcome(in.trace, Outcome::Hit);
  r.add("core.hit_us", hit.mean_ns() / 1e3, "us");
  r.add("core.keygen_ns", hit.stage_mean_ns(Stage::KeyGen), "ns");
  r.add("core.lookup_ns", hit.stage_mean_ns(Stage::Lookup), "ns");
  r.add("core.retrieve_ns", hit.stage_mean_ns(Stage::Retrieve), "ns");
  r.add("core.glue_ns", hit.calls ? hit.mean_ns() - hit.stage_sum_mean_ns() : 0.0,
        "ns");
  r.add("core.stage_coverage", per(hit.stage_sum_mean_ns(), hit.mean_ns()),
        "ratio");

  // core, miss path.
  const Totals miss = sum_outcome(in.trace, Outcome::Miss);
  r.add("core.miss_us", miss.mean_ns() / 1e3, "us");
  r.add("core.store_us", miss.stage_mean_ns(Stage::Store) / 1e3, "us");
  r.add("core.evictions_per_store",
        per(static_cast<double>(c.evictions), static_cast<double>(c.stores)),
        "count");
  r.add("core.clock_sweeps_per_eviction",
        per(static_cast<double>(c.clock_sweeps), static_cast<double>(c.evictions)),
        "count");

  // core, both ways.
  r.add("core.hit_ratio", c.hit_ratio(), "ratio");

  // transport, soap, xml.
  r.add("transport.wire_us", in.wire.mean_us(), "us");
  r.add("transport.hop_us",
        in.wire.timed ? in.wire.mean_us() - in.backend.mean_us() : 0.0, "us");
  r.add("transport.calls_per_req", per(static_cast<double>(in.wire.calls), req),
        "calls");
  r.add("soap.server_us", in.backend.mean_us(), "us");
  r.add("soap.deserialize_us", miss.stage_mean_ns(Stage::Deserialize) / 1e3,
        "us");
  r.add("xml.parse_us", miss.stage_mean_ns(Stage::Parse) / 1e3, "us");

  // obs: what the trace itself costs.
  r.add("obs.trace_overhead_pct",
        per(100.0 * (in.cpu_us_traced - in.cpu_us_untraced), in.cpu_us_untraced),
        "%");

  // Run health and outcome counts.
  r.add("loadgen.late_p99_us", r.late_p99_us, "us");
  r.add("loadgen.backlog_max", static_cast<double>(r.backlog_max), "count");
  r.add("proc.steal_pct", r.steal_pct, "%");
  r.add("backend_calls_per_req",
        per(static_cast<double>(in.backend_calls), req), "calls");
  r.add("error_ratio",
        per(static_cast<double>(r.failed), static_cast<double>(r.attempted)),
        "ratio");
}

}  // namespace perfbench

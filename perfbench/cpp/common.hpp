// Shared pieces of the benchmark: command-line arguments, the result
// record, process counters, layer timing from outside the program, and
// the seeded input distributions.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/stats.hpp"
#include "http/server.hpp"
#include "obs/trace.hpp"
#include "transport/transport.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything one run reports.  `metrics` holds the end-to-end metrics on
/// an untraced run and the per-layer metrics on a traced one; the rest is
/// the stamp printed beside them.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  // wrong answers, broken count identities
  std::vector<Metric> metrics;

  // Stamp: what the run looked like, so a noisy result can be traced to
  // the host rather than to the code.
  double offered_rps = 0;  // 0 for closed-loop workloads
  std::size_t connections_or_threads = 0;
  std::uint64_t latency_samples = 0;
  double p99_ms = 0;  // stamped, not a gated metric: it does not repeat
  double steal_pct = 0;
  std::uint64_t ctx_switches = 0;
  double late_p50_us = 0;
  double late_p99_us = 0;
  std::size_t backlog_max = 0;
  bool backlog_growing = false;
  double generator_cpu_us_per_req = 0;  // the load generator's own thread
  std::vector<double> host_probe_us;    // host_probe_us() before and after measuring
  std::vector<double> setup_cpu_s;   // every set-up repetition: process CPU
  std::vector<double> setup_wall_s;  // and wall clock
  std::vector<std::pair<std::string, std::string>> representations;
  std::uint64_t adaptive_switches = 0;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void problem(std::string what) { problems.push_back(std::move(what)); }
};

Report run_portal_workload(const Args& args);
Report run_stub_workload(const Args& args);

// ---------------------------------------------------------------- clocks

std::uint64_t now_ns();
/// CPU time of the calling thread (CLOCK_THREAD_CPUTIME_ID).
std::uint64_t thread_cpu_ns();
/// CPU time of the whole process, every thread (getrusage user + system).
std::uint64_t process_cpu_ns();

/// Set-up is timed in two groups of repetitions, one before measuring and
/// one after, each spaced out.  A shared host slows down for stretches of
/// a few seconds; spread over the run, only some repetitions fall in one.
constexpr int kSetupRuns = 8;  // per group
constexpr auto kSetupGap = std::chrono::milliseconds(250);

/// Builds a stack `runs` times over, timing each build, and returns the
/// last one.  The stack built before is torn down outside the timing.
template <class Build>
auto repeat_setup(int runs, Build build, Report& report) {
  decltype(build()) stack;
  for (int i = 0; i < runs; ++i) {
    stack.reset();
    std::this_thread::sleep_for(kSetupGap);
    const std::uint64_t cpu0 = process_cpu_ns();
    const std::uint64_t wall0 = now_ns();
    stack = build();
    report.setup_wall_s.push_back(static_cast<double>(now_ns() - wall0) / 1e9);
    report.setup_cpu_s.push_back(static_cast<double>(process_cpu_ns() - cpu0) / 1e9);
  }
  return stack;
}

/// Process-wide counters read at the edges of a measured phase.
struct ProcSample {
  std::uint64_t cpu_ns = 0;        // getrusage user + system
  std::uint64_t ctx_switches = 0;  // voluntary + involuntary
  std::uint64_t steal_ticks = 0;   // /proc/stat, all CPUs
  std::uint64_t total_ticks = 0;
  static ProcSample take();
};
double steal_pct(const ProcSample& from, const ProcSample& to);
/// Thread CPU, in us, of one GoogleBackend::search call averaged over a
/// fixed set of queries: the host's speed at the moment, independent of
/// the code under test.  Taken before and after measuring, it shows when
/// a run fell in a slow stretch of a shared host.
double host_probe_us();
double rss_mib();

/// Exact quantile of a sample set (copies; q in [0, 1]).
std::uint64_t quantile(std::vector<std::uint64_t> samples, double q);

// ------------------------------------------------------------ layer timing

/// Set while the traced phase runs.  Layer timers always count calls (the
/// count identities need them) but read the clock only while it is set.
extern std::atomic<bool> g_tracing;

/// Calls into one layer's public entry point, and their time while
/// tracing.
class LayerTimer {
 public:
  struct Sample {
    std::uint64_t calls = 0;
    std::uint64_t timed = 0;
    std::uint64_t sum_ns = 0;
    Sample operator-(const Sample& o) const {
      return {calls - o.calls, timed - o.timed, sum_ns - o.sum_ns};
    }
    double mean_us() const {
      return timed ? static_cast<double>(sum_ns) / static_cast<double>(timed) / 1e3
                   : 0.0;
    }
  };

  /// RAII span around one call: counted when it ends, normally or not.
  class Span {
   public:
    explicit Span(LayerTimer& timer)
        : timer_(timer),
          start_(g_tracing.load(std::memory_order_relaxed) ? now_ns() : 0) {}
    ~Span() { timer_.finish(start_); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    LayerTimer& timer_;
    std::uint64_t start_;
  };

  Sample sample() const {
    return {calls_.load(), timed_.load(), sum_ns_.load()};
  }

 private:
  void finish(std::uint64_t start) {
    if (start != 0) {
      sum_ns_.fetch_add(now_ns() - start, std::memory_order_relaxed);
      timed_.fetch_add(1, std::memory_order_relaxed);
    }
    calls_.fetch_add(1, std::memory_order_relaxed);
  }

  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> timed_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
};

// ------------------------------------------------------------ metric sets

/// Inputs of the end-to-end metrics (untraced measured phase).
struct EndToEndInputs {
  const std::vector<std::uint64_t>* latency_ns = nullptr;
  std::uint64_t requests = 0;       // completed in the measured phase
  std::uint64_t workload_cpu_ns = 0;  // process CPU minus the generator's own
  std::uint64_t cache_entries = 0;
  std::uint64_t cache_bytes = 0;
  double rss_mib = 0;  // read while the measured stack is still up
};
/// setup_s is the median of every repetition in `report`.
void add_end_to_end_metrics(Report& report, const EndToEndInputs& in);

/// Inputs of the per-layer metrics (traced phase, plus the untraced one
/// before it for the tracing overhead).  Layers a workload bypasses keep
/// their zero defaults.
struct LayerInputs {
  double cpu_us_untraced = 0;
  double cpu_us_traced = 0;
  std::uint64_t requests = 0;      // attempted in the traced phase
  std::uint64_t ctx_switches = 0;  // process, traced phase
  double generator_service_us = 0;  // mean answer time from the actual send
  LayerTimer::Sample portal, wire, backend;  // traced-phase deltas
  std::uint64_t backend_calls = 0;  // calls the backend served, traced phase
  std::uint64_t connections_accepted = 0;
  wsc::cache::StatsSnapshot cache;  // traced-phase deltas
  const wsc::obs::TraceSummary* trace = nullptr;
};
/// Also reads the run-health and outcome fields already in `report`.
void add_layer_metrics(Report& report, const LayerInputs& in);

/// b - a, field by field, for the counters the metrics read.
wsc::cache::StatsSnapshot stats_delta(const wsc::cache::StatsSnapshot& a,
                                      const wsc::cache::StatsSnapshot& b);

/// An http::Handler that runs `inner` inside a span of `timer`.
wsc::http::Handler timed_handler(wsc::http::Handler inner, LayerTimer& timer);

/// Transport decorator: every post() is a span of `timer`.
class TimedTransport final : public wsc::transport::Transport {
 public:
  TimedTransport(std::shared_ptr<wsc::transport::Transport> inner,
                 LayerTimer& timer)
      : inner_(std::move(inner)), timer_(timer) {}

  wsc::transport::WireResponse post(
      const wsc::util::Uri& endpoint,
      const wsc::transport::WireRequest& request) override {
    LayerTimer::Span span(timer_);
    return inner_->post(endpoint, request);
  }
  using Transport::post;

 private:
  std::shared_ptr<wsc::transport::Transport> inner_;
  LayerTimer& timer_;
};

// ------------------------------------------------------------------ inputs

/// SplitMix64 finalizer: a well-mixed 64-bit hash of x.
std::uint64_t mix64(std::uint64_t x);
/// A uniform draw in [0, 1) fixed by (seed, index).
double uniform(std::uint64_t seed, std::uint64_t index);

/// Zipf(s) over ranks [0, n): rank 0 is the most popular.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  /// Map a uniform draw u in [0, 1) to a rank.
  std::size_t rank(double u) const;

 private:
  std::vector<double> cdf_;
};

/// A query string unique to (tag, seed, index): letters and digits only,
/// so it needs no URL or XML escaping.
std::string make_query(const char* tag, std::uint64_t seed, std::uint64_t index);

}  // namespace perfbench

// MetricsRegistry: named instruments over the system's existing telemetry
// (CacheStats counters, RetryCounters, util::Histogram distributions, the
// tracer's per-stage aggregates), exported as Prometheus text exposition.
//
// Instrument kinds:
//   * Counter     — an owned monotonic windowed counter (exact lifetime
//                   total + rolling-window view, see obs/windowed.hpp);
//   * Summary     — an owned windowed util::Histogram pair, exported as a
//                   Prometheus summary (quantiles + _sum + _count);
//   * counter_fn / gauge_fn — read-at-scrape callbacks, how existing
//                   counter structs join without being rewritten;
//   * collector   — a callback emitting many related samples from ONE
//                   consistent snapshot (e.g. a whole StatsSnapshot), so a
//                   scrape never publishes torn values.
//
// Owned Counter/Summary families additionally export a windowed twin
// family per scrape — "<name minus _total>_last60s" (gauge) for counters
// and "<name>_last60s" (summary) for summaries — so dashboards get the
// rolling last-minute view next to the lifetime totals.  Callback and
// collector samples are read at scrape time from external state and have
// no history to window, so they export no twin.
//
// Exports are deterministic: families sorted by name, samples in
// registration/emission order — golden-file tests compare exact text.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/windowed.hpp"
#include "util/histogram.hpp"

namespace wsc::obs {

/// Label set as (name, value) pairs, exported in the given order.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// One exported value; collectors emit these.  `name` is the full sample
/// name (a family name, or family + "_sum"/"_count" for summaries).
struct Sample {
  std::string name;
  Labels labels;
  double value = 0;
};

/// The registry's instruments are the windowed ones; the old lifetime-only
/// API (inc/value, record/snapshot) is a strict subset of theirs.
using Counter = WindowedCounter;
using Summary = WindowedSummary;

class MetricsRegistry {
 public:
  /// Prometheus metric kinds as exported in `# TYPE` lines.
  enum class Kind { Counter, Gauge, Summary };

  /// `window` configures the rolling view of owned instruments (bucket
  /// count/width and, for tests, an injectable time source).
  explicit MetricsRegistry(WindowOptions window = {});
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Owned instruments.  Registering the same (name, labels) twice returns
  /// the existing instrument; the same name with a different kind throws.
  Counter& counter(const std::string& name, const std::string& help,
                   Labels labels = {});
  Summary& summary(const std::string& name, const std::string& help,
                   Labels labels = {}, int sub_bucket_bits = 5);

  /// Read-at-scrape callbacks.
  void counter_fn(const std::string& name, const std::string& help,
                  Labels labels, std::function<std::uint64_t()> fn);
  void gauge_fn(const std::string& name, const std::string& help,
                Labels labels, std::function<double()> fn);

  /// Declare family metadata for samples a collector will emit.
  void family(const std::string& name, const std::string& help, Kind kind);

  /// Multi-sample callback, invoked once per export.
  void collector(std::function<void(std::vector<Sample>&)> fn);

  /// Prometheus text exposition format (version 0.0.4).
  std::string prometheus_text() const;

  /// Quantiles exported for Summary instruments.
  static const std::vector<double>& summary_quantiles();

 private:
  struct Family {
    std::string name;
    std::string help;
    Kind kind = Kind::Gauge;
    // Owned instruments attached to this family (at most one kind used).
    struct OwnedCounter {
      Labels labels;
      std::unique_ptr<Counter> counter;
    };
    struct OwnedSummary {
      Labels labels;
      std::unique_ptr<Summary> summary;
    };
    struct Callback {
      Labels labels;
      std::function<double()> fn;
    };
    std::vector<OwnedCounter> counters;
    std::vector<OwnedSummary> summaries;
    std::vector<Callback> callbacks;
  };

  struct FamilyMeta {
    std::string name;
    std::string help;
    Kind kind = Kind::Gauge;
  };
  struct Export {
    FamilyMeta meta;
    std::vector<Sample> samples;
  };

  Family& family_locked(const std::string& name, const std::string& help,
                        Kind kind);
  /// All families' samples, evaluated now; sorted by family name.
  std::vector<Export> gather() const;
  /// "<name minus _total>" + "_last60s" (per the window span).
  std::string windowed_name(const std::string& family_name) const;

  WindowOptions window_;
  std::string window_suffix_;  // "_last60s" for the default window
  std::string window_label_;   // "60s"
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Family>> families_;
  std::vector<std::function<void(std::vector<Sample>&)>> collectors_;
};

/// Escape a label value for the exposition format (\\, \", \n).
std::string escape_label_value(std::string_view value);

/// True iff `name` is a valid Prometheus metric name.
bool valid_metric_name(std::string_view name);

class Tracer;  // trace.hpp

/// Export the tracer's per-(service, operation, representation, outcome)
/// aggregates: wsc_calls_total, wsc_call_ns (summary-ish sum/count), and
/// per-stage wsc_stage_ns_total / wsc_stage_calls_total.
void register_tracer_metrics(MetricsRegistry& registry, const Tracer& tracer);

}  // namespace wsc::obs

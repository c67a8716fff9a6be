#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/trace.hpp"
#include "util/error.hpp"

namespace wsc::obs {

namespace {

/// Fixed-point-ish value formatting: integers print without exponent or
/// decimals so counter exports (and golden tests) stay readable.
std::string format_value(double v) {
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      v >= -9.0e15 && v <= 9.0e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string render_labels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i) out += ",";
    out += labels[i].first;
    out += "=\"";
    out += escape_label_value(labels[i].second);
    out += "\"";
  }
  out += "}";
  return out;
}

const char* kind_name(MetricsRegistry::Kind kind) {
  switch (kind) {
    case MetricsRegistry::Kind::Counter: return "counter";
    case MetricsRegistry::Kind::Gauge: return "gauge";
    case MetricsRegistry::Kind::Summary: return "summary";
  }
  return "untyped";
}

bool valid_label_name(std::string_view name) {
  if (name.empty()) return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    char c = name[i];
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
              (i > 0 && c >= '0' && c <= '9');
    if (!ok) return false;
  }
  return true;
}

void check_name(const std::string& name) {
  if (!valid_metric_name(name))
    throw Error("invalid metric name '" + name + "'");
}

void check_labels(const Labels& labels) {
  for (const auto& [k, v] : labels) {
    (void)v;
    if (!valid_label_name(k))
      throw Error("invalid label name '" + k + "'");
  }
}

std::string quantile_string(double q) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", q);
  return buf;
}

}  // namespace

std::string escape_label_value(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    if (c == '\\') out += "\\\\";
    else if (c == '"') out += "\\\"";
    else if (c == '\n') out += "\\n";
    else out.push_back(c);
  }
  return out;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    char c = name[i];
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
              c == ':' || (i > 0 && c >= '0' && c <= '9');
    if (!ok) return false;
  }
  return true;
}

MetricsRegistry::MetricsRegistry(WindowOptions window)
    : window_(std::move(window)),
      window_suffix_("_last" + window_.span_label()),
      window_label_(window_.span_label()) {}

std::string MetricsRegistry::windowed_name(
    const std::string& family_name) const {
  constexpr std::string_view kTotal = "_total";
  if (family_name.size() > kTotal.size() &&
      family_name.compare(family_name.size() - kTotal.size(), kTotal.size(),
                          kTotal) == 0) {
    return family_name.substr(0, family_name.size() - kTotal.size()) +
           window_suffix_;
  }
  return family_name + window_suffix_;
}

MetricsRegistry::Family& MetricsRegistry::family_locked(
    const std::string& name, const std::string& help, Kind kind) {
  check_name(name);
  for (auto& family : families_) {
    if (family->name != name) continue;
    if (family->kind != kind)
      throw Error("metric family '" + name +
                  "' re-registered with a different kind");
    if (family->help.empty()) family->help = help;
    return *family;
  }
  auto family = std::make_unique<Family>();
  family->name = name;
  family->help = help;
  family->kind = kind;
  families_.push_back(std::move(family));
  return *families_.back();
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help, Labels labels) {
  check_labels(labels);
  std::lock_guard lock(mu_);
  Family& family = family_locked(name, help, Kind::Counter);
  for (auto& owned : family.counters) {
    if (owned.labels == labels) return *owned.counter;
  }
  family.counters.push_back(
      {std::move(labels), std::make_unique<Counter>(window_)});
  return *family.counters.back().counter;
}

Summary& MetricsRegistry::summary(const std::string& name,
                                  const std::string& help, Labels labels,
                                  int sub_bucket_bits) {
  check_labels(labels);
  std::lock_guard lock(mu_);
  Family& family = family_locked(name, help, Kind::Summary);
  for (auto& owned : family.summaries) {
    if (owned.labels == labels) return *owned.summary;
  }
  family.summaries.push_back(
      {std::move(labels), std::make_unique<Summary>(sub_bucket_bits, window_)});
  return *family.summaries.back().summary;
}

void MetricsRegistry::counter_fn(const std::string& name,
                                 const std::string& help, Labels labels,
                                 std::function<std::uint64_t()> fn) {
  check_labels(labels);
  std::lock_guard lock(mu_);
  Family& family = family_locked(name, help, Kind::Counter);
  family.callbacks.push_back(
      {std::move(labels), [fn = std::move(fn)] {
         return static_cast<double>(fn());
       }});
}

void MetricsRegistry::gauge_fn(const std::string& name,
                               const std::string& help, Labels labels,
                               std::function<double()> fn) {
  check_labels(labels);
  std::lock_guard lock(mu_);
  Family& family = family_locked(name, help, Kind::Gauge);
  family.callbacks.push_back({std::move(labels), std::move(fn)});
}

void MetricsRegistry::family(const std::string& name, const std::string& help,
                             Kind kind) {
  std::lock_guard lock(mu_);
  family_locked(name, help, kind);
}

void MetricsRegistry::collector(std::function<void(std::vector<Sample>&)> fn) {
  std::lock_guard lock(mu_);
  collectors_.push_back(std::move(fn));
}

const std::vector<double>& MetricsRegistry::summary_quantiles() {
  static const std::vector<double> quantiles = {0.5, 0.9, 0.99, 0.999};
  return quantiles;
}

std::vector<MetricsRegistry::Export> MetricsRegistry::gather() const {
  std::lock_guard lock(mu_);
  std::vector<Export> exports;
  auto find_export = [&exports](const std::string& name) -> Export* {
    for (Export& e : exports) {
      if (e.meta.name == name) return &e;
    }
    return nullptr;
  };

  // One consistent `now` for every windowed view in this scrape.
  const std::uint64_t now = window_.now ? window_.now() : now_ns();

  for (const auto& family : families_) {
    Export e;
    e.meta = {family->name, family->help, family->kind};
    // The windowed twin family, filled alongside the lifetime samples for
    // owned instruments (callback/collector samples have no history).
    Export w;
    const std::string wname = windowed_name(family->name);
    w.meta = {wname, family->help + " (" + window_label_ + " window)",
              family->kind == Kind::Counter ? Kind::Gauge : family->kind};
    for (const auto& owned : family->counters) {
      e.samples.push_back({family->name, owned.labels,
                           static_cast<double>(owned.counter->value())});
      w.samples.push_back({wname, owned.labels,
                           static_cast<double>(owned.counter->windowed(now))});
    }
    for (const auto& owned : family->summaries) {
      util::Histogram hist = owned.summary->snapshot();
      for (double q : summary_quantiles()) {
        Labels labels = owned.labels;
        labels.emplace_back("quantile", quantile_string(q));
        e.samples.push_back({family->name, std::move(labels),
                             static_cast<double>(hist.percentile(q))});
      }
      e.samples.push_back({family->name + "_sum", owned.labels,
                           static_cast<double>(hist.sum())});
      e.samples.push_back({family->name + "_count", owned.labels,
                           static_cast<double>(hist.count())});
      util::Histogram window = owned.summary->windowed_snapshot(now);
      for (double q : summary_quantiles()) {
        Labels labels = owned.labels;
        labels.emplace_back("quantile", quantile_string(q));
        w.samples.push_back({wname, std::move(labels),
                             static_cast<double>(window.percentile(q))});
      }
      w.samples.push_back({wname + "_sum", owned.labels,
                           static_cast<double>(window.sum())});
      w.samples.push_back({wname + "_count", owned.labels,
                           static_cast<double>(window.count())});
    }
    for (const auto& callback : family->callbacks) {
      e.samples.push_back({family->name, callback.labels, callback.fn()});
    }
    exports.push_back(std::move(e));
    if (!w.samples.empty()) exports.push_back(std::move(w));
  }

  std::vector<Sample> collected;
  for (const auto& fn : collectors_) fn(collected);
  for (Sample& sample : collected) {
    // Attach to the declared family; "_sum"/"_count" fold into a summary
    // family of the base name; undeclared names become implicit gauges.
    Export* target = find_export(sample.name);
    if (!target) {
      for (const char* suffix : {"_sum", "_count"}) {
        std::size_t len = std::string(suffix).size();
        if (sample.name.size() > len &&
            sample.name.compare(sample.name.size() - len, len, suffix) == 0) {
          Export* base =
              find_export(sample.name.substr(0, sample.name.size() - len));
          if (base && base->meta.kind == Kind::Summary) target = base;
        }
      }
    }
    if (!target) {
      exports.push_back({{sample.name, "", Kind::Gauge}, {}});
      target = &exports.back();
    }
    target->samples.push_back(std::move(sample));
  }

  std::sort(exports.begin(), exports.end(),
            [](const Export& a, const Export& b) {
              return a.meta.name < b.meta.name;
            });
  return exports;
}

std::string MetricsRegistry::prometheus_text() const {
  std::string out;
  for (const Export& e : gather()) {
    if (e.samples.empty()) continue;
    if (!e.meta.help.empty())
      out += "# HELP " + e.meta.name + " " + e.meta.help + "\n";
    out += "# TYPE " + e.meta.name + " " + kind_name(e.meta.kind) + "\n";
    for (const Sample& sample : e.samples) {
      out += sample.name + render_labels(sample.labels) + " " +
             format_value(sample.value) + "\n";
    }
  }
  return out;
}

void register_tracer_metrics(MetricsRegistry& registry, const Tracer& tracer) {
  registry.family("wsc_calls_total",
                  "Traced middleware calls by service/operation/"
                  "representation/outcome.",
                  MetricsRegistry::Kind::Counter);
  registry.family("wsc_call_ns",
                  "End-to-end traced call latency in nanoseconds.",
                  MetricsRegistry::Kind::Summary);
  registry.family("wsc_stage_ns_total",
                  "Nanoseconds attributed to each pipeline stage.",
                  MetricsRegistry::Kind::Counter);
  registry.family("wsc_stage_calls_total",
                  "Calls in which each pipeline stage ran.",
                  MetricsRegistry::Kind::Counter);
  registry.collector([&tracer](std::vector<Sample>& samples) {
    TraceSummary summary = tracer.snapshot();
    for (const GroupSummary& group : summary.groups) {
      Labels base = {{"service", group.labels.service},
                     {"operation", group.labels.operation},
                     {"representation", group.labels.representation},
                     {"outcome", std::string(outcome_name(group.labels.outcome))}};
      samples.push_back(
          {"wsc_calls_total", base, static_cast<double>(group.calls)});
      for (double q : MetricsRegistry::summary_quantiles()) {
        Labels labels = base;
        labels.emplace_back("quantile", quantile_string(q));
        samples.push_back(
            {"wsc_call_ns", std::move(labels),
             static_cast<double>(group.total_hist.percentile(q))});
      }
      samples.push_back({"wsc_call_ns_sum", base,
                         static_cast<double>(group.total_sum_ns)});
      samples.push_back(
          {"wsc_call_ns_count", base, static_cast<double>(group.calls)});
      for (std::size_t i = 0; i < kStageCount; ++i) {
        const StageAgg& agg = group.stages[i];
        if (agg.count == 0) continue;
        Labels labels = base;
        labels.emplace_back("stage",
                            std::string(stage_name(static_cast<Stage>(i))));
        Labels count_labels = labels;
        samples.push_back({"wsc_stage_ns_total", std::move(labels),
                           static_cast<double>(agg.sum_ns)});
        samples.push_back({"wsc_stage_calls_total", std::move(count_labels),
                           static_cast<double>(agg.count)});
      }
    }
  });
}

}  // namespace wsc::obs

// MetricsRegistry instruments, exporters (golden text), and the
// exposition-format validator.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include "obs/promcheck.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace wsc::obs {
namespace {

TEST(MetricsTest, CounterIncrementsAndDedupes) {
  MetricsRegistry registry;
  Counter& c = registry.counter("wsc_test_total", "help", {{"op", "a"}});
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5u);
  // Same (name, labels) returns the same instrument...
  Counter& again = registry.counter("wsc_test_total", "help", {{"op", "a"}});
  EXPECT_EQ(&again, &c);
  // ...different labels a distinct one.
  Counter& other = registry.counter("wsc_test_total", "help", {{"op", "b"}});
  EXPECT_NE(&other, &c);
  EXPECT_EQ(other.value(), 0u);
}

TEST(MetricsTest, KindMismatchThrows) {
  MetricsRegistry registry;
  registry.counter("wsc_test_total", "help");
  EXPECT_THROW(registry.summary("wsc_test_total", "help"), Error);
  EXPECT_THROW(registry.gauge_fn("wsc_test_total", "help", {}, [] { return 0.0; }),
               Error);
}

TEST(MetricsTest, InvalidNamesAndLabelsThrow) {
  MetricsRegistry registry;
  EXPECT_THROW(registry.counter("1bad", "help"), Error);
  EXPECT_THROW(registry.counter("has space", "help"), Error);
  EXPECT_THROW(registry.counter("wsc_ok", "help", {{"bad-label", "v"}}), Error);
  EXPECT_TRUE(valid_metric_name("wsc_ok:sub"));
  EXPECT_FALSE(valid_metric_name(""));
}

TEST(MetricsTest, EscapeLabelValue) {
  EXPECT_EQ(escape_label_value("plain"), "plain");
  EXPECT_EQ(escape_label_value("a\"b"), "a\\\"b");
  EXPECT_EQ(escape_label_value("a\\b"), "a\\\\b");
  EXPECT_EQ(escape_label_value("a\nb"), "a\\nb");
}

TEST(MetricsTest, PrometheusTextGolden) {
  MetricsRegistry registry;
  registry.counter("wsc_requests_total", "Requests served.", {{"op", "a"}})
      .inc(3);
  registry.gauge_fn("wsc_temperature", "Current reading.", {},
                    [] { return 21.5; });
  std::string text = registry.prometheus_text();
  // Owned counters export a windowed gauge twin ("_last60s") next to the
  // lifetime total; callback gauges have no history and export no twin.
  EXPECT_EQ(text,
            "# HELP wsc_requests_last60s Requests served. (60s window)\n"
            "# TYPE wsc_requests_last60s gauge\n"
            "wsc_requests_last60s{op=\"a\"} 3\n"
            "# HELP wsc_requests_total Requests served.\n"
            "# TYPE wsc_requests_total counter\n"
            "wsc_requests_total{op=\"a\"} 3\n"
            "# HELP wsc_temperature Current reading.\n"
            "# TYPE wsc_temperature gauge\n"
            "wsc_temperature 21.5\n");
  EXPECT_EQ(validate_prometheus_text(text), std::nullopt);
}

TEST(MetricsTest, SummaryExportsQuantilesSumCount) {
  MetricsRegistry registry;
  Summary& s = registry.summary("wsc_latency_ns", "Latency.", {});
  for (std::uint64_t v = 1; v <= 10; ++v) s.record(v);
  std::string text = registry.prometheus_text();
  EXPECT_NE(text.find("# TYPE wsc_latency_ns summary\n"), std::string::npos);
  EXPECT_NE(text.find("wsc_latency_ns{quantile=\"0.5\"} "), std::string::npos);
  EXPECT_NE(text.find("wsc_latency_ns{quantile=\"0.99\"} "), std::string::npos);
  EXPECT_NE(text.find("wsc_latency_ns{quantile=\"0.999\"} "),
            std::string::npos);
  EXPECT_NE(text.find("wsc_latency_ns_sum 55\n"), std::string::npos);
  EXPECT_NE(text.find("wsc_latency_ns_count 10\n"), std::string::npos);
  // The windowed twin summary carries the same fresh data right after
  // recording (everything is inside the current window).
  EXPECT_NE(text.find("# TYPE wsc_latency_ns_last60s summary\n"),
            std::string::npos);
  EXPECT_NE(text.find("wsc_latency_ns_last60s_count 10\n"), std::string::npos);
  EXPECT_EQ(validate_prometheus_text(text), std::nullopt);
}

TEST(MetricsTest, CollectorSamplesFoldIntoDeclaredFamilies) {
  MetricsRegistry registry;
  registry.family("wsc_snap_total", "Snapshot counter.",
                  MetricsRegistry::Kind::Counter);
  registry.family("wsc_snap_ns", "Snapshot summary.",
                  MetricsRegistry::Kind::Summary);
  registry.collector([](std::vector<Sample>& out) {
    out.push_back({"wsc_snap_total", {}, 7});
    out.push_back({"wsc_snap_ns_sum", {}, 100});
    out.push_back({"wsc_snap_ns_count", {}, 4});
    out.push_back({"wsc_undeclared", {}, 1});  // becomes an implicit gauge
  });
  std::string text = registry.prometheus_text();
  EXPECT_NE(text.find("# TYPE wsc_snap_total counter\nwsc_snap_total 7\n"),
            std::string::npos);
  // _sum/_count attach to the declared summary family, not a new one.
  EXPECT_NE(text.find("# TYPE wsc_snap_ns summary\n"), std::string::npos);
  EXPECT_NE(text.find("wsc_snap_ns_sum 100\n"), std::string::npos);
  EXPECT_NE(text.find("wsc_snap_ns_count 4\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE wsc_undeclared gauge\nwsc_undeclared 1\n"),
            std::string::npos);
  EXPECT_EQ(validate_prometheus_text(text), std::nullopt);
}

TEST(MetricsTest, FamiliesSortedByName) {
  MetricsRegistry registry;
  registry.counter("wsc_zzz_total", "z").inc();
  registry.counter("wsc_aaa_total", "a").inc();
  std::string text = registry.prometheus_text();
  EXPECT_LT(text.find("wsc_aaa_total"), text.find("wsc_zzz_total"));
}

TEST(MetricsTest, TracerMetricsExport) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    CallTrace trace(tracer, "GoogleSearch", "doGoogleSearch");
    trace.set_representation("XML message");
    trace.set_outcome(Outcome::Hit);
    trace.add_stage(Stage::KeyGen, 100);
    trace.add_stage(Stage::Retrieve, 900);
  }
  MetricsRegistry registry;
  register_tracer_metrics(registry, tracer);
  std::string text = registry.prometheus_text();
  EXPECT_NE(
      text.find("wsc_calls_total{service=\"GoogleSearch\","
                "operation=\"doGoogleSearch\",representation=\"XML message\","
                "outcome=\"hit\"} 1\n"),
      std::string::npos);
  EXPECT_NE(text.find("wsc_stage_ns_total{"), std::string::npos);
  EXPECT_NE(text.find("stage=\"keygen\"} 100\n"), std::string::npos);
  EXPECT_NE(text.find("stage=\"retrieve\"} 900\n"), std::string::npos);
  EXPECT_NE(text.find("wsc_call_ns_count{"), std::string::npos);
  EXPECT_EQ(validate_prometheus_text(text), std::nullopt);
  // Stages that never ran are not exported.
  EXPECT_EQ(text.find("stage=\"backoff\""), std::string::npos);
}

TEST(PromcheckTest, AcceptsCanonicalOutput) {
  EXPECT_EQ(validate_prometheus_text("# HELP m help\n# TYPE m counter\nm 1\n"),
            std::nullopt);
  // An empty scrape is flagged — it almost always means a broken exporter.
  EXPECT_EQ(validate_prometheus_text(""), "empty exposition");
}

TEST(PromcheckTest, RejectsStructuralErrors) {
  // Missing trailing newline.
  EXPECT_NE(validate_prometheus_text("m 1"), std::nullopt);
  // Bad metric name.
  EXPECT_NE(validate_prometheus_text("1m 1\n"), std::nullopt);
  // Unknown TYPE.
  EXPECT_NE(validate_prometheus_text("# TYPE m widget\nm 1\n"), std::nullopt);
  // Duplicate TYPE line.
  EXPECT_NE(
      validate_prometheus_text("# TYPE m counter\n# TYPE m counter\nm 1\n"),
      std::nullopt);
  // Unquoted label value.
  EXPECT_NE(validate_prometheus_text("m{a=b} 1\n"), std::nullopt);
  // Bad escape in a label value.
  EXPECT_NE(validate_prometheus_text("m{a=\"\\q\"} 1\n"), std::nullopt);
  // Non-numeric value.
  EXPECT_NE(validate_prometheus_text("m pancake\n"), std::nullopt);
  // Duplicate series.
  EXPECT_NE(validate_prometheus_text("m 1\nm 2\n"), std::nullopt);
}

TEST(PromcheckTest, AcceptsSpecialValuesAndTimestamps) {
  EXPECT_EQ(validate_prometheus_text("m NaN\n"), std::nullopt);
  EXPECT_EQ(validate_prometheus_text("m +Inf\n"), std::nullopt);
  EXPECT_EQ(validate_prometheus_text("m 1 1712345678\n"), std::nullopt);
  EXPECT_NE(validate_prometheus_text("m 1 not_a_ts\n"), std::nullopt);
}

}  // namespace
}  // namespace wsc::obs

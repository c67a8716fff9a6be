// perfbench: one command runs one workload, checks every answer, and
// prints every metric by name with its unit.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Standard output ends with two JSON lines: a stamp (host fingerprint,
// noise diagnostics, serving representations) and the result
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1).  The exit code is 0 only when every answer was right and
// every count identity held.
#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "common.hpp"
#include "util/json.hpp"

namespace {

using perfbench::Args;
using perfbench::Report;

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string numbers(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) out += (i ? ", " : "") + number(values[i]);
  return out + "]";
}

/// The source revision measured, as run.py found it with `git describe`.
std::string git_describe() {
  const char* describe = std::getenv("PERFBENCH_GIT_DESCRIBE");
  return describe && *describe ? describe : "unknown";
}

std::string quoted(const std::string& s) {
  std::string out(1, '"');
  out += wsc::util::json::escape(s);
  out += '"';
  return out;
}

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
        have_seconds = args.seconds > 0;
      } else if (flag == "--trace") {
        args.trace = value == "1";
        have_trace = value == "0" || value == "1";
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds && have_trace;
}

void print_stamp(const Args& args, const Report& r) {
  std::string out = "{\"record\": \"perfbench-stamp\", \"workload\": " + quoted(args.workload) +
                    ", \"seed\": " + std::to_string(args.seed) +
                    ", \"seconds\": " + number(args.seconds) +
                    ", \"trace\": " + (args.trace ? "1" : "0");
  out += ", \"host\": {\"nproc\": " + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"compiler\": " + quoted(__VERSION__) +
         ", \"build_type\": " + quoted(PERFBENCH_BUILD_TYPE) +
         ", \"git_describe\": " + quoted(git_describe()) + "}";
  out += ", \"load\": {\"offered_rps\": " + number(r.offered_rps) +
         ", \"connections_or_threads\": " + std::to_string(r.connections_or_threads) +
         ", \"latency_samples\": " + std::to_string(r.latency_samples) +
         ", \"p99_ms\": " + number(r.p99_ms) +
         ", \"samples_beyond_p99\": " + std::to_string(r.latency_samples / 100) + "}";
  out += ", \"noise\": {\"proc.steal_pct\": " + number(r.steal_pct) +
         ", \"ctx_switches\": " + std::to_string(r.ctx_switches) +
         ", \"loadgen.late_p50_us\": " + number(r.late_p50_us) +
         ", \"loadgen.late_p99_us\": " + number(r.late_p99_us) +
         ", \"loadgen.backlog_max\": " + std::to_string(r.backlog_max) +
         ", \"loadgen.cpu_us_per_req\": " + number(r.generator_cpu_us_per_req) +
         ", \"loadgen.backlog_growing\": " + (r.backlog_growing ? "true" : "false") +
         ", \"host_probe_us\": ";
  out += numbers(r.host_probe_us) + "}";
  out += ", \"setup_cpu_s\": " + numbers(r.setup_cpu_s) +
         ", \"setup_wall_s\": " + numbers(r.setup_wall_s);
  out += ", \"representations\": {";
  for (std::size_t i = 0; i < r.representations.size(); ++i)
    out += (i ? ", " : "") + quoted(r.representations[i].first) + ": " +
           quoted(r.representations[i].second);
  out += "}, \"core.adaptive_switches\": " + std::to_string(r.adaptive_switches);
  out += ", \"problems\": [";
  for (std::size_t i = 0; i < r.problems.size(); ++i)
    out += (i ? ", " : "") + quoted(r.problems[i]);
  out += "]}";
  std::printf("%s\n", out.c_str());
}

void print_result(const Report& r, bool correct) {
  for (const perfbench::Metric& m : r.metrics)
    std::fprintf(stderr, "  %-34s %16s %s\n", m.name.c_str(), number(m.value).c_str(),
                 m.unit.c_str());
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    out += (i ? ", " : "") + quoted(m.name) + ": {\"value\": " + number(m.value) +
           ", \"unit\": " + quoted(m.unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <hot_portal|cold_portal|stub_hits> "
                 "--seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  try {
    const Report report = args.workload == "stub_hits" ? perfbench::run_stub_workload(args)
                                                       : perfbench::run_portal_workload(args);
    const bool correct = report.problems.empty() && report.failed == 0 && report.attempted > 0;
    for (const std::string& p : report.problems) std::fprintf(stderr, "perfbench: %s\n", p.c_str());
    print_stamp(args, report);
    print_result(report, correct);
    std::fflush(stdout);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

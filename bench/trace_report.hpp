// --trace support for the reproduction benchmarks: print the tracer's
// per-(operation, representation, outcome) stage breakdown, the paper's
// Tables 6/7 decomposition measured live inside the middleware instead of
// reconstructed from separate micro-benchmarks.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "obs/trace.hpp"

namespace wsc::bench {

inline bool trace_requested(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--trace") == 0) return true;
  return false;
}

/// Print per-group mean stage costs (ns/call) next to the traced
/// end-to-end mean, with the per-group gap between the two.  Returns the
/// AGGREGATE deviation |sum(stage_ns) - sum(total_ns)| / sum(total_ns)
/// across all printed groups (0 when nothing was traced): the untraced
/// residue is per-call glue of roughly constant cost, so the aggregate —
/// dominated by the expensive cells — is the honest figure of merit.
inline double print_trace_breakdown(const obs::TraceSummary& summary,
                                    std::uint64_t min_calls = 1) {
  std::printf("\n--trace: mean per-stage breakdown (ns/call)\n");
  std::printf("%-22s %-19s %-12s %8s", "operation", "representation",
              "outcome", "calls");
  for (std::size_t i = 0; i < obs::kStageCount; ++i)
    std::printf(" %11s",
                std::string(obs::stage_name(static_cast<obs::Stage>(i))).c_str());
  std::printf(" %12s %12s %7s\n", "stage_sum", "total", "delta%");

  double grand_total = 0, grand_stages = 0;
  for (const obs::GroupSummary& g : summary.groups) {
    if (g.calls < min_calls) continue;
    const double total = g.mean_total_ns();
    const double stage_sum = g.mean_stage_sum_ns();
    std::printf("%-22s %-19s %-12s %8llu", g.labels.operation.c_str(),
                g.labels.representation.empty()
                    ? "-"
                    : g.labels.representation.c_str(),
                std::string(obs::outcome_name(g.labels.outcome)).c_str(),
                static_cast<unsigned long long>(g.calls));
    for (std::size_t i = 0; i < obs::kStageCount; ++i)
      std::printf(" %11.0f", g.stages[i].mean_ns());
    std::printf(" %12.0f %12.0f %6.1f%%\n", stage_sum, total,
                total > 0 ? (stage_sum - total) / total * 100.0 : 0.0);
    grand_total += static_cast<double>(g.total_sum_ns);
    for (const obs::StageAgg& s : g.stages)
      grand_stages += static_cast<double>(s.sum_ns);
  }
  if (summary.dropped_exemplars > 0)
    std::printf("(%llu exemplars dropped from the ring)\n",
                static_cast<unsigned long long>(summary.dropped_exemplars));
  if (grand_total <= 0) return 0.0;
  const double deviation = std::fabs(grand_stages - grand_total) / grand_total;
  std::printf(
      "aggregate: traced stages cover %.2f%% of end-to-end time "
      "(deviation %.2f%%)\n",
      grand_stages / grand_total * 100.0, deviation * 100.0);
  return deviation;
}

}  // namespace wsc::bench

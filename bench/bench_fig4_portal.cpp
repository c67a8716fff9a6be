// Figure 4 — the same sweep with 25 concurrent clients (paper: portal CPU
// >95%).  Under saturation the processing savings dominate: the paper
// reports ~5x throughput and ~8x shorter response times for application-
// object caching at 100% hits.
#include "bench/portal_figure.hpp"

int main(int argc, char** argv) {
  return wsc::bench::run_portal_figure(
      /*connections=*/25, wsc::bench::quick_requested(argc, argv), "Figure 4",
      wsc::bench::trace_requested(argc, argv));
}

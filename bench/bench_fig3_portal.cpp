// Figure 3 — portal throughput and average response time vs cache-hit
// ratio, WITHOUT concurrent access (one closed-loop client; the paper's
// portal CPU sat at 50-70%).
//
// Paper endpoints at 100% hits vs 0%: XML ~1.5x, SAX events ~2x, object
// representations ~3x throughput (and the inverse for response time); the
// four object methods are near-indistinguishable because per-hit costs
// vanish against the rest of the request path.
#include "bench/portal_figure.hpp"

int main(int argc, char** argv) {
  return wsc::bench::run_portal_figure(
      /*connections=*/1, wsc::bench::quick_requested(argc, argv), "Figure 3",
      wsc::bench::trace_requested(argc, argv));
}

// Table 7 — processing times for cached data retrieval on a hit.
//
// Paper (us/hit):     Spelling   CachedPage  GoogleSearch
//   XML message          299        708         3244
//   SAX events            94        458         1986
//   Java serialization    14         46          276
//   Copy by reflection   n/a         19           46
//   Copy by clone        n/a        n/a            7
//   Pass by reference      1          1            1
//
// Expected shape: each row a multiple faster than the previous; SAX ~halves
// XML; serialization ~10x under XML; reflection >=3x under serialization;
// clone far cheaper than reflection; reference ~free.  "n/a" cells are
// representations whose limitations exclude the type (they are skipped
// here, as in the paper).
//
// Beyond the paper: the "SAX events sequence" row replays the arena-backed
// interned recording (zero allocations per replayed event).  Results are
// also written to BENCH_table7.json (row -> ns_per_op) for cross-PR
// tracking.
// With --trace the google-benchmark run is replaced by a live middleware
// pipeline (in-process transport + dummy Google service) driven through
// CachingServiceClient with the process tracer enabled; the per-stage
// breakdown (KeyGen/Lookup/Retrieve/... per representation and outcome) is
// printed and the aggregate stage sum is required to stay within 10% of
// the traced end-to-end latency.
#include <benchmark/benchmark.h>

#include "bench/common.hpp"
#include "bench/trace_report.hpp"
#include "core/client.hpp"
#include "core/representation.hpp"
#include "services/google/service.hpp"
#include "transport/inproc_transport.hpp"

namespace {

using namespace wsc;
using namespace wsc::bench;

const std::vector<OperationCase>& cases() {
  static const std::vector<OperationCase> c = google_cases();
  return c;
}

void BM_Retrieve(benchmark::State& state) {
  const OperationCase& op = cases()[static_cast<std::size_t>(state.range(0))];
  auto rep = static_cast<cache::Representation>(state.range(1));
  CaptureScratch scratch;
  cache::ResponseCapture capture = op.capture_copy(scratch);
  // Reference requires the §4.2.4 read-only declaration for mutable types;
  // the paper measured it for all three operations.
  std::unique_ptr<cache::CachedValue> value =
      cache::make_cached_value(rep, capture);
  for (auto _ : state) {
    reflect::Object out = value->retrieve();
    benchmark::DoNotOptimize(out);
  }
  state.SetLabel(std::string(cache::representation_name(rep)) + " / " + op.display);
}

void register_all() {
  using cache::Representation;
  for (int op = 0; op < 3; ++op) {
    for (Representation rep : cache::kConcreteRepresentations) {
      const auto& c = cases()[static_cast<std::size_t>(op)];
      // Table 7 n/a cells: skip representations the type cannot support
      // (read_only declared true, matching the paper's reference row).
      if (rep != Representation::Reference &&
          !cache::applicable(rep, c.response_object.type(), false))
        continue;
      std::string name = "Table7/Retrieve/" +
                         std::string(cache::representation_name(rep)) + "/" +
                         c.op_name;
      for (char& ch : name) {
        if (ch == ' ') ch = '_';
      }
      benchmark::RegisterBenchmark(name.c_str(), BM_Retrieve)
          ->Args({op, static_cast<int>(rep)});
    }
  }
}

/// Console output as usual, plus every run captured for BENCH_table7.json.
class JsonCapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration) continue;
      json_.add(run.benchmark_name(), "ns_per_op", run.GetAdjustedRealTime());
    }
  }
  const BenchJson& json() const { return json_; }

 private:
  BenchJson json_;
};

/// --trace: drive the full middleware per (representation, operation) cell
/// — one priming miss, then `iters` hits — and print the tracer's stage
/// decomposition.  Returns non-zero when the aggregate stage sum deviates
/// more than 10% from the traced end-to-end time.
int run_traced(int iters) {
  obs::Tracer& tracer = obs::tracer();
  tracer.reset();
  tracer.set_enabled(true);
  tracer.set_sample_every(64);

  auto backend = std::make_shared<services::google::GoogleBackend>();
  auto transport = std::make_shared<transport::InProcessTransport>();
  const std::string endpoint = "inproc://services/google";
  transport->bind(endpoint, services::google::make_google_service(backend));

  using cache::Representation;
  for (Representation rep : cache::kConcreteRepresentations) {
    for (const OperationCase& c : cases()) {
      // Same n/a-cell skip rule as the benchmark registration above.
      if (rep != Representation::Reference &&
          !cache::applicable(rep, c.response_object.type(), false))
        continue;
      cache::OperationPolicy p;
      p.cacheable = true;
      p.ttl = std::chrono::hours(1);
      p.representation = rep;
      if (rep == Representation::Reference) p.read_only = true;
      cache::CachingServiceClient::Options options;
      options.key_method = cache::KeyMethod::ToString;
      options.policy.set(c.op_name, p);
      cache::CachingServiceClient client(
          transport, services::google::google_description(), endpoint,
          std::make_shared<cache::ResponseCache>(), options);
      client.invoke(c.op_name, c.request.params);  // prime: the one miss
      for (int i = 0; i < iters; ++i)
        client.invoke(c.op_name, c.request.params);  // hits
    }
  }

  double deviation = print_trace_breakdown(tracer.snapshot(), /*min_calls=*/2);
  tracer.set_enabled(false);
  if (deviation > 0.10) {
    std::fprintf(stderr,
                 "--trace FAILED: stage sum deviates %.2f%% from end-to-end "
                 "latency (budget 10%%)\n",
                 deviation * 100.0);
    return 1;
  }
  std::printf("--trace OK: aggregate deviation %.2f%% (budget 10%%)\n",
              deviation * 100.0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (trace_requested(argc, argv)) return run_traced(/*iters=*/300);
  register_all();
  benchmark::Initialize(&argc, argv);
  JsonCapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  reporter.json().write_file("BENCH_table7.json");
  benchmark::Shutdown();
  return 0;
}

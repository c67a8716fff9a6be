// Ablation — how each representation's hit cost scales with response size.
//
// Table 7 shows one point per operation; this sweep varies the GoogleSearch
// result count (1..50 elements per page) and measures retrieval for every
// applicable representation.  Expected scaling: the XML and SAX forms grow
// with *document* size, serialization/reflection/clone with *object* size,
// and pass-by-reference stays flat — so the gap between rows of Table 7
// widens with payload, and the paper's representation ranking is stable
// across sizes (no crossovers).
#include <benchmark/benchmark.h>

#include "bench/common.hpp"
#include "core/representation.hpp"
#include "services/google/service.hpp"

namespace {

using namespace wsc;
using namespace wsc::bench;

OperationCase case_with_results(std::int32_t results) {
  services::google::GoogleBackend::Config config;
  config.results_per_page = results;
  services::google::GoogleBackend backend(config);

  soap::RpcRequest request;
  request.endpoint = "http://api.google.com/search/beta2";
  request.ns = "urn:GoogleSearch";
  request.operation = "doGoogleSearch";
  // Parameters are irrelevant to retrieval cost; reuse the shared shape.
  request.params = google_cases()[2].request.params;

  return make_case("Google Search", "doGoogleSearch", std::move(request),
                   reflect::Object::make(
                       backend.search("scaling sweep", 0, results)));
}

const OperationCase& case_for(std::int64_t results) {
  static std::map<std::int64_t, OperationCase> cases;
  auto it = cases.find(results);
  if (it == cases.end())
    it = cases.emplace(results, case_with_results(
                                    static_cast<std::int32_t>(results))).first;
  return it->second;
}

void BM_Scaling(benchmark::State& state) {
  const OperationCase& c = case_for(state.range(0));
  auto rep = static_cast<cache::Representation>(state.range(1));
  CaptureScratch scratch;
  cache::ResponseCapture capture = c.capture_copy(scratch);
  std::unique_ptr<cache::CachedValue> value =
      cache::make_cached_value(rep, capture);
  for (auto _ : state) {
    reflect::Object out = value->retrieve();
    benchmark::DoNotOptimize(out);
  }
  state.SetLabel(std::string(cache::representation_name(rep)) + " / " +
                 std::to_string(state.range(0)) + " results (" +
                 std::to_string(c.response_xml.size()) + " B xml)");
}

}  // namespace

int main(int argc, char** argv) {
  using cache::Representation;
  for (std::int64_t results : {1, 5, 10, 20, 50}) {
    for (Representation rep : cache::kConcreteRepresentations) {
      std::string tag(cache::representation_name(rep));
      for (char& ch : tag) {
        if (ch == ' ') ch = '_';
      }
      std::string name = "Ablation/Scaling/" + tag + "/results:" +
                         std::to_string(results);
      benchmark::RegisterBenchmark(name.c_str(), BM_Scaling)
          ->Args({results, static_cast<int>(rep)});
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

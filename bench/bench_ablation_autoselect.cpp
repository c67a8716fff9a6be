// Ablation (§6) — does the runtime auto-configuration actually pick the
// per-type optimum?  For each Google operation, measures hit-retrieval
// cost under Auto vs. every fixed representation.  Auto should track the
// fastest applicable method: Reference for the String result, reflection
// (or clone with prefer_clone) for byte[] and GoogleSearchResult.
#include <benchmark/benchmark.h>

#include "bench/common.hpp"
#include "core/representation.hpp"

namespace {

using namespace wsc;
using namespace wsc::bench;

const std::vector<OperationCase>& cases() {
  static const std::vector<OperationCase> c = google_cases();
  return c;
}

enum Mode : int { kAuto = -1, kAutoPreferClone = -2 };

void BM_AutoVsFixed(benchmark::State& state) {
  const OperationCase& op = cases()[static_cast<std::size_t>(state.range(0))];
  int mode = static_cast<int>(state.range(1));
  cache::Representation rep;
  std::string label;
  if (mode == kAuto || mode == kAutoPreferClone) {
    // §6: classification from the static type, read_only=false.
    rep = cache::auto_select(op.response_object.type(), false,
                             mode == kAutoPreferClone);
    label = std::string(mode == kAuto ? "Auto" : "Auto+clone") + " -> " +
            std::string(cache::representation_name(rep));
  } else {
    rep = static_cast<cache::Representation>(mode);
    label = std::string(cache::representation_name(rep));
  }
  CaptureScratch scratch;
  cache::ResponseCapture capture = op.capture_copy(scratch);
  std::unique_ptr<cache::CachedValue> value =
      cache::make_cached_value(rep, capture);
  for (auto _ : state) {
    reflect::Object out = value->retrieve();
    benchmark::DoNotOptimize(out);
  }
  state.SetLabel(label + " / " + op.display);
}

void register_all() {
  using cache::Representation;
  for (int op = 0; op < 3; ++op) {
    const auto& c = cases()[static_cast<std::size_t>(op)];
    auto add = [&](const std::string& tag, int mode) {
      std::string name = "Ablation/AutoSelect/" + tag + "/" + c.op_name;
      benchmark::RegisterBenchmark(name.c_str(), BM_AutoVsFixed)
          ->Args({op, mode});
    };
    add("Auto", kAuto);
    add("AutoPreferClone", kAutoPreferClone);
    for (Representation rep : cache::kConcreteRepresentations) {
      if (rep == Representation::Reference ||
          !cache::applicable(rep, c.response_object.type(), false))
        continue;
      std::string tag(cache::representation_name(rep));
      for (char& ch : tag) {
        if (ch == ' ') ch = '_';
      }
      add(tag, static_cast<int>(rep));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_all();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

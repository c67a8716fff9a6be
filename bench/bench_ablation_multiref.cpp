// Ablation — wire-format sensitivity of the XML-bound representations.
//
// Real 2004 Google responses were Axis multiRef graphs; the paper's Table 7
// numbers therefore include href-resolution work in the XML/SAX rows.  This
// bench quantifies that: retrieval cost of the XML-message and SAX-events
// representations for the same GoogleSearchResult encoded inline vs.
// multiref, plus the document-size overhead multiref adds.  Object-form
// representations are wire-format independent by construction (shown for
// reference).
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/common.hpp"
#include "core/representation.hpp"
#include "soap/serializer.hpp"

namespace {

using namespace wsc;
using namespace wsc::bench;

struct Forms {
  OperationCase inline_form;
  OperationCase multiref_form;
};

const Forms& forms() {
  static const Forms f = [] {
    Forms out;
    std::vector<OperationCase> cases = google_cases();
    out.inline_form = cases[2];  // GoogleSearch
    // Rebuild the same response in multiref form.
    out.multiref_form = cases[2];
    out.multiref_form.response_xml = soap::serialize_response_multiref(
        *out.multiref_form.op, "urn:GoogleSearch",
        out.multiref_form.response_object);
    xml::CompactEventRecorder recorder;
    xml::SaxParser{}.parse(out.multiref_form.response_xml, recorder);
    out.multiref_form.response_events = recorder.take();
    return out;
  }();
  return f;
}

void BM_WireFormat(benchmark::State& state) {
  bool multiref = state.range(0) != 0;
  auto rep = static_cast<cache::Representation>(state.range(1));
  const OperationCase& c = multiref ? forms().multiref_form : forms().inline_form;
  CaptureScratch scratch;
  cache::ResponseCapture capture = c.capture_copy(scratch);
  std::unique_ptr<cache::CachedValue> value =
      cache::make_cached_value(rep, capture);
  for (auto _ : state) {
    reflect::Object out = value->retrieve();
    benchmark::DoNotOptimize(out);
  }
  state.SetLabel(std::string(multiref ? "multiref" : "inline") + " / " +
                 std::string(cache::representation_name(rep)));
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("document sizes: inline=%zu bytes, multiref=%zu bytes\n",
              forms().inline_form.response_xml.size(),
              forms().multiref_form.response_xml.size());

  using cache::Representation;
  for (int multiref : {0, 1}) {
    for (Representation rep : cache::kConcreteRepresentations) {
      if (rep == Representation::Reference ||
          !cache::applicable(rep, forms().inline_form.response_object.type(),
                             false))
        continue;
      std::string tag(cache::representation_name(rep));
      for (char& ch : tag) {
        if (ch == ' ') ch = '_';
      }
      std::string name = std::string("Ablation/WireFormat/") +
                         (multiref ? "multiref/" : "inline/") + tag;
      benchmark::RegisterBenchmark(name.c_str(), BM_WireFormat)
          ->Args({multiref, static_cast<int>(rep)});
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

// Shared setup for the reproduction benchmarks: the three Google
// operations of §5.1 with the paper's request/response shapes, helpers to
// capture responses in every representation, and the machine-readable
// BENCH_*.json reporter that tracks the perf trajectory across PRs.
#pragma once

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/cache_key.hpp"
#include "core/cached_value.hpp"
#include "services/google/service.hpp"
#include "soap/serializer.hpp"
#include "xml/compact_event_sequence.hpp"
#include "xml/sax_parser.hpp"

namespace wsc::bench {

using reflect::Object;

/// Per-iteration scratch for representations that consume their capture
/// (the SAX representation moves the recording into the CachedValue).
struct CaptureScratch {
  xml::CompactEventSequence events;
};

/// One §5.1 operation: its request (for Tables 6/8) and its captured
/// response (for Tables 7/9).
struct OperationCase {
  std::string display;  // "Spelling Suggestion" etc., as in the tables
  std::string op_name;
  soap::RpcRequest request;
  std::shared_ptr<const wsdl::OperationInfo> op;
  std::string response_xml;
  xml::CompactEventSequence response_events;
  Object response_object;

  cache::ResponseCapture capture_copy(CaptureScratch& scratch) const {
    scratch.events = response_events;  // a fresh copy; the value consumes it
    cache::ResponseCapture c;
    c.response_xml = &response_xml;
    c.events = &scratch.events;
    c.object = response_object;
    c.op = op;
    return c;
  }
};

inline std::shared_ptr<const wsdl::OperationInfo> share_op(const char* name) {
  auto desc = services::google::google_description();
  return {desc, &desc->require_operation(name)};
}

inline OperationCase make_case(const char* display, const char* op_name,
                               soap::RpcRequest request, Object response) {
  OperationCase c;
  c.display = display;
  c.op_name = op_name;
  c.op = share_op(op_name);
  c.request = std::move(request);
  c.response_object = std::move(response);
  c.response_xml =
      soap::serialize_response(*c.op, "urn:GoogleSearch", c.response_object);
  xml::CompactEventRecorder recorder;
  xml::SaxParser{}.parse(c.response_xml, recorder);
  c.response_events = recorder.take();
  return c;
}

/// The three operations with the paper's parameter/response shapes
/// (Table 5): small+simple String, large+simple byte[], large+complex tree.
inline std::vector<OperationCase> google_cases() {
  services::google::GoogleBackend backend;
  const std::string kEndpoint = "http://api.google.com/search/beta2";
  const std::string kKey(32, '0');

  auto str = [](const char* s) { return Object::make(std::string(s)); };

  soap::RpcRequest spell;
  spell.endpoint = kEndpoint;
  spell.ns = "urn:GoogleSearch";
  spell.operation = "doSpellingSuggestion";
  spell.params = {{"key", Object::make(kKey)}, {"phrase", str("web servies caching")}};

  soap::RpcRequest page;
  page.endpoint = kEndpoint;
  page.ns = "urn:GoogleSearch";
  page.operation = "doGetCachedPage";
  page.params = {{"key", Object::make(kKey)},
                 {"url", str("http://www.example.com/index.html")}};

  soap::RpcRequest search;
  search.endpoint = kEndpoint;
  search.ns = "urn:GoogleSearch";
  search.operation = "doGoogleSearch";
  search.params = {{"key", Object::make(kKey)},
                   {"q", str("web services response caching")},
                   {"start", Object::make(std::int32_t{0})},
                   {"maxResults", Object::make(std::int32_t{10})},
                   {"filter", Object::make(false)},
                   {"restrict", str("")},
                   {"safeSearch", Object::make(false)},
                   {"lr", str("")},
                   {"ie", str("latin1")},
                   {"oe", str("latin1")}};

  std::vector<OperationCase> cases;
  cases.push_back(make_case(
      "Spelling Suggestion", "doSpellingSuggestion", std::move(spell),
      Object::make(backend.spelling_suggestion("web servies caching"))));
  cases.push_back(make_case(
      "Cached Page", "doGetCachedPage", std::move(page),
      Object::make(backend.cached_page("http://www.example.com/index.html"))));
  cases.push_back(make_case(
      "Google Search", "doGoogleSearch", std::move(search),
      Object::make(backend.search("web services response caching", 0, 10))));
  return cases;
}

/// Machine-readable bench output: row -> metric -> value, written as
/// BENCH_<table>.json next to the binary's working directory so the perf
/// trajectory is tracked across PRs (compared by CI/scripts, not eyes).
class BenchJson {
 public:
  void add(const std::string& row, const std::string& metric, double value) {
    rows_[row][metric] = value;
  }

  bool write_file(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "{\n");
    std::size_t i = 0;
    for (const auto& [row, metrics] : rows_) {
      std::fprintf(f, "  \"%s\": {", escape(row).c_str());
      std::size_t j = 0;
      for (const auto& [metric, value] : metrics) {
        std::fprintf(f, "%s\"%s\": %.6g", j++ ? ", " : "",
                     escape(metric).c_str(), value);
      }
      std::fprintf(f, "}%s\n", ++i < rows_.size() ? "," : "");
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu rows)\n", path.c_str(), rows_.size());
    return true;
  }

 private:
  static std::string escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::map<std::string, std::map<std::string, double>> rows_;
};

}  // namespace wsc::bench

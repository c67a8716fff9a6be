// The SAX representation on the paper's real fixtures (§5.1 Google
// operations, Table 1 Amazon search): replay round-trips every response,
// and the value's memory_size() is the recording's honest footprint (heap
// capacities + per-block overhead, SSO strings free) plus a fixed header.
#include <gtest/gtest.h>

#include "bench/common.hpp"
#include "core/cached_value.hpp"
#include "reflect/algorithms.hpp"
#include "services/amazon/service.hpp"
#include "soap/serializer.hpp"
#include "xml/sax_parser.hpp"

namespace wsc::cache {
namespace {

using bench::CaptureScratch;
using bench::OperationCase;

const std::vector<OperationCase>& cases() {
  static const std::vector<OperationCase> c = bench::google_cases();
  return c;
}

std::unique_ptr<CachedValue> value_for(const OperationCase& c,
                                       Representation rep,
                                       CaptureScratch& scratch) {
  ResponseCapture capture = c.capture_copy(scratch);
  return make_cached_value(rep, capture);
}

TEST(CompactValueFootprintTest, SequencesAgreeWithValueAccounting) {
  // The CachedValue wrapper adds only its own fixed header to the
  // sequence's self-reported footprint.
  const OperationCase& search = cases()[2];
  CaptureScratch s;
  auto value = value_for(search, Representation::SaxEvents, s);
  EXPECT_GE(value->memory_size(), search.response_events.memory_size());
  EXPECT_LE(value->memory_size(), search.response_events.memory_size() + 256);
}

TEST(CompactValueTest, RetrieveEqualsOriginalOnGoogleFixtures) {
  for (const OperationCase& c : cases()) {
    CaptureScratch s;
    auto value = value_for(c, Representation::SaxEvents, s);
    EXPECT_TRUE(reflect::deep_equals(value->retrieve(), c.response_object))
        << c.display;
  }
}

TEST(CompactValueTest, FactoryRequiresCompactCapture) {
  const OperationCase& c = cases()[0];
  CaptureScratch s;
  ResponseCapture capture = c.capture_copy(s);
  capture.events = nullptr;  // the middleware recorded no events
  EXPECT_THROW(make_cached_value(Representation::SaxEvents, capture), Error);
}

TEST(CompactValueFootprintTest, AmazonSearchFixture) {
  // The Table-1 service: a KeywordSearch response (bean with a repeated
  // item list) round-trips through the recording like GoogleSearch.
  services::amazon::AmazonBackend backend;
  auto desc = services::amazon::amazon_description();
  std::shared_ptr<const wsdl::OperationInfo> op{
      desc, &desc->require_operation("KeywordSearch")};
  reflect::Object response = reflect::Object::make(
      backend.search("KeywordSearch", "web services caching", 1));
  std::string xml =
      soap::serialize_response(*op, "urn:PI/DevCentral/SoapAPI", response);

  xml::CompactEventRecorder recorder;
  xml::SaxParser{}.parse(xml, recorder);
  xml::CompactEventSequence events = recorder.take();

  ResponseCapture capture;
  capture.response_xml = &xml;
  capture.events = &events;
  capture.object = response;
  capture.op = op;
  auto value = make_cached_value(Representation::SaxEvents, capture);
  EXPECT_TRUE(reflect::deep_equals(value->retrieve(), response));
}

}  // namespace
}  // namespace wsc::cache

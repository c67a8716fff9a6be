// Property sweep over the full XML pipeline: random object trees must
// survive serialize -> parse -> deserialize for responses and requests,
// including via recorded event sequences.
#include <gtest/gtest.h>

#include "reflect/algorithms.hpp"
#include "soap/deserializer.hpp"
#include "soap/serializer.hpp"
#include "tests/soap/test_service.hpp"
#include "util/random.hpp"
#include "xml/compact_event_sequence.hpp"
#include "xml/sax_parser.hpp"

namespace wsc::soap {
namespace {

using reflect::Object;
using reflect::testing::Point;
using wsc::soap::testing::Polygon;
using wsc::soap::testing::test_description;

/// Strings drawn to stress XML escaping: markup, quotes, entities, unicode.
std::string nasty_string(util::Rng& rng) {
  static const char* kNasty[] = {
      "",
      "plain",
      "<tag>",
      "a&b",
      "quote\"inside'",
      "]]>",
      "line\nbreak\ttab",
      "\xC3\xA9\xE2\x82\xAC",  // é€ in UTF-8
      "&amp; already escaped",
      "  leading and trailing  ",
  };
  if (rng.next_bool(0.5)) return kNasty[rng.next_below(std::size(kNasty))];
  return rng.next_sentence(1 + rng.next_below(6));
}

Polygon random_polygon(util::Rng& rng) {
  Polygon p;
  p.name = nasty_string(rng);
  p.weight = rng.next_double() * 1000 - 500;
  p.closed = rng.next_bool();
  std::size_t n = rng.next_below(8);
  for (std::size_t i = 0; i < n; ++i) {
    p.points.push_back({static_cast<std::int32_t>(rng.next_range(-9999, 9999)),
                        static_cast<std::int32_t>(rng.next_range(-9999, 9999)),
                        nasty_string(rng)});
  }
  std::size_t t = rng.next_below(4);
  for (std::size_t i = 0; i < t; ++i) p.tags.push_back(nasty_string(rng));
  return p;
}

class SoapRoundTripProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override { reflect::testing::ensure_test_types(); }
};

TEST_P(SoapRoundTripProperty, ResponseSurvivesXmlPipeline) {
  util::Rng rng(GetParam());
  const wsdl::OperationInfo& op =
      test_description()->require_operation("echoPolygon");
  for (int i = 0; i < 15; ++i) {
    Object original = Object::make(random_polygon(rng));
    std::string doc = serialize_response(op, "urn:Test", original);
    Object decoded = read_response(xml::XmlTextSource(doc), op);
    EXPECT_TRUE(reflect::deep_equals(original, decoded));
  }
}

TEST_P(SoapRoundTripProperty, ResponseSurvivesEventReplay) {
  util::Rng rng(GetParam() ^ 0xEE);
  const wsdl::OperationInfo& op =
      test_description()->require_operation("echoPolygon");
  for (int i = 0; i < 15; ++i) {
    Object original = Object::make(random_polygon(rng));
    std::string doc = serialize_response(op, "urn:Test", original);
    xml::CompactEventRecorder recorder;
    xml::SaxParser{}.parse(doc, recorder);
    Object decoded = read_response(recorder.sequence(), op);
    EXPECT_TRUE(reflect::deep_equals(original, decoded));
  }
}

TEST_P(SoapRoundTripProperty, ResponseSurvivesCompactEventReplay) {
  // Same property through the arena-backed compact recording: the
  // deserializer must see an identical event stream from the interned
  // replay (views into the arena, references into the tables).
  util::Rng rng(GetParam() ^ 0xCC);
  const wsdl::OperationInfo& op =
      test_description()->require_operation("echoPolygon");
  for (int i = 0; i < 15; ++i) {
    Object original = Object::make(random_polygon(rng));
    std::string doc = serialize_response(op, "urn:Test", original);
    xml::CompactEventRecorder recorder;
    xml::SaxParser{}.parse(doc, recorder);
    Object decoded = read_response(recorder.sequence(), op);
    EXPECT_TRUE(reflect::deep_equals(original, decoded));
  }
}

TEST_P(SoapRoundTripProperty, RequestSurvivesXmlPipeline) {
  util::Rng rng(GetParam() ^ 0x44);
  for (int i = 0; i < 15; ++i) {
    RpcRequest original;
    original.ns = "urn:Test";
    original.operation = "echoPolygon";
    original.params = {{"p", Object::make(random_polygon(rng))}};
    RpcRequest decoded =
        read_request(serialize_request(original), *test_description());
    EXPECT_TRUE(reflect::deep_equals(original.params[0].value,
                                     decoded.params[0].value));
  }
}

TEST_P(SoapRoundTripProperty, BytesOfAllSizesSurvive) {
  util::Rng rng(GetParam() ^ 0xB1);
  const wsdl::OperationInfo& op = test_description()->require_operation("getBytes");
  for (std::size_t size : {0, 1, 2, 3, 4, 100, 4096}) {
    Object original = Object::make(rng.next_bytes(size));
    std::string doc = serialize_response(op, "urn:Test", original);
    Object decoded = read_response(xml::XmlTextSource(doc), op);
    EXPECT_TRUE(reflect::deep_equals(original, decoded)) << size;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoapRoundTripProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

}  // namespace
}  // namespace wsc::soap

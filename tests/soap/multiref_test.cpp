// Axis 1.1 multiRef encoding: serializer emission and decoder resolution
// of href="#id" reference graphs — the on-wire shape real Google Web API
// responses had, proving the cache middleware handles both forms.
#include <gtest/gtest.h>

#include "reflect/algorithms.hpp"
#include "soap/deserializer.hpp"
#include "soap/dispatcher.hpp"
#include "soap/serializer.hpp"
#include "tests/soap/test_service.hpp"
#include "tests/support/dom.hpp"
#include "util/error.hpp"
#include "xml/compact_event_sequence.hpp"
#include "xml/sax_parser.hpp"

namespace wsc::soap {
namespace {

using reflect::Object;
using reflect::testing::sample_polygon;
using wsc::soap::testing::make_test_service;
using wsc::soap::testing::Polygon;
using wsc::soap::testing::test_description;

const wsdl::OperationInfo& op(const char* name) {
  return test_description()->require_operation(name);
}

Object polygon_object() {
  reflect::testing::ensure_test_types();
  return Object::make(sample_polygon());
}

TEST(MultirefSerializerTest, WrapperUsesHrefSite) {
  Object result = polygon_object();
  std::string doc =
      serialize_response_multiref(op("echoPolygon"), "urn:Test", result);
  xml::Document parsed = xml::parse_document(doc);
  const xml::Node* wrapper =
      parsed.root->child("Body")->child("echoPolygonResponse");
  ASSERT_NE(wrapper, nullptr);
  const xml::Node* site = wrapper->child("return");
  ASSERT_NE(site, nullptr);
  EXPECT_EQ(site->attribute("href"), "#id0");
  EXPECT_TRUE(site->children().empty());
  // multiRef elements are siblings of the wrapper inside the Body.
  EXPECT_FALSE(parsed.root->child("Body")->children_named("multiRef").empty());
}

TEST(MultirefSerializerTest, PrimitiveResultsStayInline) {
  std::string doc = serialize_response_multiref(
      op("echoString"), "urn:Test", Object::make(std::string("inline!")));
  EXPECT_EQ(doc.find("multiRef"), std::string::npos);
  EXPECT_EQ(doc.find("href"), std::string::npos);
  EXPECT_NE(doc.find("inline!"), std::string::npos);
}

TEST(MultirefSerializerTest, BytesStayInline) {
  std::string doc = serialize_response_multiref(
      op("getBytes"), "urn:Test",
      Object::make(std::vector<std::uint8_t>{'f', 'o', 'o'}));
  EXPECT_EQ(doc.find("multiRef"), std::string::npos);
  EXPECT_NE(doc.find("Zm9v"), std::string::npos);
}

TEST(MultirefSerializerTest, NestedStructsGetOwnIds) {
  // Polygon -> points array -> Point structs: three levels of indirection.
  std::string doc = serialize_response_multiref(op("echoPolygon"), "urn:Test",
                                                polygon_object());
  xml::Document parsed = xml::parse_document(doc);
  auto multirefs = parsed.root->child("Body")->children_named("multiRef");
  // 1 polygon + 2 arrays (points, tags) + 3 points = 6.
  EXPECT_EQ(multirefs.size(), 6u);
}

TEST(MultirefRoundTripTest, ComplexObjectSurvives) {
  Object original = polygon_object();
  std::string doc =
      serialize_response_multiref(op("echoPolygon"), "urn:Test", original);
  Object decoded = read_response(xml::XmlTextSource(doc), op("echoPolygon"));
  EXPECT_TRUE(reflect::deep_equals(original, decoded));
}

TEST(MultirefRoundTripTest, EmptyContainersSurvive) {
  reflect::testing::ensure_test_types();
  Polygon empty;
  empty.name = "bare";
  Object original = Object::make(empty);
  std::string doc =
      serialize_response_multiref(op("echoPolygon"), "urn:Test", original);
  Object decoded = read_response(xml::XmlTextSource(doc), op("echoPolygon"));
  EXPECT_TRUE(reflect::deep_equals(original, decoded));
}

TEST(MultirefRoundTripTest, SurvivesEventReplay) {
  // The cache's SAX representation stores multiref documents verbatim;
  // replay must resolve identically (the paper's hit path, multiref form).
  Object original = polygon_object();
  std::string doc =
      serialize_response_multiref(op("echoPolygon"), "urn:Test", original);
  xml::CompactEventRecorder recorder;
  xml::SaxParser{}.parse(doc, recorder);
  Object decoded = read_response(recorder.sequence(), op("echoPolygon"));
  EXPECT_TRUE(reflect::deep_equals(original, decoded));

  // Replays construct fresh objects each time.
  Object again = read_response(recorder.sequence(), op("echoPolygon"));
  EXPECT_NE(decoded.data(), again.data());
  EXPECT_TRUE(reflect::deep_equals(decoded, again));
}

TEST(MultirefRoundTripTest, DispatcherSwitchProducesDecodableResponses) {
  auto service = make_test_service();
  service->set_multiref_responses(true);
  EXPECT_TRUE(service->multiref_responses());

  RpcRequest request;
  request.ns = "urn:Test";
  request.operation = "echoPolygon";
  request.params = {{"p", polygon_object()}};
  auto result = service->handle(serialize_request(request));
  ASSERT_FALSE(result.fault);
  EXPECT_NE(result.xml.find("multiRef"), std::string::npos);
  Object decoded =
      read_response(xml::XmlTextSource(result.xml), op("echoPolygon"));
  EXPECT_TRUE(reflect::deep_equals(decoded, request.params[0].value));
}

// --- hand-authored documents: interop and error paths ---------------------------

std::string envelope(const std::string& body) {
  return "<soapenv:Envelope "
         "xmlns:soapenv=\"http://schemas.xmlsoap.org/soap/envelope/\">"
         "<soapenv:Body>" + body + "</soapenv:Body></soapenv:Envelope>";
}

TEST(MultirefDecoderTest, MultirefsBeforeWrapperAccepted) {
  // Some stacks emit the multiRef table before the RPC wrapper.
  std::string doc = envelope(
      "<multiRef id=\"x\"><name>pre</name><weight>1.5</weight>"
      "<closed>true</closed></multiRef>"
      "<w:echoPolygonResponse xmlns:w=\"urn:Test\">"
      "<return href=\"#x\"/></w:echoPolygonResponse>");
  Object decoded = read_response(xml::XmlTextSource(doc), op("echoPolygon"));
  EXPECT_EQ(decoded.as<Polygon>().name, "pre");
  EXPECT_TRUE(decoded.as<Polygon>().closed);
}

TEST(MultirefDecoderTest, WhitespaceTolerated) {
  std::string doc = envelope(
      "\n  <w:echoPolygonResponse xmlns:w=\"urn:Test\">\n"
      "    <return href=\"#a\"/>\n  </w:echoPolygonResponse>\n"
      "  <multiRef id=\"a\">\n    <name>ws</name>\n  </multiRef>\n");
  EXPECT_EQ(read_response(xml::XmlTextSource(doc), op("echoPolygon"))
                .as<Polygon>().name,
            "ws");
}

TEST(MultirefDecoderTest, UnknownIdThrows) {
  std::string doc = envelope(
      "<w:echoPolygonResponse xmlns:w=\"urn:Test\">"
      "<return href=\"#ghost\"/></w:echoPolygonResponse>");
  EXPECT_THROW(read_response(xml::XmlTextSource(doc), op("echoPolygon")),
               ParseError);
}

TEST(MultirefDecoderTest, ReferenceCycleThrows) {
  // points (ArrayOfPoint) referencing itself: resolution must not recurse
  // forever.
  std::string doc = envelope(
      "<w:echoPolygonResponse xmlns:w=\"urn:Test\">"
      "<return href=\"#a\"/></w:echoPolygonResponse>"
      "<multiRef id=\"a\"><name>cyc</name><points href=\"#a\"/></multiRef>");
  EXPECT_THROW(read_response(xml::XmlTextSource(doc), op("echoPolygon")),
               ParseError);
}

TEST(MultirefDecoderTest, HrefElementMustBeEmpty) {
  std::string doc = envelope(
      "<w:echoPolygonResponse xmlns:w=\"urn:Test\">"
      "<return href=\"#a\"><name>inline-too</name></return>"
      "</w:echoPolygonResponse><multiRef id=\"a\"><name>x</name></multiRef>");
  EXPECT_THROW(read_response(xml::XmlTextSource(doc), op("echoPolygon")),
               ParseError);
}

TEST(MultirefDecoderTest, NonLocalHrefRejected) {
  std::string doc = envelope(
      "<w:echoPolygonResponse xmlns:w=\"urn:Test\">"
      "<return href=\"http://elsewhere/#a\"/></w:echoPolygonResponse>");
  EXPECT_THROW(read_response(xml::XmlTextSource(doc), op("echoPolygon")),
               ParseError);
}

TEST(MultirefDecoderTest, MultirefWithoutIdRejected) {
  std::string doc = envelope(
      "<w:echoPolygonResponse xmlns:w=\"urn:Test\">"
      "<return href=\"#a\"/></w:echoPolygonResponse>"
      "<multiRef><name>x</name></multiRef>");
  EXPECT_THROW(read_response(xml::XmlTextSource(doc), op("echoPolygon")),
               ParseError);
}

TEST(MultirefDecoderTest, SharedTargetDecodedIntoBothSites) {
  // Two array items referencing the same multiRef: call-by-copy semantics
  // give each slot its own copy of the value.
  std::string doc = envelope(
      "<w:echoPolygonResponse xmlns:w=\"urn:Test\">"
      "<return href=\"#poly\"/></w:echoPolygonResponse>"
      "<multiRef id=\"poly\"><name>shared</name><points href=\"#arr\"/></multiRef>"
      "<multiRef id=\"arr\"><item href=\"#pt\"/><item href=\"#pt\"/></multiRef>"
      "<multiRef id=\"pt\"><x>3</x><y>4</y><label>twice</label></multiRef>");
  Object decoded = read_response(xml::XmlTextSource(doc), op("echoPolygon"));
  const Polygon& p = decoded.as<Polygon>();
  ASSERT_EQ(p.points.size(), 2u);
  EXPECT_EQ(p.points[0], p.points[1]);
  EXPECT_EQ(p.points[0].label, "twice");
}

TEST(MultirefDecoderTest, RequestsWithHrefRejected) {
  std::string doc = envelope(
      "<w:echoPolygon xmlns:w=\"urn:Test\"><p href=\"#a\"/></w:echoPolygon>"
      "<multiRef id=\"a\"><name>x</name></multiRef>");
  EXPECT_THROW(read_request(doc, *test_description()), ParseError);
}

}  // namespace
}  // namespace wsc::soap

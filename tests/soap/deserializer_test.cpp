#include "soap/deserializer.hpp"

#include <gtest/gtest.h>

#include "reflect/algorithms.hpp"
#include "soap/serializer.hpp"
#include "tests/soap/test_service.hpp"
#include "util/error.hpp"
#include "xml/compact_event_sequence.hpp"
#include "xml/sax_parser.hpp"

namespace wsc::soap {
namespace {

using reflect::Object;
using reflect::testing::sample_polygon;
using wsc::soap::testing::Polygon;
using wsc::soap::testing::test_description;

const wsdl::OperationInfo& op(const char* name) {
  return test_description()->require_operation(name);
}

/// Build the canonical complex payload, making sure types are registered
/// first (tests may construct objects before touching the description).
Object make_polygon_object() {
  reflect::testing::ensure_test_types();
  return Object::make(sample_polygon());
}

Object parse_response_text(const std::string& xml_text,
                           const wsdl::OperationInfo& operation) {
  return read_response(xml::XmlTextSource(xml_text), operation);
}

TEST(ResponseReaderTest, ReadsStringResult) {
  std::string doc = serialize_response(op("echoString"), "urn:Test",
                                       Object::make(std::string("payload")));
  Object result = parse_response_text(doc, op("echoString"));
  EXPECT_EQ(result.as<std::string>(), "payload");
}

TEST(ResponseReaderTest, ReadsComplexResult) {
  Object original = make_polygon_object();
  std::string doc = serialize_response(op("echoPolygon"), "urn:Test", original);
  Object result = parse_response_text(doc, op("echoPolygon"));
  EXPECT_TRUE(reflect::deep_equals(original, result));
}

TEST(ResponseReaderTest, ReadsBytesResult) {
  std::vector<std::uint8_t> bytes{0, 1, 2, 3, 255};
  std::string doc =
      serialize_response(op("getBytes"), "urn:Test", Object::make(bytes));
  Object result = parse_response_text(doc, op("getBytes"));
  EXPECT_EQ(result.as<std::vector<std::uint8_t>>(), bytes);
}

TEST(ResponseReaderTest, ReadsVoidResult) {
  std::string doc = serialize_response(op("voidOp"), "urn:Test", Object{});
  EXPECT_TRUE(parse_response_text(doc, op("voidOp")).is_null());
}

TEST(ResponseReaderTest, FaultBecomesSoapFault) {
  std::string doc = serialize_fault("Server", "boom");
  try {
    parse_response_text(doc, op("echoString"));
    FAIL() << "expected SoapFault";
  } catch (const SoapFault& f) {
    EXPECT_EQ(f.faultcode(), "soapenv:Server");
    EXPECT_EQ(f.faultstring(), "boom");
  }
}

TEST(ResponseReaderTest, SkipsSoapHeader) {
  std::string doc =
      "<soapenv:Envelope xmlns:soapenv=\"http://schemas.xmlsoap.org/soap/envelope/\">"
      "<soapenv:Header><wsse:Security xmlns:wsse=\"urn:sec\"><t>abc</t></wsse:Security>"
      "</soapenv:Header>"
      "<soapenv:Body><r:echoStringResponse xmlns:r=\"urn:Test\">"
      "<return>ok</return></r:echoStringResponse></soapenv:Body></soapenv:Envelope>";
  EXPECT_EQ(parse_response_text(doc, op("echoString")).as<std::string>(), "ok");
}

TEST(ResponseReaderTest, AcceptsAnyResultElementName) {
  // Axis names it "return" but decoders accept any name.
  std::string doc =
      "<soapenv:Envelope xmlns:soapenv=\"http://schemas.xmlsoap.org/soap/envelope/\">"
      "<soapenv:Body><r:echoStringResponse xmlns:r=\"urn:Test\">"
      "<echoStringReturn>ok</echoStringReturn>"
      "</r:echoStringResponse></soapenv:Body></soapenv:Envelope>";
  EXPECT_EQ(parse_response_text(doc, op("echoString")).as<std::string>(), "ok");
}

TEST(ResponseReaderTest, ReplayedEventsEqualLiveParse) {
  // THE paper mechanism: record once, replay into the same reader.
  Object original = make_polygon_object();
  std::string doc = serialize_response(op("echoPolygon"), "urn:Test", original);

  xml::CompactEventRecorder recorder;
  xml::SaxParser{}.parse(doc, recorder);
  xml::CompactEventSequence seq = recorder.take();

  Object from_replay = read_response(seq, op("echoPolygon"));
  Object from_text = parse_response_text(doc, op("echoPolygon"));
  EXPECT_TRUE(reflect::deep_equals(from_replay, from_text));

  // Each replay constructs a brand-new object.
  Object again = read_response(seq, op("echoPolygon"));
  EXPECT_NE(from_replay.data(), again.data());
}

class ResponseReaderRejects : public ::testing::TestWithParam<const char*> {};

TEST_P(ResponseReaderRejects, MalformedResponsesThrow) {
  EXPECT_THROW(parse_response_text(GetParam(), op("echoString")), Error);
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, ResponseReaderRejects,
    ::testing::Values(
        // Wrong root element.
        "<NotEnvelope/>",
        // Envelope not in the SOAP namespace.
        "<Envelope><Body><echoStringResponse><r>x</r></echoStringResponse></Body></Envelope>",
        // Wrong wrapper operation name.
        "<e:Envelope xmlns:e=\"http://schemas.xmlsoap.org/soap/envelope/\">"
        "<e:Body><w:otherResponse xmlns:w=\"urn:Test\"><r>x</r></w:otherResponse>"
        "</e:Body></e:Envelope>",
        // Missing result element for a non-void operation.
        "<e:Envelope xmlns:e=\"http://schemas.xmlsoap.org/soap/envelope/\">"
        "<e:Body><w:echoStringResponse xmlns:w=\"urn:Test\"/></e:Body></e:Envelope>",
        // Two result elements.
        "<e:Envelope xmlns:e=\"http://schemas.xmlsoap.org/soap/envelope/\">"
        "<e:Body><w:echoStringResponse xmlns:w=\"urn:Test\"><a>1</a><b>2</b>"
        "</w:echoStringResponse></e:Body></e:Envelope>",
        // Stray character data inside the Body.
        "<e:Envelope xmlns:e=\"http://schemas.xmlsoap.org/soap/envelope/\">"
        "<e:Body>loose text</e:Body></e:Envelope>"));

// --- RequestReader ------------------------------------------------------------

TEST(RequestReaderTest, RoundTripsSerializedRequest) {
  RpcRequest original;
  original.endpoint = "http://x/y";
  original.ns = "urn:Test";
  original.operation = "echoPolygon";
  original.params = {{"p", make_polygon_object()}};

  RpcRequest decoded =
      read_request(serialize_request(original), *test_description());
  EXPECT_EQ(decoded.operation, "echoPolygon");
  EXPECT_EQ(decoded.ns, "urn:Test");
  ASSERT_EQ(decoded.params.size(), 1u);
  EXPECT_EQ(decoded.params[0].name, "p");
  EXPECT_TRUE(reflect::deep_equals(decoded.params[0].value, original.params[0].value));
}

TEST(RequestReaderTest, UnknownOperationThrows) {
  RpcRequest r;
  r.ns = "urn:Test";
  r.operation = "echoString";
  r.params = {{"s", Object::make(std::string("x"))}};
  std::string doc = serialize_request(r);
  // Patch the operation name to something undeclared.
  std::string bad = doc;
  auto replace_all = [&bad](const std::string& from, const std::string& to) {
    for (std::size_t pos = 0; (pos = bad.find(from, pos)) != std::string::npos;
         pos += to.size())
      bad.replace(pos, from.size(), to);
  };
  replace_all("echoString", "mysteryOp");
  EXPECT_THROW(read_request(bad, *test_description()), ParseError);
}

TEST(RequestReaderTest, MissingParameterThrows) {
  std::string doc =
      "<e:Envelope xmlns:e=\"http://schemas.xmlsoap.org/soap/envelope/\">"
      "<e:Body><w:echoString xmlns:w=\"urn:Test\"/></e:Body></e:Envelope>";
  EXPECT_THROW(read_request(doc, *test_description()), ParseError);
}

TEST(RequestReaderTest, UnknownParameterThrows) {
  std::string doc =
      "<e:Envelope xmlns:e=\"http://schemas.xmlsoap.org/soap/envelope/\">"
      "<e:Body><w:echoString xmlns:w=\"urn:Test\"><bogus>1</bogus></w:echoString>"
      "</e:Body></e:Envelope>";
  EXPECT_THROW(read_request(doc, *test_description()), ParseError);
}

TEST(RequestReaderTest, DuplicateParameterThrows) {
  std::string doc =
      "<e:Envelope xmlns:e=\"http://schemas.xmlsoap.org/soap/envelope/\">"
      "<e:Body><w:echoString xmlns:w=\"urn:Test\"><s>1</s><s>2</s></w:echoString>"
      "</e:Body></e:Envelope>";
  EXPECT_THROW(read_request(doc, *test_description()), ParseError);
}

TEST(RequestReaderTest, TypeMismatchInParameterThrows) {
  std::string doc =
      "<e:Envelope xmlns:e=\"http://schemas.xmlsoap.org/soap/envelope/\">"
      "<e:Body><w:getBytes xmlns:w=\"urn:Test\"><n>not-a-number</n></w:getBytes>"
      "</e:Body></e:Envelope>";
  EXPECT_THROW(read_request(doc, *test_description()), ParseError);
}

}  // namespace
}  // namespace wsc::soap

#include "soap/serializer.hpp"

#include <gtest/gtest.h>

#include "services/google/service.hpp"
#include "tests/soap/test_service.hpp"
#include "tests/support/dom.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace wsc::soap {
namespace {

using reflect::Object;
using reflect::testing::Point;
using wsc::soap::testing::test_description;

RpcRequest sample_request() {
  RpcRequest r;
  r.endpoint = "http://svc.example/soap";
  r.ns = "urn:Test";
  r.operation = "echoString";
  r.params = {{"s", Object::make(std::string("hello & <world>"))}};
  return r;
}

TEST(SerializerTest, RequestEnvelopeStructure) {
  reflect::testing::ensure_test_types();
  xml::Document doc = xml::parse_document(serialize_request(sample_request()));
  const xml::Node& env = *doc.root;
  EXPECT_EQ(env.name().local, "Envelope");
  EXPECT_EQ(env.name().uri, kEnvelopeNs);
  const xml::Node* body = env.child("Body");
  ASSERT_NE(body, nullptr);
  const xml::Node* op = body->child("echoString");
  ASSERT_NE(op, nullptr);
  EXPECT_EQ(op->name().uri, "urn:Test");
  const xml::Node* param = op->child("s");
  ASSERT_NE(param, nullptr);
  EXPECT_EQ(param->text_content(), "hello & <world>");
  EXPECT_EQ(param->attribute("type"), "xsd:string");
}

TEST(SerializerTest, EncodingStyleDeclared) {
  reflect::testing::ensure_test_types();
  std::string xml_text = serialize_request(sample_request());
  EXPECT_NE(xml_text.find("soapenv:encodingStyle"), std::string::npos);
  EXPECT_NE(xml_text.find(kEncodingNs), std::string::npos);
}

TEST(SerializerTest, PrimitiveXsiTypes) {
  reflect::testing::ensure_test_types();
  xml::Writer w(false);
  std::int32_t i = 5;
  double d = 1.5;
  bool b = true;
  std::int64_t l = 7;
  write_value(w, "a", reflect::type_of<std::int32_t>(), &i);
  write_value(w, "b", reflect::type_of<double>(), &d);
  write_value(w, "c", reflect::type_of<bool>(), &b);
  write_value(w, "d", reflect::type_of<std::int64_t>(), &l);
  EXPECT_EQ(w.finish(),
            "<a xsi:type=\"xsd:int\">5</a><b xsi:type=\"xsd:double\">1.5</b>"
            "<c xsi:type=\"xsd:boolean\">true</c><d xsi:type=\"xsd:long\">7</d>");
}

TEST(SerializerTest, BytesEncodedAsBase64) {
  reflect::testing::ensure_test_types();
  xml::Writer w(false);
  std::vector<std::uint8_t> bytes{'f', 'o', 'o'};
  write_value(w, "blob", reflect::type_of<std::vector<std::uint8_t>>(), &bytes);
  EXPECT_EQ(w.finish(), "<blob xsi:type=\"xsd:base64Binary\">Zm9v</blob>");
}

TEST(SerializerTest, StructSerializesFieldsInDeclarationOrder) {
  reflect::testing::ensure_test_types();
  xml::Writer w(false);
  Point p{1, 2, "L"};
  write_value(w, "p", reflect::type_of<Point>(), &p);
  // Primitive members rely on the schema (no per-field xsi:type).
  EXPECT_EQ(w.finish(),
            "<p xsi:type=\"ns1:test.Point\"><x>1</x><y>2</y><label>L</label></p>");
}

TEST(SerializerTest, ArraySerializesWithArrayType) {
  reflect::testing::ensure_test_types();
  xml::Writer w(false);
  std::vector<std::string> v{"a", "b"};
  write_value(w, "arr", reflect::type_of<std::vector<std::string>>(), &v);
  std::string out = w.finish();
  EXPECT_NE(out.find("soapenc:arrayType=\"xsd:string[2]\""), std::string::npos);
  EXPECT_NE(out.find("<item xsi:type=\"xsd:string\">a</item>"), std::string::npos);
}

TEST(SerializerTest, ResponseEnvelope) {
  reflect::testing::ensure_test_types();
  const wsdl::OperationInfo& op = test_description()->require_operation("echoString");
  std::string xml_text =
      serialize_response(op, "urn:Test", Object::make(std::string("result!")));
  xml::Document doc = xml::parse_document(xml_text);
  const xml::Node* wrapper = doc.root->child("Body")->child("echoStringResponse");
  ASSERT_NE(wrapper, nullptr);
  EXPECT_EQ(wrapper->child("return")->text_content(), "result!");
}

TEST(SerializerTest, VoidResponseHasEmptyWrapper) {
  const wsdl::OperationInfo& op = test_description()->require_operation("voidOp");
  std::string xml_text = serialize_response(op, "urn:Test", Object{});
  xml::Document doc = xml::parse_document(xml_text);
  const xml::Node* wrapper = doc.root->child("Body")->child("voidOpResponse");
  ASSERT_NE(wrapper, nullptr);
  EXPECT_TRUE(wrapper->children().empty());
}

TEST(SerializerTest, NullResultForNonVoidThrows) {
  const wsdl::OperationInfo& op = test_description()->require_operation("echoString");
  EXPECT_THROW(serialize_response(op, "urn:Test", Object{}), SerializationError);
}

TEST(SerializerTest, MismatchedResultTypeThrows) {
  const wsdl::OperationInfo& op = test_description()->require_operation("echoString");
  EXPECT_THROW(serialize_response(op, "urn:Test", Object::make(std::int32_t{1})),
               SerializationError);
}

TEST(SerializerTest, NullParameterThrows) {
  RpcRequest r = sample_request();
  r.params[0].value = Object{};
  EXPECT_THROW(serialize_request(r), SerializationError);
}

TEST(SerializerTest, FaultEnvelope) {
  std::string xml_text = serialize_fault("Client", "bad request & more");
  xml::Document doc = xml::parse_document(xml_text);
  const xml::Node* fault = doc.root->child("Body")->child("Fault");
  ASSERT_NE(fault, nullptr);
  EXPECT_EQ(fault->child("faultcode")->text_content(), "soapenv:Client");
  EXPECT_EQ(fault->child("faultstring")->text_content(), "bad request & more");
}

TEST(SerializerTest, RequestSizeRealisticForSpellingSuggestion) {
  // Table 8 reports ~586 bytes for the SpellingSuggestion request XML; our
  // envelope should be in that neighbourhood (same order of magnitude).
  RpcRequest r;
  r.endpoint = "http://api.google.com/search/beta2";
  r.ns = "urn:GoogleSearch";
  r.operation = "doSpellingSuggestion";
  r.params = {{"key", Object::make(std::string("00000000000000000000000000000000"))},
              {"phrase", Object::make(std::string("web servies"))}};
  std::size_t size = serialize_request(r).size();
  EXPECT_GT(size, 350u);
  EXPECT_LT(size, 900u);
}

// --- wire bytes ---------------------------------------------------------------
//
// The §5.1 messages, byte for byte: Tables 8 and 9 report their XML sizes,
// so a writer or serializer change must not move a single byte.  Length
// plus FNV-1a of each message, for the request and response parameters of
// the benchmark fixture (bench/common.hpp).

struct WireFingerprint {
  std::size_t size;
  std::uint64_t fnv1a;
};

void expect_wire(const std::string& message, WireFingerprint expected) {
  EXPECT_EQ(message.size(), expected.size);
  EXPECT_EQ(util::fnv1a(message), expected.fnv1a);
}

RpcRequest google_request(const char* operation,
                          std::vector<Parameter> params) {
  RpcRequest r;
  r.endpoint = "http://api.google.com/search/beta2";
  r.ns = "urn:GoogleSearch";
  r.operation = operation;
  r.params = std::move(params);
  return r;
}

TEST(SerializerWireTest, GoogleRequestsAreByteIdentical) {
  services::google::ensure_google_types();
  const std::string key(32, '0');
  auto str = [](const char* s) { return Object::make(std::string(s)); };
  expect_wire(serialize_request(google_request(
                  "doSpellingSuggestion",
                  {{"key", Object::make(key)},
                   {"phrase", str("web servies caching")}})),
              {590, 0x0bded7b07a307f77ULL});
  expect_wire(serialize_request(google_request(
                  "doGetCachedPage",
                  {{"key", Object::make(key)},
                   {"url", str("http://www.example.com/index.html")}})),
              {588, 0x76cbf573b0e81d45ULL});
  expect_wire(serialize_request(google_request(
                  "doGoogleSearch",
                  {{"key", Object::make(key)},
                   {"q", str("web services response caching")},
                   {"start", Object::make(std::int32_t{0})},
                   {"maxResults", Object::make(std::int32_t{10})},
                   {"filter", Object::make(false)},
                   {"restrict", str("")},
                   {"safeSearch", Object::make(false)},
                   {"lr", str("")},
                   {"ie", str("latin1")},
                   {"oe", str("latin1")}})),
              {905, 0xfaee6b0a69fd4dd4ULL});
}

TEST(SerializerWireTest, GoogleResponsesAreByteIdentical) {
  auto description = services::google::google_description();
  services::google::GoogleBackend backend;
  auto response = [&](const char* operation, Object result) {
    return serialize_response(description->require_operation(operation),
                              "urn:GoogleSearch", result);
  };
  Object spelling =
      Object::make(backend.spelling_suggestion("web servies caching"));
  Object page =
      Object::make(backend.cached_page("http://www.example.com/index.html"));
  Object search =
      Object::make(backend.search("web services response caching", 0, 10));
  expect_wire(response("doSpellingSuggestion", spelling),
              {541, 0xe0e28bf7c26942d1ULL});
  expect_wire(response("doGetCachedPage", page), {5318, 0x27ed618b5670526cULL});
  // The 7959 B doGoogleSearch response of Tables 7 and 9.
  expect_wire(response("doGoogleSearch", search), {7959, 0x70cd7bcd3278d21bULL});
  expect_wire(serialize_response_multiref(
                  description->require_operation("doGoogleSearch"),
                  "urn:GoogleSearch", search),
              {10807, 0x45e620b7cb99fbe8ULL});
}

}  // namespace
}  // namespace wsc::soap

// Table 3 / §3.1 semantics: each representation must return equal objects
// on every hit, and all except Reference must be isolated from client
// mutations both at store time and at hit time.
#include "core/cached_value.hpp"

#include <gtest/gtest.h>

#include "reflect/algorithms.hpp"
#include "soap/serializer.hpp"
#include "tests/core/representation_params.hpp"
#include "tests/soap/test_service.hpp"
#include "util/error.hpp"
#include "xml/sax_parser.hpp"

namespace wsc::cache {
namespace {

using reflect::Object;
using reflect::deep_equals;
using reflect::testing::Opaque;
using reflect::testing::sample_polygon;
using wsc::soap::testing::Polygon;
using wsc::soap::testing::test_description;

std::shared_ptr<const wsdl::OperationInfo> shared_op(const char* name) {
  auto desc = test_description();
  return {desc, &desc->require_operation(name)};
}

/// Simulate the miss-path capture for a response object.
struct Captured {
  std::string xml;
  xml::CompactEventSequence events;
  Object object;
  std::shared_ptr<const wsdl::OperationInfo> op;

  ResponseCapture capture() {
    ResponseCapture c;
    c.response_xml = &xml;
    c.events = &events;
    c.object = object;
    c.op = op;
    return c;
  }
};

Captured capture_response(const char* op_name, Object object) {
  Captured c;
  c.op = shared_op(op_name);
  c.object = std::move(object);
  c.xml = soap::serialize_response(*c.op, "urn:Test", c.object);
  xml::CompactEventRecorder recorder;
  xml::SaxParser{}.parse(c.xml, recorder);
  c.events = recorder.take();
  return c;
}

Captured polygon_capture() {
  reflect::testing::ensure_test_types();
  return capture_response("echoPolygon", Object::make(sample_polygon()));
}

class AllRepresentations : public ::testing::TestWithParam<Representation> {};

TEST_P(AllRepresentations, RetrieveEqualsOriginal) {
  Captured c = polygon_capture();
  ResponseCapture cap = c.capture();
  std::unique_ptr<CachedValue> value = make_cached_value(GetParam(), cap);
  EXPECT_EQ(value->representation(), GetParam());
  Object out = value->retrieve();
  EXPECT_TRUE(deep_equals(out, c.object));
}

TEST_P(AllRepresentations, RepeatedRetrievalsEqual) {
  Captured c = polygon_capture();
  ResponseCapture cap = c.capture();
  std::unique_ptr<CachedValue> value = make_cached_value(GetParam(), cap);
  Object a = value->retrieve();
  Object b = value->retrieve();
  EXPECT_TRUE(deep_equals(a, b));
}

TEST_P(AllRepresentations, MemorySizeNonTrivial) {
  Captured c = polygon_capture();
  ResponseCapture cap = c.capture();
  std::unique_ptr<CachedValue> value = make_cached_value(GetParam(), cap);
  EXPECT_GT(value->memory_size(), sizeof(void*));
}

INSTANTIATE_TEST_SUITE_P(
    Representations, AllRepresentations,
    ::testing::ValuesIn(kConcreteRepresentations),
    testing::representation_test_name);

class IsolatedRepresentations : public ::testing::TestWithParam<Representation> {};

TEST_P(IsolatedRepresentations, HitTimeMutationDoesNotPoisonCache) {
  // §3.1: "at the next cache hit, the cached object modified by the client
  // application can be returned" — unless the representation copies.
  Captured c = polygon_capture();
  ResponseCapture cap = c.capture();
  std::unique_ptr<CachedValue> value = make_cached_value(GetParam(), cap);

  Object first = value->retrieve();
  first.as<Polygon>().name = "HACKED";
  first.as<Polygon>().points.clear();

  Object second = value->retrieve();
  EXPECT_TRUE(deep_equals(second, c.object))
      << representation_name(GetParam());
}

TEST_P(IsolatedRepresentations, StoreTimeMutationDoesNotPoisonCache) {
  // The object handed to the application on the MISS is mutated after the
  // cache stored its entry.
  Captured c = polygon_capture();
  Object snapshot = reflect::deep_copy(c.object);
  ResponseCapture cap = c.capture();
  std::unique_ptr<CachedValue> value = make_cached_value(GetParam(), cap);

  c.object.as<Polygon>().weight = -1;
  c.object.as<Polygon>().tags.push_back("post-store mutation");

  EXPECT_TRUE(deep_equals(value->retrieve(), snapshot))
      << representation_name(GetParam());
}

TEST_P(IsolatedRepresentations, RetrievalsAreStorageIndependent) {
  Captured c = polygon_capture();
  ResponseCapture cap = c.capture();
  std::unique_ptr<CachedValue> value = make_cached_value(GetParam(), cap);
  Object a = value->retrieve();
  Object b = value->retrieve();
  EXPECT_NE(a.data(), b.data()) << representation_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    CopyingRepresentations, IsolatedRepresentations,
    ::testing::ValuesIn(testing::copying_representations()));

// --- Reference: documented aliasing -------------------------------------------

TEST(ReferenceValueTest, SharesTheStoredObject) {
  Captured c = polygon_capture();
  ResponseCapture cap = c.capture();
  std::unique_ptr<CachedValue> value =
      make_cached_value(Representation::Reference, cap);
  Object a = value->retrieve();
  Object b = value->retrieve();
  EXPECT_EQ(a.data(), b.data());
  EXPECT_EQ(a.data(), c.object.data());
  // The §3.1 hazard this representation accepts by contract:
  a.as<Polygon>().name = "visible-to-everyone";
  EXPECT_EQ(b.as<Polygon>().name, "visible-to-everyone");
}

// --- applicability failures ----------------------------------------------------

TEST(CachedValueLimitsTest, SerializedRejectsNonSerializable) {
  reflect::testing::ensure_test_types();
  ResponseCapture cap;
  cap.object = Object::make(reflect::testing::NoSerialize{7});
  EXPECT_THROW(make_cached_value(Representation::Serialized, cap),
               SerializationError);
}

TEST(CachedValueLimitsTest, ReflectionRejectsNonBean) {
  reflect::testing::ensure_test_types();
  ResponseCapture cap;
  cap.object = Object::make(Opaque{"x"});
  EXPECT_THROW(make_cached_value(Representation::ReflectionCopy, cap),
               SerializationError);
}

TEST(CachedValueLimitsTest, ReflectionRejectsPlainString) {
  // Table 7: reflection is n/a for the SpellingSuggestion String result.
  ResponseCapture cap;
  cap.object = Object::make(std::string("s"));
  EXPECT_THROW(make_cached_value(Representation::ReflectionCopy, cap),
               SerializationError);
}

TEST(CachedValueLimitsTest, CloneRejectsUncloneable) {
  reflect::testing::ensure_test_types();
  ResponseCapture cap;
  cap.object = Object::make(reflect::testing::NoClone{"p"});
  EXPECT_THROW(make_cached_value(Representation::CloneCopy, cap),
               SerializationError);
}

TEST(CachedValueLimitsTest, XmlNeedsDocument) {
  ResponseCapture cap;  // no response_xml
  cap.object = Object::make(std::string("s"));
  EXPECT_THROW(make_cached_value(Representation::XmlMessage, cap), Error);
}

TEST(CachedValueLimitsTest, AutoMustBeResolved) {
  ResponseCapture cap;
  cap.object = Object::make(std::string("s"));
  EXPECT_THROW(make_cached_value(Representation::Auto, cap), Error);
}

// --- Table 9 shape: footprint ordering ----------------------------------------

TEST(CachedValueFootprintTest, XmlLargestForComplexObjects) {
  Captured c = polygon_capture();
  ResponseCapture cap1 = c.capture();
  auto xml_value = make_cached_value(Representation::XmlMessage, cap1);
  ResponseCapture cap2 = c.capture();
  auto ser_value = make_cached_value(Representation::Serialized, cap2);
  ResponseCapture cap3 = c.capture();
  auto obj_value = make_cached_value(Representation::CloneCopy, cap3);
  // "The Java serialization form and the Java object were much smaller
  // than the XML message" (except byte-array payloads).
  EXPECT_GT(xml_value->memory_size(), ser_value->memory_size());
  EXPECT_GT(xml_value->memory_size(), obj_value->memory_size());
}

TEST(CachedValueFootprintTest, BytesPayloadSimilarAcrossRepresentations) {
  // CachedPage case: a single byte array dominates every representation.
  std::vector<std::uint8_t> page(3600);
  for (std::size_t i = 0; i < page.size(); ++i)
    page[i] = static_cast<std::uint8_t>(i);
  Captured c = capture_response("getBytes", Object::make(page));

  ResponseCapture cap1 = c.capture();
  auto ser_value = make_cached_value(Representation::Serialized, cap1);
  ResponseCapture cap2 = c.capture();
  auto ref_value = make_cached_value(Representation::ReflectionCopy, cap2);
  double ratio = static_cast<double>(ser_value->memory_size()) /
                 static_cast<double>(ref_value->memory_size());
  EXPECT_GT(ratio, 0.8);
  EXPECT_LT(ratio, 1.3);
}

}  // namespace
}  // namespace wsc::cache

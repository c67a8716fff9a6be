#include "reflect/serialize.hpp"

#include <gtest/gtest.h>

#include "reflect/algorithms.hpp"
#include "services/google/service.hpp"
#include "tests/reflect/test_types.hpp"
#include "util/byte_buffer.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace wsc::reflect {
namespace {

using testing::ensure_test_types;
using testing::NoSerialize;
using testing::Point;
using testing::Polygon;
using testing::sample_polygon;
using testing::Wrapper;

struct SerializeFixture : ::testing::Test {
  void SetUp() override { ensure_test_types(); }
};

TEST_F(SerializeFixture, PrimitiveRoundTrips) {
  for (const Object& o :
       {Object::make(std::string("hello")), Object::make(std::int32_t{-7}),
        Object::make(std::int64_t{1} << 50), Object::make(3.75),
        Object::make(true), Object::make(std::vector<std::uint8_t>{9, 8, 7})}) {
    Object back = deserialize(serialize(o));
    EXPECT_TRUE(deep_equals(o, back)) << o.type().name;
    EXPECT_NE(o.data(), back.data());  // fresh object = deep-copy semantics
  }
}

TEST_F(SerializeFixture, StructRoundTrips) {
  Object o = Object::make(sample_polygon());
  Object back = deserialize(serialize(o));
  EXPECT_TRUE(deep_equals(o, back));
  // Isolation: the reconstructed object is independent.
  back.as<Polygon>().points[0].x = 777;
  EXPECT_EQ(o.as<Polygon>().points[0].x, 0);
}

TEST_F(SerializeFixture, ArrayRoundTrips) {
  Object o = Object::make(std::vector<Point>{{1, 2, "a"}, {3, 4, "b"}});
  EXPECT_TRUE(deep_equals(o, deserialize(serialize(o))));
}

TEST_F(SerializeFixture, EmptyContainersRoundTrip) {
  EXPECT_TRUE(deep_equals(Object::make(std::vector<Point>{}),
                          deserialize(serialize(Object::make(std::vector<Point>{})))));
  EXPECT_TRUE(deep_equals(Object::make(std::string("")),
                          deserialize(serialize(Object::make(std::string(""))))));
}

TEST_F(SerializeFixture, NullRoundTrips) {
  std::vector<std::uint8_t> bytes = serialize(Object{});
  EXPECT_EQ(bytes.size(), 1u);
  EXPECT_TRUE(deserialize(bytes).is_null());
}

TEST_F(SerializeFixture, StreamIsSelfDescribing) {
  // The type name travels in the stream, like Java serialization.
  std::vector<std::uint8_t> bytes = serialize(Object::make(Point{5, 6, "x"}));
  std::string as_text(bytes.begin(), bytes.end());
  EXPECT_NE(as_text.find("test.Point"), std::string::npos);
}

TEST_F(SerializeFixture, NonSerializableTypeThrows) {
  EXPECT_THROW(serialize(Object::make(NoSerialize{42})), SerializationError);
}

TEST_F(SerializeFixture, NonSerializableFieldDetectedDeeply) {
  // Wrapper is declared serializable, but its field type is not — the
  // exact case Java detects at runtime with NotSerializableException.
  Wrapper w;
  w.inner.ticket = 1;
  w.note = "n";
  EXPECT_THROW(serialize(Object::make(w)), SerializationError);
}

TEST_F(SerializeFixture, SupportsSerializationProbe) {
  EXPECT_TRUE(supports_serialization(type_of<Polygon>()));
  EXPECT_FALSE(supports_serialization(type_of<NoSerialize>()));
  EXPECT_FALSE(supports_serialization(type_of<Wrapper>()));
  EXPECT_TRUE(supports_serialization(type_of<std::vector<Point>>()));
}

TEST_F(SerializeFixture, CorruptStreamsThrow) {
  std::vector<std::uint8_t> bytes = serialize(Object::make(Point{1, 2, "abc"}));
  // Truncation.
  std::vector<std::uint8_t> cut(bytes.begin(), bytes.end() - 2);
  EXPECT_THROW(deserialize(cut), ParseError);
  // Trailing garbage.
  std::vector<std::uint8_t> extra = bytes;
  extra.push_back(0xFF);
  EXPECT_THROW(deserialize(extra), ParseError);
  // Bad marker.
  std::vector<std::uint8_t> bad = bytes;
  bad[0] = 0x7F;
  EXPECT_THROW(deserialize(bad), ParseError);
  // Empty input.
  EXPECT_THROW(deserialize(std::vector<std::uint8_t>{}), ParseError);
}

TEST_F(SerializeFixture, UnknownTypeNameThrows) {
  util::ByteWriter w;
  w.write_u8(1);
  w.write_string("never.Registered");
  auto bytes = w.take();
  EXPECT_THROW(deserialize(bytes), ReflectionError);
}

TEST_F(SerializeFixture, SerializedFormSmallerThanToString) {
  // Sanity for the Table 8 ordering: binary < XML; string-concat smallest.
  Object o = Object::make(sample_polygon());
  std::string str = to_string(o);
  EXPECT_LT(serialize(o).size(), str.size() * 3);  // same magnitude
}

TEST_F(SerializeFixture, DeterministicBytes) {
  Object a = Object::make(sample_polygon());
  Object b = Object::make(sample_polygon());
  EXPECT_EQ(serialize(a), serialize(b));
}

// --- binary format -----------------------------------------------------------
//
// The Serialized representation's bytes for the three §5.1 responses: Table
// 9 reports their sizes and cached blobs may outlive a build, so a change
// to the encoder must not move a single byte.  Length plus FNV-1a, as
// SerializerWireTest pins the XML.

void expect_bytes(const Object& value, std::size_t size, std::uint64_t fnv) {
  std::vector<std::uint8_t> bytes = serialize(value);
  EXPECT_EQ(bytes.size(), size) << value.type().name;
  EXPECT_EQ(util::fnv1a(bytes), fnv) << value.type().name;
}

TEST(SerializeFormatTest, GoogleResponsesAreByteIdentical) {
  services::google::ensure_google_types();
  services::google::GoogleBackend backend;
  expect_bytes(Object::make(backend.spelling_suggestion("web servies caching")),
               28, 0x18e5f224b818c9c0ULL);
  expect_bytes(
      Object::make(backend.cached_page("http://www.example.com/index.html")),
      3616, 0xa38270117200b4cbULL);
  expect_bytes(
      Object::make(backend.search("web services response caching", 0, 10)),
      2530, 0x3a47dcadb1896fccULL);
}

}  // namespace
}  // namespace wsc::reflect

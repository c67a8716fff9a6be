// One row per primitive Kind, every walker through it.
//
// Copy, deep_equals, toString, the binary encoder and decoder, and the SOAP
// writer and ValueReader all call the builtin's PrimitiveOps row instead of
// switching on the kind.  Each primitive kind is round-tripped through all
// of them here, and a Kind added without a builtin row fails
// EveryPrimitiveKindHasACompleteRow.
#include <gtest/gtest.h>

#include <set>

#include "reflect/algorithms.hpp"
#include "reflect/serialize.hpp"
#include "soap/message.hpp"
#include "soap/serializer.hpp"
#include "soap/value_reader.hpp"
#include "util/error.hpp"
#include "xml/sax_parser.hpp"
#include "xml/writer.hpp"

namespace wsc::reflect {
namespace {

/// Two distinct values of one builtin: the round-trip sample and a value
/// it must not equal.
struct Sample {
  Object value;
  Object other;
};

std::vector<Sample> samples() {
  return {
      {Object::make(true), Object::make(false)},
      {Object::make(std::int32_t{-123456}), Object::make(std::int32_t{7})},
      {Object::make(std::int64_t{-9007199254740993}),
       Object::make(std::int64_t{1} << 40)},
      {Object::make(0.1), Object::make(-2.5e-300)},
      {Object::make(std::string("a<b & \"c\"")), Object::make(std::string())},
      {Object::make(std::vector<std::uint8_t>{0, 1, 0xfe, 0xff, 'x'}),
       Object::make(std::vector<std::uint8_t>{})},
  };
}

/// Routes the SAX events of `<wrap ...><v>...</v></wrap>` into one
/// ValueReader for the value element.
class ValueHandler final : public xml::ContentHandler {
 public:
  explicit ValueHandler(const TypeInfo& type) : reader(type) {}

  void start_element(const xml::QName& name,
                     const xml::Attributes& attrs) override {
    if (depth_++ == 1)
      reader.begin(attrs);
    else if (depth_ > 2)
      reader.start_element(name, attrs);
  }
  void end_element(const xml::QName& name) override {
    if (depth_-- > 1) reader.end_element(name);
  }
  void characters(std::string_view text) override {
    if (depth_ > 1) reader.characters(text);
  }

  soap::ValueReader reader;

 private:
  int depth_ = 0;
};

Object soap_round_trip(const Object& value) {
  xml::Writer w(false);
  w.start_element("wrap")
      .attribute("xmlns:xsi", soap::kXsiNs)
      .attribute("xmlns:xsd", soap::kXsdNs);
  soap::write_value(w, "v", value.type(), value.data());
  w.end_element();
  ValueHandler handler(value.type());
  xml::SaxParser{}.parse(w.finish(), handler);
  EXPECT_TRUE(handler.reader.done());
  return handler.reader.take();
}

TEST(PrimitiveRowTest, EveryPrimitiveKindHasACompleteRow) {
  std::set<Kind> covered;
  for (const Sample& s : samples()) {
    const TypeInfo& t = s.value.type();
    covered.insert(t.kind);
    ASSERT_NE(t.ops, nullptr) << t.name;
    const PrimitiveOps& row = *t.ops;
    ASSERT_NE(row.xsd_name, nullptr) << t.name;
    EXPECT_EQ(std::string_view(row.xsd_name).substr(0, 4), "xsd:");
    EXPECT_NE(row.copy, nullptr) << t.name;
    EXPECT_NE(row.equals, nullptr) << t.name;
    EXPECT_NE(row.append_text, nullptr) << t.name;
    EXPECT_NE(row.parse_text, nullptr) << t.name;
    EXPECT_NE(row.encode, nullptr) << t.name;
    EXPECT_NE(row.decode, nullptr) << t.name;
    EXPECT_NE(row.owned_heap, nullptr) << t.name;
    EXPECT_EQ(t.to_string_fn, nullptr) << t.name;
  }
  // Every named Kind but Struct and Array is a primitive that needs a
  // builtin, a row and a sample above.
  for (int k = 0; k < 256; ++k) {
    Kind kind = static_cast<Kind>(k);
    if (std::string_view(kind_name(kind)) == "?" || kind == Kind::Struct ||
        kind == Kind::Array)
      continue;
    EXPECT_TRUE(covered.count(kind)) << "no row sample for " << kind_name(kind);
  }
}

TEST(PrimitiveRowTest, EveryWalkerRoundTripsEveryKind) {
  for (const Sample& s : samples()) {
    const std::string& name = s.value.type().name;
    EXPECT_TRUE(deep_equals(s.value, s.value)) << name;
    EXPECT_FALSE(deep_equals(s.value, s.other)) << name;
    EXPECT_TRUE(deep_equals(deep_copy(s.value), s.value)) << name;
    EXPECT_TRUE(deep_equals(deserialize(serialize(s.value)), s.value)) << name;
    EXPECT_TRUE(deep_equals(soap_round_trip(s.value), s.value)) << name;
    EXPECT_TRUE(deep_equals(soap_round_trip(s.other), s.other)) << name;
  }
}

TEST(PrimitiveRowTest, SoapTextIsToStringText) {
  // One formatter: a number's or boolean's SOAP content is its toString.
  for (const Sample& s : samples()) {
    const TypeInfo& t = s.value.type();
    if (t.kind == Kind::String || t.kind == Kind::Bytes) continue;
    for (const Object* o : {&s.value, &s.other}) {
      xml::Writer w(false);
      soap::write_value(w, "v", t, o->data());
      EXPECT_EQ(w.finish(), "<v xsi:type=\"" + std::string(t.ops->xsd_name) +
                                "\">" + to_string(*o) + "</v>");
    }
  }
}

TEST(PrimitiveRowTest, BytesHaveNoToString) {
  Object bytes = Object::make(std::vector<std::uint8_t>{1, 2, 3});
  EXPECT_THROW(to_string(bytes), SerializationError);
  std::string out;
  EXPECT_THROW(to_string_append(bytes, out), SerializationError);
}

}  // namespace
}  // namespace wsc::reflect

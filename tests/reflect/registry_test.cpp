#include "reflect/registry.hpp"

#include <gtest/gtest.h>

#include "reflect/builder.hpp"
#include "tests/reflect/test_types.hpp"

namespace wsc::reflect {
namespace {

using testing::ensure_test_types;
using testing::Point;
using testing::Polygon;

struct RegistryFixture : ::testing::Test {
  void SetUp() override { ensure_test_types(); }
};

TEST_F(RegistryFixture, BuiltinsHaveExpectedKindsAndTraits) {
  EXPECT_EQ(type_of<bool>().kind, Kind::Bool);
  EXPECT_EQ(type_of<std::int32_t>().kind, Kind::Int32);
  EXPECT_EQ(type_of<std::int64_t>().kind, Kind::Int64);
  EXPECT_EQ(type_of<double>().kind, Kind::Double);
  EXPECT_EQ(type_of<std::string>().kind, Kind::String);
  EXPECT_EQ(type_of<std::vector<std::uint8_t>>().kind, Kind::Bytes);

  EXPECT_TRUE(type_of<std::string>().traits.immutable);
  EXPECT_FALSE(type_of<std::vector<std::uint8_t>>().traits.immutable);
  EXPECT_TRUE(type_of<std::int32_t>().traits.serializable);
  EXPECT_FALSE(type_of<std::string>().traits.cloneable);
}

TEST_F(RegistryFixture, BuiltinNamesMatchXsdVocabulary) {
  EXPECT_EQ(type_of<bool>().name, "boolean");
  EXPECT_EQ(type_of<std::int32_t>().name, "int");
  EXPECT_EQ(type_of<std::string>().name, "string");
  EXPECT_EQ(type_of<std::vector<std::uint8_t>>().name, "base64Binary");
}

TEST_F(RegistryFixture, TypeOfIsStablePerType) {
  EXPECT_EQ(&type_of<Point>(), &type_of<Point>());
  EXPECT_EQ(&type_of<std::string>(), &type_of<std::string>());
}

TEST_F(RegistryFixture, RegisteredStructDescribesFields) {
  const TypeInfo& t = type_of<Point>();
  EXPECT_EQ(t.kind, Kind::Struct);
  ASSERT_EQ(t.fields.size(), 3u);
  EXPECT_EQ(t.fields[0].name, "x");
  EXPECT_EQ(t.fields[2].type, &type_of<std::string>());
  EXPECT_NE(t.field("label"), nullptr);
  EXPECT_EQ(t.field("nope"), nullptr);
}

TEST_F(RegistryFixture, FieldAccessorsResolveAddresses) {
  Point p{3, 4, "hi"};
  const TypeInfo& t = type_of<Point>();
  EXPECT_EQ(*static_cast<std::int32_t*>(t.field("x")->at(&p)), 3);
  const Point& cp = p;
  EXPECT_EQ(*static_cast<const std::string*>(t.field("label")->at(&cp)), "hi");
  *static_cast<std::int32_t*>(t.field("y")->at(&p)) = 99;
  EXPECT_EQ(p.y, 99);
}

TEST_F(RegistryFixture, ArrayTypesCreatedOnDemand) {
  const TypeInfo& arr = type_of<std::vector<Point>>();
  EXPECT_EQ(arr.kind, Kind::Array);
  EXPECT_EQ(arr.element, &type_of<Point>());
  EXPECT_EQ(arr.name, "ArrayOftest.Point");
  // Registered in the global registry too.
  EXPECT_EQ(TypeRegistry::instance().find("ArrayOftest.Point"), &arr);
}

TEST_F(RegistryFixture, ArrayOpsWork) {
  const TypeInfo& arr = type_of<std::vector<std::string>>();
  std::vector<std::string> v{"a", "b"};
  EXPECT_EQ(arr.array_size(&v), 2u);
  arr.array_resize(&v, 3);
  EXPECT_EQ(v.size(), 3u);
  *static_cast<std::string*>(arr.array_at(&v, 2)) = "c";
  EXPECT_EQ(v[2], "c");
}

TEST_F(RegistryFixture, NestedArrayTypes) {
  const TypeInfo& arr2 = type_of<std::vector<std::vector<std::string>>>();
  EXPECT_EQ(arr2.kind, Kind::Array);
  EXPECT_EQ(arr2.element->kind, Kind::Array);
  EXPECT_EQ(arr2.element->element, &type_of<std::string>());
}

TEST_F(RegistryFixture, LookupByName) {
  EXPECT_EQ(&TypeRegistry::instance().get("test.Point"), &type_of<Point>());
  EXPECT_EQ(TypeRegistry::instance().find("does.not.Exist"), nullptr);
  EXPECT_THROW(TypeRegistry::instance().get("does.not.Exist"), ReflectionError);
}

TEST_F(RegistryFixture, DuplicateRegistrationThrows) {
  EXPECT_THROW(
      StructBuilder<Point>("test.Point").field("x", &Point::x).register_type(),
      ReflectionError);
}

TEST_F(RegistryFixture, UnregisteredTypeThrows) {
  struct NeverRegistered {};
  EXPECT_THROW(type_of<NeverRegistered>(), ReflectionError);
}

TEST_F(RegistryFixture, TraitsReflectBuilderCalls) {
  ensure_test_types();
  EXPECT_TRUE(type_of<Point>().traits.serializable);
  EXPECT_TRUE(type_of<Point>().traits.cloneable);
  EXPECT_TRUE(type_of<Point>().traits.bean);
  EXPECT_FALSE(type_of<testing::NoClone>().traits.cloneable);
  EXPECT_FALSE(type_of<testing::NoSerialize>().traits.serializable);
  EXPECT_FALSE(type_of<testing::Opaque>().traits.bean);
  EXPECT_TRUE(type_of<testing::Token>().traits.immutable);
}

TEST_F(RegistryFixture, DeepSerializabilityDetectsBadField) {
  EXPECT_TRUE(type_of<Polygon>().is_deeply_serializable());
  // Wrapper is declared serializable but embeds NoSerialize.
  EXPECT_TRUE(type_of<testing::Wrapper>().traits.serializable);
  EXPECT_FALSE(type_of<testing::Wrapper>().is_deeply_serializable());
}

TEST_F(RegistryFixture, ReflectabilityRules) {
  EXPECT_TRUE(type_of<Polygon>().is_reflectable());
  EXPECT_FALSE(type_of<testing::Opaque>().is_reflectable());
  EXPECT_TRUE(type_of<std::string>().is_reflectable());  // leaf
}

TEST_F(RegistryFixture, TypeNamesListsRegistrations) {
  auto names = TypeRegistry::instance().type_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "test.Point"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "string"), names.end());
}

TEST(KindNameTest, AllKindsNamed) {
  EXPECT_STREQ(kind_name(Kind::Bool), "bool");
  EXPECT_STREQ(kind_name(Kind::Struct), "struct");
  EXPECT_STREQ(kind_name(Kind::Array), "array");
  EXPECT_STREQ(kind_name(Kind::Bytes), "bytes");
}

}  // namespace
}  // namespace wsc::reflect

// Applicability matrix (Table 3) and the §6 auto-selector.
#include "core/representation.hpp"

#include <gtest/gtest.h>

#include "services/google/types.hpp"
#include "tests/reflect/test_types.hpp"

namespace wsc::cache {
namespace {

using reflect::type_of;
using reflect::testing::ensure_test_types;
using reflect::testing::NoClone;
using reflect::testing::NoSerialize;
using reflect::testing::Opaque;
using reflect::testing::Polygon;
using reflect::testing::Token;

struct RepresentationFixture : ::testing::Test {
  void SetUp() override {
    ensure_test_types();
    services::google::ensure_google_types();
  }
};

TEST_F(RepresentationFixture, XmlAndSaxApplyToEverything) {
  for (const reflect::TypeInfo* t :
       {&type_of<std::string>(), &type_of<std::vector<std::uint8_t>>(),
        &type_of<Polygon>(), &type_of<Opaque>(), &type_of<NoSerialize>()}) {
    EXPECT_TRUE(applicable(Representation::XmlMessage, *t, false)) << t->name;
    EXPECT_TRUE(applicable(Representation::SaxEvents, *t, false)) << t->name;
  }
}

TEST_F(RepresentationFixture, SerializedNeedsDeepSerializability) {
  EXPECT_TRUE(applicable(Representation::Serialized, type_of<Polygon>(), false));
  EXPECT_TRUE(applicable(Representation::Serialized, type_of<std::string>(), false));
  EXPECT_FALSE(applicable(Representation::Serialized, type_of<NoSerialize>(), false));
  EXPECT_FALSE(
      applicable(Representation::Serialized, type_of<reflect::testing::Wrapper>(), false));
}

TEST_F(RepresentationFixture, ReflectionNeedsBeanOrArray) {
  EXPECT_TRUE(applicable(Representation::ReflectionCopy, type_of<Polygon>(), false));
  EXPECT_TRUE(applicable(Representation::ReflectionCopy,
                         type_of<std::vector<std::uint8_t>>(), false));
  EXPECT_TRUE(applicable(Representation::ReflectionCopy,
                         type_of<std::vector<std::string>>(), false));
  EXPECT_FALSE(applicable(Representation::ReflectionCopy, type_of<std::string>(), false));
  EXPECT_FALSE(applicable(Representation::ReflectionCopy, type_of<Opaque>(), false));
}

TEST_F(RepresentationFixture, CloneNeedsGeneratedClone) {
  EXPECT_TRUE(applicable(Representation::CloneCopy, type_of<Polygon>(), false));
  EXPECT_FALSE(applicable(Representation::CloneCopy, type_of<NoClone>(), false));
  EXPECT_FALSE(applicable(Representation::CloneCopy, type_of<std::string>(), false));
  // Arrays clone via the vector copy constructor.
  EXPECT_TRUE(applicable(Representation::CloneCopy,
                         type_of<std::vector<std::string>>(), false));
}

TEST_F(RepresentationFixture, ReferenceNeedsImmutabilityOrDeclaration) {
  EXPECT_TRUE(applicable(Representation::Reference, type_of<std::string>(), false));
  EXPECT_TRUE(applicable(Representation::Reference, type_of<Token>(), false));
  EXPECT_FALSE(applicable(Representation::Reference, type_of<Polygon>(), false));
  // The administrator's read-only declaration unlocks it (§4.2.4).
  EXPECT_TRUE(applicable(Representation::Reference, type_of<Polygon>(), true));
  EXPECT_TRUE(applicable(Representation::Reference,
                         type_of<std::vector<std::uint8_t>>(), true));
}

// --- §6 auto-selection ----------------------------------------------------------

TEST_F(RepresentationFixture, AutoSelectFollowsSection6Order) {
  // a) immutable -> reference
  EXPECT_EQ(auto_select(type_of<std::string>(), false), Representation::Reference);
  EXPECT_EQ(auto_select(type_of<Token>(), false), Representation::Reference);
  // b) bean/array -> reflection
  EXPECT_EQ(auto_select(type_of<Polygon>(), false), Representation::ReflectionCopy);
  EXPECT_EQ(auto_select(type_of<std::vector<std::uint8_t>>(), false),
            Representation::ReflectionCopy);
  // c) serializable (but not bean/array): Opaque is neither -> d
  // d) fallback -> SAX events
  EXPECT_EQ(auto_select(type_of<Opaque>(), false), Representation::SaxEvents);
}

TEST_F(RepresentationFixture, AutoSelectSerializableNonBean) {
  // A non-bean but serializable struct hits rule (c).  Build one on the fly.
  struct SealedRecord {
    std::string data;
  };
  static const reflect::TypeInfo& t =
      reflect::StructBuilder<SealedRecord>("test.SealedRecord")
          .field("data", &SealedRecord::data)
          .not_bean()
          .serializable()
          .register_type();
  EXPECT_EQ(auto_select(t, false), Representation::Serialized);
}

TEST_F(RepresentationFixture, ReadOnlyDeclarationShortCircuits) {
  EXPECT_EQ(auto_select(type_of<Polygon>(), true), Representation::Reference);
}

TEST_F(RepresentationFixture, PreferCloneUpgradesBeanRule) {
  EXPECT_EQ(auto_select(type_of<Polygon>(), false, true), Representation::CloneCopy);
  // Without a clone, prefer_clone falls through to reflection.
  EXPECT_EQ(auto_select(type_of<NoClone>(), false, true),
            Representation::ReflectionCopy);
}

TEST_F(RepresentationFixture, AutoSelectionForGoogleTypes) {
  using services::google::GoogleSearchResult;
  // The paper's own summary: String -> reference, byte[]/beans -> reflection.
  EXPECT_EQ(auto_select(type_of<std::string>(), false), Representation::Reference);
  EXPECT_EQ(auto_select(type_of<std::vector<std::uint8_t>>(), false),
            Representation::ReflectionCopy);
  EXPECT_EQ(auto_select(type_of<GoogleSearchResult>(), false),
            Representation::ReflectionCopy);
}

TEST_F(RepresentationFixture, AutoIsAlwaysApplicable) {
  EXPECT_TRUE(applicable(Representation::Auto, type_of<Opaque>(), false));
}

TEST(RepresentationNamesTest, FromNameRoundTripsEveryValue) {
  // Every enum value (the concrete representations AND Auto) must
  // round-trip through its display name — the adaptive policy keys its
  // models off names parsed back from cost-profile rows.
  std::vector<Representation> all(kConcreteRepresentations.begin(),
                                  kConcreteRepresentations.end());
  all.push_back(Representation::Auto);
  for (Representation r : all) {
    const std::optional<Representation> parsed =
        representation_from_name(representation_name(r));
    ASSERT_TRUE(parsed.has_value()) << representation_name(r);
    EXPECT_EQ(*parsed, r) << representation_name(r);
  }
  EXPECT_FALSE(representation_from_name("").has_value());
  EXPECT_FALSE(representation_from_name("XML").has_value());
  EXPECT_FALSE(representation_from_name("xml message").has_value());
  EXPECT_FALSE(representation_from_name("Pass by reference ").has_value());
}

TEST(RepresentationNamesTest, RetiredCompactSaxNameIsRejected) {
  // "SAX events sequence" is the one SAX representation; the name of the
  // former second form must not parse to anything.
  EXPECT_FALSE(representation_from_name("SAX events compact").has_value());
}

TEST_F(RepresentationFixture, ApplicableRepresentationsMatchesMatrix) {
  using services::google::GoogleSearchResult;
  // Mutable bean: everything except Reference (and never Auto).
  const std::vector<Representation> bean =
      applicable_representations(type_of<GoogleSearchResult>(), false);
  EXPECT_EQ(bean.size(), kConcreteRepresentationCount - 1);
  for (Representation r : bean) {
    EXPECT_NE(r, Representation::Reference);
    EXPECT_NE(r, Representation::Auto);
    EXPECT_TRUE(applicable(r, type_of<GoogleSearchResult>(), false));
  }
  // The read-only declaration unlocks Reference: every concrete form.
  EXPECT_EQ(
      applicable_representations(type_of<GoogleSearchResult>(), true).size(),
      kConcreteRepresentationCount);
  // Opaque (no serialization, no reflection, no clone, mutable): only the
  // two universal XML/SAX forms remain.
  const std::vector<Representation> opaque =
      applicable_representations(type_of<Opaque>(), false);
  EXPECT_EQ(opaque, (std::vector<Representation>{Representation::XmlMessage,
                                                 Representation::SaxEvents}));
}

TEST(RepresentationNamesTest, AllNamed) {
  EXPECT_EQ(representation_name(Representation::XmlMessage), "XML message");
  EXPECT_EQ(representation_name(Representation::SaxEvents), "SAX events sequence");
  EXPECT_EQ(representation_name(Representation::Serialized), "Java serialization");
  EXPECT_EQ(representation_name(Representation::ReflectionCopy), "Copy by reflection");
  EXPECT_EQ(representation_name(Representation::CloneCopy), "Copy by clone");
  EXPECT_EQ(representation_name(Representation::Reference), "Pass by reference");
  EXPECT_EQ(key_method_name(KeyMethod::ToString), "toString method");
}

}  // namespace
}  // namespace wsc::cache

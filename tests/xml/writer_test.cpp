#include "xml/writer.hpp"

#include <gtest/gtest.h>

#include "tests/support/dom.hpp"
#include "util/error.hpp"

namespace wsc::xml {
namespace {

TEST(WriterTest, EmptyElementCollapses) {
  Writer w(false);
  w.start_element("a").end_element();
  EXPECT_EQ(w.finish(), "<a/>");
}

TEST(WriterTest, DeclarationEmittedByDefault) {
  Writer w;
  w.start_element("a").end_element();
  EXPECT_EQ(w.finish(), "<?xml version=\"1.0\" encoding=\"UTF-8\"?><a/>");
}

TEST(WriterTest, NestedStructure) {
  Writer w(false);
  w.start_element("a");
  w.start_element("b").text("x").end_element();
  w.text_element("c", "y");
  w.end_element();
  EXPECT_EQ(w.finish(), "<a><b>x</b><c>y</c></a>");
}

TEST(WriterTest, AttributesBeforeContent) {
  Writer w(false);
  w.start_element("a").attribute("k", "v").attribute("n", "2");
  w.text("body").end_element();
  EXPECT_EQ(w.finish(), "<a k=\"v\" n=\"2\">body</a>");
}

TEST(WriterTest, TextIsEscaped) {
  Writer w(false);
  w.start_element("a").text("x < y & z").end_element();
  EXPECT_EQ(w.finish(), "<a>x &lt; y &amp; z</a>");
}

TEST(WriterTest, AttributeValueIsEscaped) {
  Writer w(false);
  w.start_element("a").attribute("k", "say \"hi\" & <go>").end_element();
  EXPECT_EQ(w.finish(), "<a k=\"say &quot;hi&quot; &amp; &lt;go&gt;\"/>");
}

TEST(WriterTest, RawBypassesEscaping) {
  Writer w(false);
  w.start_element("a").raw("QUJD+/==").end_element();
  EXPECT_EQ(w.finish(), "<a>QUJD+/==</a>");
}

TEST(WriterTest, AttributeAfterContentThrows) {
  Writer w(false);
  w.start_element("a").text("x");
  EXPECT_THROW(w.attribute("k", "v"), Error);
}

TEST(WriterTest, EndWithoutStartThrows) {
  Writer w(false);
  EXPECT_THROW(w.end_element(), Error);
}

TEST(WriterTest, FinishWithOpenElementThrows) {
  Writer w(false);
  w.start_element("a");
  EXPECT_THROW(w.finish(), Error);
}

TEST(WriterTest, DepthTracksNesting) {
  Writer w(false);
  EXPECT_EQ(w.depth(), 0u);
  w.start_element("a");
  w.start_element("b");
  EXPECT_EQ(w.depth(), 2u);
  w.end_element();
  EXPECT_EQ(w.depth(), 1u);
  w.end_element();
  w.finish();
}

TEST(WriterTest, OutputReparsesToSameStructure) {
  Writer w(false);
  w.start_element("root").attribute("id", "1");
  for (int i = 0; i < 3; ++i) w.text_element("item", "v" + std::to_string(i));
  w.end_element();
  Document doc = parse_document(w.finish());
  EXPECT_EQ(doc.root->name().local, "root");
  EXPECT_EQ(doc.root->children_named("item").size(), 3u);
  EXPECT_EQ(doc.root->attribute("id"), "1");
}

TEST(WriterTest, EscapedContentSurvivesRoundTrip) {
  std::string nasty = "a<b&c>\"d'\n\te";
  Writer w(false);
  w.start_element("x").attribute("k", nasty).text(nasty).end_element();
  Document doc = parse_document(w.finish());
  EXPECT_EQ(doc.root->attribute("k"), nasty);
  EXPECT_EQ(doc.root->text_content(), nasty);
}

}  // namespace
}  // namespace wsc::xml

#include "tests/support/dom.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace wsc::xml {
namespace {

TEST(DomTest, BuildsTreeFromText) {
  Document doc = parse_document("<a><b>1</b><b>2</b><c k=\"v\"/></a>");
  ASSERT_TRUE(doc.root);
  EXPECT_EQ(doc.root->name().local, "a");
  EXPECT_EQ(doc.root->children().size(), 3u);
  EXPECT_EQ(doc.root->children_named("b").size(), 2u);
  EXPECT_EQ(doc.root->child("c")->attribute("k"), "v");
  EXPECT_EQ(doc.root->child("missing"), nullptr);
}

TEST(DomTest, TextContentConcatenatesDescendants) {
  Document doc = parse_document("<a>x<b>y</b>z</a>");
  EXPECT_EQ(doc.root->text_content(), "xyz");
}

TEST(DomTest, AdjacentTextMerged) {
  // Entity boundary creates multiple characters() events; DOM merges them.
  Document doc = parse_document("<a>x&amp;y</a>");
  ASSERT_EQ(doc.root->children().size(), 1u);
  EXPECT_EQ(doc.root->children()[0]->text(), "x&y");
}

TEST(DomTest, NamespacesPreserved) {
  Document doc = parse_document("<p:a xmlns:p=\"urn:x\"/>");
  EXPECT_EQ(doc.root->name().uri, "urn:x");
  EXPECT_EQ(doc.root->name().local, "a");
  EXPECT_EQ(doc.root->name().raw, "p:a");
}

TEST(DomTest, TypeMismatchAccessorsThrow) {
  Document doc = parse_document("<a>t</a>");
  const Node& text = *doc.root->children()[0];
  EXPECT_THROW(text.name(), Error);
  EXPECT_THROW(text.attributes(), Error);
  EXPECT_THROW(text.children(), Error);
  EXPECT_THROW(doc.root->text(), Error);
}

TEST(DomTest, ToXmlRoundTrips) {
  const char* text = "<a k=\"v\"><b>x &amp; y</b><c/></a>";
  Document doc = parse_document(text);
  EXPECT_EQ(doc.root->to_xml(), text);
}

TEST(DomTest, ToXmlEscapesAttributeQuotes) {
  Document a = parse_document("<a k=\"say &quot;hi&quot;\"/>");
  Document b = parse_document(a.root->to_xml());
  EXPECT_EQ(b.root->attribute("k"), "say \"hi\"");
}

TEST(DomTest, ManualConstruction) {
  NodePtr root = Node::make_element(QName{"", "root", "root"});
  root->append_child(Node::make_text("hello"));
  Node& child = root->append_child(Node::make_element(QName{"", "c", "c"}));
  child.append_child(Node::make_text("x"));
  EXPECT_EQ(root->to_xml(), "<root>hello<c>x</c></root>");
}

TEST(DomTest, BuilderRejectsTakeWithoutDocument) {
  DomBuilder builder;
  EXPECT_THROW(builder.take(), ParseError);
}

TEST(DomTest, DeepNestingSurvives) {
  std::string open, close;
  for (int i = 0; i < 200; ++i) {
    open += "<e>";
    close = "</e>" + close;
  }
  Document doc = parse_document(open + "x" + close);
  const Node* n = doc.root.get();
  int depth = 1;
  while (n->child("e")) {
    n = n->child("e");
    ++depth;
  }
  EXPECT_EQ(depth, 200);
  EXPECT_EQ(doc.root->text_content(), "x");
}

}  // namespace
}  // namespace wsc::xml

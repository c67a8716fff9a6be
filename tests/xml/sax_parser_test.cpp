#include "xml/sax_parser.hpp"

#include <gtest/gtest.h>

#include "tests/support/dom.hpp"
#include "tests/xml/event_log.hpp"
#include "util/error.hpp"
#include "xml/compact_event_sequence.hpp"

namespace wsc::xml {
namespace {

/// Flattens events into a readable trace for compact assertions.
std::string trace(std::string_view doc) {
  struct Tracer : ContentHandler {
    std::string out;
    void start_document() override { out += "(doc "; }
    void end_document() override { out += ")"; }
    void start_element(const QName& n, const Attributes& attrs) override {
      out += "<" + (n.uri.empty() ? n.local : "{" + n.uri + "}" + n.local);
      for (const auto& a : attrs) {
        out += " " + (a.name.uri.empty() ? a.name.local
                                         : "{" + a.name.uri + "}" + a.name.local) +
               "='" + a.value + "'";
      }
      out += "> ";
    }
    void end_element(const QName& n) override { out += "</" + n.local + "> "; }
    void characters(std::string_view t) override {
      out += "'" + std::string(t) + "' ";
    }
  } tracer;
  SaxParser{}.parse(doc, tracer);
  return tracer.out;
}

TEST(SaxParserTest, MinimalDocument) {
  EXPECT_EQ(trace("<a/>"), "(doc <a> </a> )");
}

TEST(SaxParserTest, TextContent) {
  EXPECT_EQ(trace("<a>hello</a>"), "(doc <a> 'hello' </a> )");
}

TEST(SaxParserTest, NestedElements) {
  EXPECT_EQ(trace("<a><b>x</b><c/></a>"),
            "(doc <a> <b> 'x' </b> <c> </c> </a> )");
}

TEST(SaxParserTest, AttributesParsed) {
  EXPECT_EQ(trace("<a x=\"1\" y='2'/>"), "(doc <a x='1' y='2'> </a> )");
}

TEST(SaxParserTest, AttributeEntityExpansion) {
  EXPECT_EQ(trace("<a v=\"&lt;&amp;&gt;\"/>"), "(doc <a v='<&>'> </a> )");
}

TEST(SaxParserTest, TextEntityExpansion) {
  EXPECT_EQ(trace("<a>a&amp;b&#65;</a>"), "(doc <a> 'a&bA' </a> )");
}

TEST(SaxParserTest, CdataSectionIsLiteral) {
  EXPECT_EQ(trace("<a><![CDATA[<not-a-tag> & raw]]></a>"),
            "(doc <a> '<not-a-tag> & raw' </a> )");
}

TEST(SaxParserTest, CommentsAndPisSkipped) {
  EXPECT_EQ(trace("<?xml version=\"1.0\"?><!-- c --><a><!-- in -->x<?pi data?></a>"),
            "(doc <a> 'x' </a> )");
}

TEST(SaxParserTest, DoctypeSkipped) {
  EXPECT_EQ(trace("<!DOCTYPE a SYSTEM \"a.dtd\"><a/>"), "(doc <a> </a> )");
}

TEST(SaxParserTest, DefaultNamespaceApplied) {
  EXPECT_EQ(trace("<a xmlns=\"urn:x\"><b/></a>"),
            "(doc <{urn:x}a> <{urn:x}b> </b> </a> )");
}

TEST(SaxParserTest, PrefixedNamespaces) {
  EXPECT_EQ(trace("<p:a xmlns:p=\"urn:x\"><p:b/></p:a>"),
            "(doc <{urn:x}a> <{urn:x}b> </b> </a> )");
}

TEST(SaxParserTest, UnprefixedAttributeHasNoNamespace) {
  // Per XML-NS: default namespace does NOT apply to attributes.
  EXPECT_EQ(trace("<a xmlns=\"urn:x\" k=\"v\"/>"), "(doc <{urn:x}a k='v'> </a> )");
}

TEST(SaxParserTest, PrefixedAttributeResolved) {
  EXPECT_EQ(trace("<a xmlns:p=\"urn:x\" p:k=\"v\"/>"),
            "(doc <a {urn:x}k='v'> </a> )");
}

TEST(SaxParserTest, NamespaceRebinding) {
  EXPECT_EQ(trace("<p:a xmlns:p=\"urn:1\"><p:a xmlns:p=\"urn:2\"/><p:b/></p:a>"),
            "(doc <{urn:1}a> <{urn:2}a> </a> <{urn:1}b> </b> </a> )");
}

TEST(SaxParserTest, DefaultNamespaceUndeclaration) {
  EXPECT_EQ(trace("<a xmlns=\"urn:x\"><b xmlns=\"\"/></a>"),
            "(doc <{urn:x}a> <b> </b> </a> )");
}

TEST(SaxParserTest, XmlPrefixPredeclared) {
  EXPECT_EQ(trace("<a xml:lang=\"en\"/>"),
            "(doc <a {http://www.w3.org/XML/1998/namespace}lang='en'> </a> )");
}

TEST(SaxParserTest, WhitespaceBetweenElementsDelivered) {
  EXPECT_EQ(trace("<a> <b/> </a>"), "(doc <a> ' ' <b> </b> ' ' </a> )");
}

TEST(SaxParserTest, SoapEnvelopeShape) {
  const char* doc =
      "<?xml version=\"1.0\" encoding=\"UTF-8\"?>"
      "<soapenv:Envelope xmlns:soapenv=\"http://schemas.xmlsoap.org/soap/envelope/\">"
      "<soapenv:Body><ns1:doIt xmlns:ns1=\"urn:Svc\"><p>1</p></ns1:doIt>"
      "</soapenv:Body></soapenv:Envelope>";
  EXPECT_EQ(trace(doc),
            "(doc <{http://schemas.xmlsoap.org/soap/envelope/}Envelope> "
            "<{http://schemas.xmlsoap.org/soap/envelope/}Body> "
            "<{urn:Svc}doIt> <p> '1' </p> </doIt> </Body> </Envelope> )");
}

// --- well-formedness violations ---------------------------------------------

class SaxParserRejects : public ::testing::TestWithParam<const char*> {};

TEST_P(SaxParserRejects, ThrowsParseError) {
  struct Null : ContentHandler {
  } handler;
  EXPECT_THROW(SaxParser{}.parse(GetParam(), handler), ParseError);
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, SaxParserRejects,
    ::testing::Values(
        "",                                  // empty input
        "just text",                         // no element
        "<a>",                               // unclosed element
        "<a></b>",                           // mismatched end tag
        "<a><b></a></b>",                    // interleaved
        "<a/><b/>",                          // two roots
        "<a attr></a>",                      // attribute without value
        "<a attr=novalue/>",                 // unquoted value
        "<a x=\"1\" x=\"2\"/>",              // duplicate attribute
        "<a>&undefined;</a>",                // unknown entity
        "<a>&#xZZ;</a>",                     // bad char ref
        "<p:a/>",                            // unbound prefix
        "<a xmlns:p=\"\"><p:b/></a>",        // empty prefix binding
        "<a><![CDATA[unterminated</a>",      // unterminated CDATA
        "<a><!-- unterminated</a>",          // unterminated comment
        "<a>]]></a>",                        // bare CDATA terminator
        "<a b=\"<\"/>",                      // '<' in attribute value
        "<a/>trailing",                      // content after root
        "<a x=\"1\"y=\"2\"/>",               // missing space between attrs
        "<a:b:c xmlns:a=\"urn:x\"/>"));      // double colon

TEST(SaxParserTest, RecordedSequenceMatchesDirectParse) {
  const char* doc = "<a xmlns=\"urn:x\" k=\"v\"><b>text &amp; more</b></a>";
  CompactEventRecorder recorder;
  SaxParser{}.parse(doc, recorder);
  CompactEventSequence seq = recorder.take();

  // Replaying the recording produces the identical events, field for field.
  EXPECT_EQ(log_replay(seq), log_parse(doc));
}

TEST(TeeHandlerTest, DeliversToBothHandlers) {
  EventLog first, second;
  TeeHandler tee(first, second);
  SaxParser{}.parse("<a k=\"v\"><b>x</b></a>", tee);
  ASSERT_FALSE(first.lines().empty());
  EXPECT_EQ(first.lines(), second.lines());
}

TEST(TeeHandlerTest, DeserializeAndRecordInOneParse) {
  // The miss-path pattern: DOM build (stand-in for the deserializer) and
  // recording from one pass over the document.
  DomBuilder builder;
  CompactEventRecorder recorder;
  TeeHandler tee(builder, recorder);
  SaxParser{}.parse("<a>payload</a>", tee);
  EXPECT_EQ(builder.take().root->text_content(), "payload");
  EXPECT_FALSE(recorder.sequence().empty());
}

}  // namespace
}  // namespace wsc::xml

#include "xml/sax_parser.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

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

// --- reference errors carry document offsets -------------------------------

/// The ParseError a parse of `doc` raises (fails the test if none).
ParseError parse_error(std::string_view doc) {
  struct Null : ContentHandler {
  } handler;
  try {
    SaxParser{}.parse(doc, handler);
  } catch (const ParseError& e) {
    return e;
  }
  ADD_FAILURE() << "no ParseError for " << doc;
  return ParseError("none");
}

TEST(SaxParserTest, ReferenceErrorsReportDocumentOffsets) {
  // Each offset is the '&' of the bad reference in the whole document, and
  // the message has the parser's prefix like every other XML error.
  ParseError text = parse_error("<a>&bogus;</a>");
  EXPECT_EQ(text.offset(), 3u);
  EXPECT_STREQ(text.what(), "XML: unknown entity '&bogus;' (at offset 3)");

  ParseError attr = parse_error("<root><a b='xy&#xZZ;'/></root>");
  EXPECT_EQ(attr.offset(), 14u);
  EXPECT_STREQ(attr.what(),
               "XML: bad digit in character reference (at offset 14)");

  ParseError range = parse_error("<root>text &#99999999; </root>");
  EXPECT_EQ(range.offset(), 11u);
  EXPECT_STREQ(range.what(),
               "XML: character reference out of range (at offset 11)");
}

// --- character data and attribute runs ----------------------------------------

/// Every characters() chunk and every attribute value, in document order.
struct RunCollector : ContentHandler {
  std::vector<std::string> chunks;
  std::vector<std::string> values;
  void start_element(const QName&, const Attributes& attrs) override {
    for (const Attribute& a : attrs) values.push_back(a.value);
  }
  void characters(std::string_view text) override {
    chunks.emplace_back(text);
  }
};

RunCollector collect_runs(std::string_view doc) {
  RunCollector c;
  SaxParser{}.parse(doc, c);
  return c;
}

/// The text between two tags, which the parser delivers as one chunk.
std::string only_chunk(std::string_view doc) {
  RunCollector c = collect_runs(doc);
  EXPECT_EQ(c.chunks.size(), 1u) << doc;
  return c.chunks.empty() ? std::string() : c.chunks.front();
}

TEST(SaxParserRunsTest, BracketsNotClosingCdataStayInTheRun) {
  EXPECT_EQ(only_chunk("<a>x]y]]z]</a>"), "x]y]]z]");
  EXPECT_EQ(only_chunk("<a>]</a>"), "]");
  EXPECT_EQ(only_chunk("<a>]]</a>"), "]]");
  EXPECT_EQ(only_chunk("<a>]] >]</a>"), "]] >]");
}

TEST(SaxParserRunsTest, ReferencesAtEitherEndOfARun) {
  EXPECT_EQ(only_chunk("<a>&amp;mid&lt;</a>"), "&mid<");
  EXPECT_EQ(only_chunk("<a>&quot;</a>"), "\"");
  EXPECT_EQ(only_chunk("<a>&lt;&gt;&amp;&apos;</a>"), "<>&'");
  EXPECT_EQ(only_chunk("<a>plain &amp; plain</a>"), "plain & plain");
}

TEST(SaxParserRunsTest, CdataJoinsTheTextOnBothSides) {
  EXPECT_EQ(only_chunk("<a>pre<![CDATA[<c> & ]]>post</a>"), "pre<c> & post");
  EXPECT_EQ(only_chunk("<a><![CDATA[x]]>tail</a>"), "xtail");
  EXPECT_EQ(only_chunk("<a>head<![CDATA[x]]></a>"), "headx");
  EXPECT_EQ(only_chunk("<a>1<![CDATA[2]]>3<![CDATA[4]]>5</a>"), "12345");
  EXPECT_EQ(only_chunk("<a>x<!-- c -->y</a>"), "xy");
  EXPECT_TRUE(collect_runs("<a><![CDATA[]]></a>").chunks.empty());
}

TEST(SaxParserRunsTest, CharacterReferencesNextToMultiByteUtf8) {
  // e-acute written raw then as &#233;, the euro sign raw then as &#x20AC;.
  EXPECT_EQ(only_chunk("<a>caf\xc3\xa9&#233;\xe2\x82\xac&#x20AC;</a>"),
            "caf\xc3\xa9\xc3\xa9\xe2\x82\xac\xe2\x82\xac");
  EXPECT_EQ(only_chunk("<a>&#x1F600;\xf0\x9f\x98\x80</a>"),
            "\xf0\x9f\x98\x80\xf0\x9f\x98\x80");
}

TEST(SaxParserRunsTest, AttributeValuesWithAndWithoutReferences) {
  RunCollector c = collect_runs(
      "<a p=\"plain\" q='a&amp;b' r=\"&lt;&#65;&gt;\" s=\"\" "
      "t=\"caf\xc3\xa9&#233;\"><b p=\"plain\" q=\"&quot;x&quot;\"/></a>");
  EXPECT_EQ(c.values,
            (std::vector<std::string>{"plain", "a&b", "<A>", "",
                                      "caf\xc3\xa9\xc3\xa9", "plain",
                                      "\"x\""}));
  EXPECT_TRUE(c.chunks.empty());
}

TEST(SaxParserRunsTest, AttributeListsOfEveryLength) {
  // Tags with 0..20 attributes and back: short lists are reused per count,
  // long ones share one list that grows and shrinks.
  std::string doc = "<r>";
  std::vector<std::string> expected;
  auto tag = [&](int n) {
    doc += "<t";
    for (int i = 0; i < n; ++i) {
      std::string value = std::to_string(n) + "." + std::to_string(i);
      doc += " a" + std::to_string(i) + "=\"" + value + "&amp;\"";
      expected.push_back(value + "&");
    }
    doc += "/>";
  };
  for (int n = 0; n <= 20; ++n) tag(n);
  for (int n = 20; n >= 0; --n) tag(n);
  doc += "</r>";
  EXPECT_EQ(collect_runs(doc).values, expected);
  EXPECT_EQ(collect_runs(doc).values, expected);  // lists reused a second time
}

TEST(SaxParserRunsTest, LargeDocument) {
  // Past the size whose buffers the thread keeps, a document gets a parser
  // of its own; its events are the same.
  std::string text;
  for (int i = 0; i < 20000; ++i) text += "ab&amp;";
  RunCollector c = collect_runs("<a k=\"v\">" + text + "</a>");
  ASSERT_EQ(c.chunks.size(), 1u);
  EXPECT_EQ(c.chunks.front().size(), 20000u * 3u);
  EXPECT_EQ(c.chunks.front().substr(0, 6), "ab&ab&");
  EXPECT_EQ(c.values, (std::vector<std::string>{"v"}));
}

// --- the per-thread parser ------------------------------------------------------

TEST(SaxParserTest, ParseInsideACallbackLeavesTheOuterParseIntact) {
  // A handler that parses another document mid-event: the thread's parser
  // is busy, so the inner parse must not disturb the outer one's state.
  const char* outer = "<p:a xmlns:p=\"urn:outer\" k=\"v\"><p:b>one</p:b>"
                      "<p:c x=\"&amp;\">two</p:c></p:a>";
  const char* inner = "<p:x xmlns:p=\"urn:inner\" y=\"1\">&lt;z&gt;</p:x>";
  struct Nesting final : ContentHandler {
    EventLog log;
    std::vector<std::string> inner_log;
    const char* inner = nullptr;
    void start_document() override { log.start_document(); }
    void end_document() override { log.end_document(); }
    void start_element(const QName& n, const Attributes& a) override {
      log.start_element(n, a);
      if (n.local == "b") inner_log = log_parse(inner);
    }
    void end_element(const QName& n) override { log.end_element(n); }
    void characters(std::string_view t) override { log.characters(t); }
  } nesting;
  nesting.inner = inner;
  SaxParser{}.parse(outer, nesting);
  EXPECT_EQ(nesting.log.lines(), log_parse(outer));
  EXPECT_EQ(nesting.inner_log, log_parse(inner));
}

TEST(SaxParserTest, NothingCarriesOverFromAFailedParse) {
  // The failed parse leaves a binding for p on the thread parser's stack;
  // the next parse must not see it.
  EXPECT_THROW(log_parse("<p:a xmlns:p=\"urn:x\"><p:b>text"), ParseError);
  ParseError unbound = parse_error("<p:a/>");
  EXPECT_STREQ(unbound.what(),
               "XML: unbound namespace prefix 'p' (at offset 6)");
  EXPECT_EQ(trace("<a>x</a>"), "(doc <a> 'x' </a> )");
}

TEST(SaxParserTest, ManyDistinctNamesThenAnOrdinaryDocument) {
  // More distinct names than the thread's parser keeps between parses: the
  // next parse starts from an emptied name table and still reports names
  // exactly.
  std::string many = "<r>";
  for (int i = 0; i < 5000; ++i) many += "<n" + std::to_string(i) + "/>";
  many += "</r>";
  EXPECT_EQ(log_parse(many).size(), 2u + 2u + 2u * 5000u);
  const char* doc = "<a xmlns=\"urn:x\" k=\"v\"><n7>t</n7></a>";
  EXPECT_EQ(trace(doc), "(doc <{urn:x}a k='v'> <{urn:x}n7> 't' </n7> </a> )");
}

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

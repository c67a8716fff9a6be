// Robustness sweeps: the SAX parser must never crash, hang or corrupt
// memory on hostile input — every outcome is either a successful parse or
// a wsc::ParseError.  (Poor-man's fuzzing with deterministic seeds.)
#include <gtest/gtest.h>

#include "soap/deserializer.hpp"
#include "soap/serializer.hpp"
#include "tests/soap/test_service.hpp"
#include "tests/support/dom.hpp"
#include "util/random.hpp"
#include "xml/sax_parser.hpp"

namespace wsc::xml {
namespace {

struct NullHandler : ContentHandler {};

/// Parse arbitrary bytes; the only acceptable failure is ParseError.
void parse_must_not_crash(const std::string& input) {
  NullHandler handler;
  try {
    SaxParser{}.parse(input, handler);
  } catch (const wsc::ParseError&) {
    // expected for malformed input
  }
}

TEST(FuzzTest, RandomBytesNeverCrash) {
  util::Rng rng(0xF00D);
  for (int i = 0; i < 300; ++i) {
    auto bytes = rng.next_bytes(rng.next_below(400));
    parse_must_not_crash(std::string(bytes.begin(), bytes.end()));
  }
}

TEST(FuzzTest, RandomMarkupSoupNeverCrashes) {
  static const char* kFragments[] = {
      "<",       ">",         "</",     "/>",    "<?",      "?>",
      "<!--",    "-->",       "<![CDATA[", "]]>", "&",      ";",
      "&amp;",   "&#x",       "=",      "\"",    "'",       "a",
      "xmlns",   "xmlns:p",   "<a",     "</a>",  " ",       "\n",
      "<a>",     "p:",        "<!DOCTYPE", "#",   "%",      "\0\x01",
  };
  util::Rng rng(0xBEEF);
  for (int i = 0; i < 500; ++i) {
    std::string doc;
    int n = static_cast<int>(1 + rng.next_below(30));
    for (int j = 0; j < n; ++j)
      doc += kFragments[rng.next_below(std::size(kFragments))];
    parse_must_not_crash(doc);
  }
}

TEST(FuzzTest, MutatedValidDocumentsNeverCrash) {
  const std::string valid =
      "<?xml version=\"1.0\"?><soapenv:Envelope "
      "xmlns:soapenv=\"http://schemas.xmlsoap.org/soap/envelope/\">"
      "<soapenv:Body><ns1:doIt xmlns:ns1=\"urn:Svc\">"
      "<p xsi:type=\"xsd:string\" xmlns:xsi=\"urn:x\">a&amp;b</p>"
      "</ns1:doIt></soapenv:Body></soapenv:Envelope>";
  util::Rng rng(0xCAFE);
  for (int i = 0; i < 500; ++i) {
    std::string doc = valid;
    int mutations = static_cast<int>(1 + rng.next_below(4));
    for (int m = 0; m < mutations; ++m) {
      if (doc.empty()) break;
      std::size_t pos = rng.next_below(doc.size());
      switch (rng.next_below(4)) {
        case 0: doc[pos] = static_cast<char>(rng.next_below(256)); break;
        case 1: doc.erase(pos, 1 + rng.next_below(5)); break;
        case 2: doc.insert(pos, 1, static_cast<char>(rng.next_below(128))); break;
        case 3: doc = doc.substr(0, pos); break;  // truncate
      }
    }
    parse_must_not_crash(doc);
  }
}

TEST(FuzzTest, DeeplyNestedDocumentBounded) {
  // 100k nesting levels: recursion-free parsing must survive (the element
  // stack is heap-allocated).
  std::string open, close;
  for (int i = 0; i < 100'000; ++i) {
    open += "<e>";
    close += "</e>";
  }
  NullHandler handler;
  SaxParser{}.parse(open + close, handler);
  SUCCEED();
}

TEST(FuzzTest, HugeAttributeAndTextValues) {
  std::string doc = "<a k=\"" + std::string(1 << 20, 'v') + "\">" +
                    std::string(1 << 20, 't') + "</a>";
  Document parsed = parse_document(doc);
  EXPECT_EQ(parsed.root->attribute("k").size(), std::size_t{1} << 20);
}

TEST(FuzzTest, SoapResponseReaderSurvivesMutations) {
  // The full decode pipeline (parser + ResponseReader + ValueReader) under
  // mutation: success or wsc::Error, never a crash.
  reflect::testing::ensure_test_types();
  const auto& op =
      wsc::soap::testing::test_description()->require_operation("echoPolygon");
  std::string valid = wsc::soap::serialize_response(
      op, "urn:Test",
      reflect::Object::make(reflect::testing::sample_polygon()));
  util::Rng rng(0xD1CE);
  for (int i = 0; i < 300; ++i) {
    std::string doc = valid;
    std::size_t pos = rng.next_below(doc.size());
    if (rng.next_bool()) {
      doc[pos] = static_cast<char>(rng.next_below(256));
    } else {
      doc.erase(pos, 1 + rng.next_below(20));
    }
    try {
      wsc::soap::read_response(XmlTextSource(doc), op);
    } catch (const wsc::Error&) {
      // any structured failure is fine
    }
  }
  SUCCEED();
}

}  // namespace
}  // namespace wsc::xml

// Recorded event sequences: replaying the arena-backed recording must be
// indistinguishable from the live parse — identical events field for
// field, identical DOM after a full round trip — with interned names and
// attribute lists, and ZERO heap allocations per event on replay.
#include "xml/compact_event_sequence.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <iterator>
#include <new>

#include "services/google/service.hpp"
#include "soap/serializer.hpp"
#include "tests/support/dom.hpp"
#include "tests/xml/event_log.hpp"
#include "util/error.hpp"
#include "util/random.hpp"
#include "xml/sax_parser.hpp"

// ---- global allocation counter (for the zero-alloc assertions) ---------------
//
// Replacing the global operator new/delete is binary-wide; the counter only
// ticks while a test arms it, so the other suites in xml_tests are
// unaffected (beyond going through this malloc-backed implementation).

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::size_t> g_alloc_count{0};

void* counted_alloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed))
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace wsc::xml {
namespace {

CompactEventSequence record_compact(std::string_view doc) {
  CompactEventRecorder recorder;
  SaxParser{}.parse(doc, recorder);
  return recorder.take();
}

TEST(CompactEventSequenceTest, RecordsAllEventTypes) {
  CompactEventSequence seq = record_compact("<a k=\"v\">text<b/></a>");
  ASSERT_EQ(seq.size(), 7u);
  using E = EventType;
  EXPECT_EQ(seq.events()[0].type, E::StartDocument);
  EXPECT_EQ(seq.events()[1].type, E::StartElement);
  EXPECT_EQ(seq.events()[2].type, E::Characters);
  EXPECT_EQ(seq.events()[3].type, E::StartElement);
  EXPECT_EQ(seq.events()[4].type, E::EndElement);
  EXPECT_EQ(seq.events()[5].type, E::EndElement);
  EXPECT_EQ(seq.events()[6].type, E::EndDocument);
  EXPECT_EQ(seq.arena_bytes(), 4u);  // "text"
}

TEST(CompactEventSequenceTest, ReplayBuildsIdenticalDom) {
  const char* doc = "<r a=\"1\"><x>one</x><y ns=\"2\">two &amp; three</y></r>";
  CompactEventSequence seq = record_compact(doc);

  DomBuilder from_replay;
  seq.deliver(from_replay);
  Document replayed = from_replay.take();

  Document direct = parse_document(doc);
  EXPECT_EQ(replayed.root->to_xml(), direct.root->to_xml());
}

TEST(CompactEventSequenceTest, ReplayIsRepeatable) {
  CompactEventSequence seq = record_compact("<a>x</a>");
  for (int i = 0; i < 3; ++i) {
    DomBuilder builder;
    seq.deliver(builder);
    EXPECT_EQ(builder.take().root->text_content(), "x");
  }
}

TEST(CompactEventSequenceTest, ReplayMatchesLiveParseEventForEvent) {
  const char* doc =
      "<soapenv:Envelope "
      "xmlns:soapenv=\"http://schemas.xmlsoap.org/soap/envelope/\">"
      "<soapenv:Body><ns1:r xmlns:ns1=\"urn:Svc\">"
      "<item xsi:type=\"xsd:string\" xmlns:xsi=\"urn:x\">a&amp;b</item>"
      "<item xsi:type=\"xsd:string\" xmlns:xsi=\"urn:x\">c&lt;d</item>"
      "</ns1:r></soapenv:Body></soapenv:Envelope>";
  EXPECT_EQ(log_replay(record_compact(doc)), log_parse(doc));
}

TEST(CompactEventSequenceTest, NastyCharacterDataSurvives) {
  // Entities, whitespace runs, embedded quotes and high-bit bytes.
  std::string doc =
      "<a q=\"it&apos;s &quot;fine&quot;\">  \n\t "
      "&lt;tag&gt; &amp;&amp; caf\xc3\xa9 \xe2\x82\xac</a>";
  EXPECT_EQ(log_replay(record_compact(doc)), log_parse(doc));
}

// Property: for random well-formed documents the replay is
// indistinguishable (event for event) from the live parse, and the
// replayed DOM equals the directly parsed DOM.
void gen_element(util::Rng& rng, std::string& out, int depth) {
  static const char* kNames[] = {"item", "snippet",  "URL", "ns1:result",
                                 "a",    "longName", "b"};
  const char* name = kNames[rng.next_below(std::size(kNames))];
  out += '<';
  out += name;
  if (std::string_view(name).find(':') != std::string_view::npos)
    out += " xmlns:ns1=\"urn:Rand\"";
  std::uint64_t nattrs = rng.next_below(3);
  for (std::uint64_t i = 0; i < nattrs; ++i)
    out += " k" + std::to_string(i) + "=\"" + rng.next_word(1, 8) + "\"";
  out += '>';
  std::uint64_t children = depth >= 4 ? 0 : rng.next_below(4);
  for (std::uint64_t i = 0; i < children; ++i) {
    if (rng.next_bool(0.4))
      out += rng.next_sentence(1 + rng.next_below(4));
    gen_element(rng, out, depth + 1);
  }
  if (rng.next_bool(0.6)) out += rng.next_word(1, 12);
  out += "</";
  out += name;
  out += '>';
}

TEST(CompactEventSequenceTest, RandomDocumentsReplayLikeLiveParseProperty) {
  util::Rng rng(0x5EED5EED);
  for (int iter = 0; iter < 50; ++iter) {
    std::string doc;
    gen_element(rng, doc, 0);
    SCOPED_TRACE("iter " + std::to_string(iter) + ": " + doc.substr(0, 120));

    CompactEventSequence compact = record_compact(doc);
    EXPECT_EQ(log_replay(compact), log_parse(doc));

    DomBuilder builder;
    compact.deliver(builder);
    EXPECT_EQ(builder.take().root->to_xml(),
              parse_document(doc).root->to_xml());
  }
}

TEST(CompactEventSequenceTest, InterningDeduplicatesNamesAndAttrLists) {
  std::string doc = "<list>";
  for (int i = 0; i < 100; ++i)
    doc += "<item xsi:type=\"xsd:string\" xmlns:xsi=\"urn:x\">v</item>";
  doc += "</list>";
  CompactEventSequence seq = record_compact(doc);
  // 100 repeated <item> elements intern to: list + item = 2 names, and
  // empty + the one repeated attribute list = 2 lists.
  EXPECT_EQ(seq.distinct_names(), 2u);
  EXPECT_EQ(seq.distinct_attr_lists(), 2u);
  // 1 start-doc + <list> + 100 * (start + chars + end) + </list> + end-doc.
  EXPECT_EQ(seq.size(), 304u);
  EXPECT_EQ(seq.arena_bytes(), 100u);
}

/// Counts events and text bytes without allocating.
struct CountingHandler : ContentHandler {
  std::size_t events = 0;
  std::size_t text_bytes = 0;
  void start_document() override { ++events; }
  void end_document() override { ++events; }
  void start_element(const QName&, const Attributes& attrs) override {
    events += 1 + attrs.size();
  }
  void end_element(const QName&) override { ++events; }
  void characters(std::string_view text) override {
    ++events;
    text_bytes += text.size();
  }
};

/// Heap allocations made by `fn`.
template <typename Fn>
std::size_t allocations_during(Fn&& fn) {
  g_alloc_count.store(0);
  g_count_allocs.store(true);
  fn();
  g_count_allocs.store(false);
  return g_alloc_count.load();
}

TEST(CompactEventSequenceTest, ZeroAllocationsDuringReplay) {
  // The hit-path promise: deliver() performs no heap allocation per event —
  // it hands out interned references and arena views only.  The counting
  // handler itself is allocation-free.
  std::string doc = "<r>";
  for (int i = 0; i < 200; ++i)
    doc += "<item k=\"v\">some payload text number " + std::to_string(i) +
           "</item>";
  doc += "</r>";
  CompactEventSequence seq = record_compact(doc);

  CountingHandler handler;
  EXPECT_EQ(allocations_during([&] { seq.deliver(handler); }), 0u);
  EXPECT_EQ(handler.events, seq.size() + 200 /* one attr per item */);
  EXPECT_GT(handler.text_bytes, 0u);
}

TEST(CompactEventSequenceTest, LiveParseAllocationsDoNotGrowWithResults) {
  // The miss-path counterpart: the live parse of a doGoogleSearch response
  // interns names and reuses its buffers, so what it allocates does not
  // depend on the number of result elements.  Once the thread's parser has
  // met the names and sizes, it allocates nothing at all.
  auto description = services::google::google_description();
  const wsdl::OperationInfo& op =
      description->require_operation("doGoogleSearch");
  std::vector<std::string> responses;
  for (std::int32_t results : {1, 10, 50}) {
    services::google::GoogleBackend::Config config;
    config.results_per_page = results;
    services::google::GoogleBackend backend(config);
    responses.push_back(soap::serialize_response(
        op, "urn:GoogleSearch",
        reflect::Object::make(backend.search("scaling sweep", 0, results))));
  }
  CountingHandler warm;
  for (const std::string& xml : responses) SaxParser{}.parse(xml, warm);

  std::vector<std::size_t> allocations;
  std::vector<std::size_t> events;
  for (const std::string& xml : responses) {
    CountingHandler handler;
    allocations.push_back(
        allocations_during([&] { SaxParser{}.parse(xml, handler); }));
    events.push_back(handler.events);
  }
  EXPECT_LT(events[0], events[1]);
  EXPECT_LT(events[1], events[2]);
  EXPECT_EQ(allocations[0], allocations[1]);
  EXPECT_EQ(allocations[1], allocations[2]);
  EXPECT_EQ(allocations[2], 0u);
}

TEST(CompactEventSequenceTest, EmptySequence) {
  CompactEventSequence seq;
  EXPECT_TRUE(seq.empty());
  EXPECT_EQ(seq.size(), 0u);
  DomBuilder builder;
  seq.deliver(builder);  // no events, no crash
  EXPECT_THROW(builder.take(), ParseError);
}

TEST(CompactEventRecorderTest, ReusableAfterTake) {
  CompactEventRecorder recorder;
  SaxParser{}.parse("<a>one</a>", recorder);
  CompactEventSequence first = recorder.take();
  SaxParser{}.parse("<b two=\"2\">two</b>", recorder);
  CompactEventSequence second = recorder.take();

  EXPECT_EQ(log_replay(first), log_parse("<a>one</a>"));
  EXPECT_EQ(log_replay(second), log_parse("<b two=\"2\">two</b>"));
}

TEST(CompactEventRecorderTest, TeedRecordingMatchesLiveParse) {
  // The miss-path pattern: one parse feeds another handler and the
  // recorder; the recording must replay what the other handler heard.
  EventLog live;
  CompactEventRecorder recorder;
  TeeHandler tee(live, recorder);
  SaxParser{}.parse("<a k=\"v\"><b>x</b></a>", tee);
  EXPECT_EQ(log_replay(recorder.take()), live.lines());
}

}  // namespace
}  // namespace wsc::xml

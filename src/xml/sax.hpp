// SAX interfaces: the contract between the parser, the recorded event
// sequence, the DOM builder, and the SOAP deserializer.
//
// This mirrors the role of org.xml.sax in Apache Axis: the paper's key
// observation (section 4.2.2) is that a *recorded SAX event sequence* can be
// replayed into the same deserializer the live parser feeds, skipping the
// expensive tokenization/wellformedness work.  Keeping one handler interface
// is what makes the XML-message and SAX-events cache representations
// interchangeable.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "util/hash.hpp"

namespace wsc::xml {

/// Expanded element name after namespace processing.
struct QName {
  std::string uri;    // namespace URI, empty if unbound
  std::string local;  // local part
  std::string raw;    // as written, e.g. "soapenv:Envelope"

  bool operator==(const QName&) const = default;
};

/// One attribute after namespace processing.  xmlns declarations are
/// consumed by the parser and not reported here (matching SAX2 defaults).
struct Attribute {
  QName name;
  std::string value;  // entity-expanded

  bool operator==(const Attribute&) const = default;
};

using Attributes = std::vector<Attribute>;

/// Content hash of a QName, for interning tables (CompactEventSequence
/// dedups the handful of names a SOAP response repeats hundreds of times).
inline std::uint64_t qname_hash(const QName& q) {
  std::uint64_t h = util::fnv1a(q.uri);
  h = util::hash_combine(h, util::fnv1a(q.local));
  return util::hash_combine(h, util::fnv1a(q.raw));
}

/// Content hash of a whole attribute list (order-sensitive, as XML
/// attribute order is preserved by the parser and the writer).
inline std::uint64_t attributes_hash(const Attributes& attrs) {
  std::uint64_t h = util::kFnvOffset;
  for (const Attribute& a : attrs) {
    h = util::hash_combine(h, qname_hash(a.name));
    h = util::hash_combine(h, util::fnv1a(a.value));
  }
  return h;
}

/// Receiver of parse events.  Default implementations ignore everything so
/// handlers override only what they need.
///
/// Lifetime contract (identical to SAX2): every reference/view passed to a
/// callback — the QName, the Attributes, the characters() text — is only
/// guaranteed valid FOR THE DURATION OF THAT CALLBACK.  Handlers that keep
/// data must copy it.  Live-parser events point into parser scratch;
/// replayed CompactEventSequence events point into the sequence's arena and
/// interning tables (valid while the sequence lives, but handlers must not
/// rely on that).
class ContentHandler {
 public:
  virtual ~ContentHandler() = default;

  virtual void start_document() {}
  virtual void end_document() {}
  virtual void start_element(const QName& name, const Attributes& attrs) {
    (void)name;
    (void)attrs;
  }
  virtual void end_element(const QName& name) { (void)name; }
  /// Character data, entity-expanded.  May be delivered in multiple chunks.
  virtual void characters(std::string_view text) { (void)text; }
};

/// Anything that can drive a ContentHandler: the live parser or a recorded
/// event sequence.
class EventSource {
 public:
  virtual ~EventSource() = default;
  virtual void deliver(ContentHandler& handler) const = 0;
};

/// Fan a single event stream out to two handlers (e.g. deserialize AND
/// record in one parse, the way the cache populates itself on a miss
/// without reparsing).
class TeeHandler final : public ContentHandler {
 public:
  TeeHandler(ContentHandler& first, ContentHandler& second)
      : first_(first), second_(second) {}

  void start_document() override {
    first_.start_document();
    second_.start_document();
  }
  void end_document() override {
    first_.end_document();
    second_.end_document();
  }
  void start_element(const QName& name, const Attributes& attrs) override {
    first_.start_element(name, attrs);
    second_.start_element(name, attrs);
  }
  void end_element(const QName& name) override {
    first_.end_element(name);
    second_.end_element(name);
  }
  void characters(std::string_view text) override {
    first_.characters(text);
    second_.characters(text);
  }

 private:
  ContentHandler& first_;
  ContentHandler& second_;
};

}  // namespace wsc::xml

// Recorded SAX event sequences (paper section 4.2.2, Tables 3/4): the
// cache's "SAX events sequence" representation.
//
// `CompactEventRecorder` is a ContentHandler that captures the parse of a
// response into a `CompactEventSequence`; the cache stores the sequence,
// and on a hit replays it into the deserializer — identical events, no
// tokenizer.  The layout is compact because SOAP responses are repetitive:
// the same handful of QNames (`<item>`, `<snippet>`, `<URL>` …) and
// attribute lists (`xsi:type="xsd:string"`) repeat hundreds of times,
// while character data is unique but contiguous-appendable.
//
// Layout (see DESIGN.md "SAX event-sequence representation"):
//
//   arena_       one contiguous byte buffer holding ALL character data, in
//                event order;
//   names_       interning table of distinct QNames (materialised once, so
//                replay can hand out `const QName&` without building one);
//   attr_lists_  interning table of distinct whole attribute lists
//                (id 0 is always the empty list);
//   events_      flat fixed-width records:  { type, a, b }  where
//                  StartElement: a = name id,      b = attribute-list id
//                  EndElement:   a = name id,      b = unused
//                  Characters:   a = arena offset, b = byte length
//                  Start/EndDocument: both unused
//
// Replay (`deliver()`) walks the flat array and hands out references into
// the tables and `std::string_view`s into the arena — ZERO heap
// allocations per event (asserted by test).  Recording appends into the
// arena and tables with amortized growth — near-zero allocation on the
// miss path (only on a previously unseen name/list or a buffer grow).
//
// Views passed to the handler follow the ContentHandler lifetime contract
// (sax.hpp): valid only during the callback; handlers copy what they keep.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "xml/sax.hpp"

namespace wsc::xml {

enum class EventType : std::uint8_t {
  StartDocument,
  EndDocument,
  StartElement,
  EndElement,
  Characters,
};

class CompactEventSequence final : public EventSource {
 public:
  /// Fixed-width recorded event; meaning of a/b depends on type (above).
  struct EventRec {
    EventType type;
    std::uint32_t a = 0;
    std::uint32_t b = 0;
  };
  static_assert(sizeof(EventRec) <= 12, "EventRec must stay compact");

  void deliver(ContentHandler& handler) const override;

  std::size_t size() const noexcept { return events_.size(); }
  bool empty() const noexcept { return events_.empty(); }

  /// Honest heap footprint in bytes (Table 9 / eviction byte budget):
  /// counts arena and table capacities, per-block allocation overhead, and
  /// the interned strings' real heap (SSO strings bill nothing extra).
  std::size_t memory_size() const;

  // Introspection for tests, benches and the DESIGN.md numbers.
  const std::vector<EventRec>& events() const noexcept { return events_; }
  std::size_t distinct_names() const noexcept { return names_.size(); }
  std::size_t distinct_attr_lists() const noexcept {
    return attr_lists_.size();
  }
  std::size_t arena_bytes() const noexcept { return arena_.size(); }

 private:
  friend class CompactEventRecorder;

  std::string arena_;                    // all character data, event order
  std::vector<QName> names_;             // interned distinct names
  std::vector<Attributes> attr_lists_;   // interned lists; [0] = empty
  std::vector<EventRec> events_;
};

/// ContentHandler that records into a CompactEventSequence.  Owns the
/// interning indices (content hash -> candidate ids) so a finished,
/// immutable sequence does not carry them.
class CompactEventRecorder final : public ContentHandler {
 public:
  CompactEventRecorder();

  void start_document() override;
  void end_document() override;
  void start_element(const QName& name, const Attributes& attrs) override;
  void end_element(const QName& name) override;
  void characters(std::string_view text) override;

  /// Finish recording: trims growth slack (the footprint reported to the
  /// byte budget is what the entry keeps, not what recording peaked at)
  /// and hands the sequence over.  The recorder is reusable afterwards.
  CompactEventSequence take();

  const CompactEventSequence& sequence() const noexcept { return seq_; }

 private:
  std::uint32_t intern_name(const QName& name);
  std::uint32_t intern_attrs(const Attributes& attrs);

  CompactEventSequence seq_;
  // Content hash -> ids with that hash; collisions resolved by comparing
  // against the interned entry (no per-lookup allocation on repeats).
  std::unordered_multimap<std::uint64_t, std::uint32_t> name_index_;
  std::unordered_multimap<std::uint64_t, std::uint32_t> attrs_index_;
};

}  // namespace wsc::xml

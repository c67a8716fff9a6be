#include "xml/compact_event_sequence.hpp"

#include <limits>

#include "util/error.hpp"
#include "util/mem_footprint.hpp"

namespace wsc::xml {

namespace {

std::size_t qname_heap(const QName& q) {
  return util::heap_footprint(q.uri) + util::heap_footprint(q.local) +
         util::heap_footprint(q.raw);
}

}  // namespace

// --- CompactEventSequence ----------------------------------------------------

void CompactEventSequence::deliver(ContentHandler& handler) const {
  // The hit path: no allocation, no string construction — names and
  // attribute lists come from the interning tables, text is a view into
  // the arena.
  const char* arena = arena_.data();
  for (const EventRec& e : events_) {
    switch (e.type) {
      case EventType::StartDocument: handler.start_document(); break;
      case EventType::EndDocument: handler.end_document(); break;
      case EventType::StartElement:
        handler.start_element(names_[e.a], attr_lists_[e.b]);
        break;
      case EventType::EndElement: handler.end_element(names_[e.a]); break;
      case EventType::Characters:
        handler.characters(std::string_view(arena + e.a, e.b));
        break;
    }
  }
}

std::size_t CompactEventSequence::memory_size() const {
  std::size_t total = sizeof(*this);
  total += util::heap_footprint(arena_);
  total += util::heap_footprint(events_);
  total += util::heap_footprint(names_);
  for (const QName& q : names_) total += qname_heap(q);
  total += util::heap_footprint(attr_lists_);
  for (const Attributes& attrs : attr_lists_) {
    total += util::heap_footprint(attrs);
    for (const Attribute& a : attrs)
      total += qname_heap(a.name) + util::heap_footprint(a.value);
  }
  return total;
}

// --- CompactEventRecorder ----------------------------------------------------

CompactEventRecorder::CompactEventRecorder() {
  seq_.attr_lists_.emplace_back();  // id 0: the empty attribute list
}

std::uint32_t CompactEventRecorder::intern_name(const QName& name) {
  std::uint64_t h = qname_hash(name);
  auto [first, last] = name_index_.equal_range(h);
  for (auto it = first; it != last; ++it) {
    if (seq_.names_[it->second] == name) return it->second;
  }
  auto id = static_cast<std::uint32_t>(seq_.names_.size());
  seq_.names_.push_back(name);
  name_index_.emplace(h, id);
  return id;
}

std::uint32_t CompactEventRecorder::intern_attrs(const Attributes& attrs) {
  if (attrs.empty()) return 0;
  std::uint64_t h = attributes_hash(attrs);
  auto [first, last] = attrs_index_.equal_range(h);
  for (auto it = first; it != last; ++it) {
    if (seq_.attr_lists_[it->second] == attrs) return it->second;
  }
  auto id = static_cast<std::uint32_t>(seq_.attr_lists_.size());
  seq_.attr_lists_.push_back(attrs);
  attrs_index_.emplace(h, id);
  return id;
}

void CompactEventRecorder::start_document() {
  seq_.events_.push_back({EventType::StartDocument, 0, 0});
}

void CompactEventRecorder::end_document() {
  seq_.events_.push_back({EventType::EndDocument, 0, 0});
}

void CompactEventRecorder::start_element(const QName& name,
                                         const Attributes& attrs) {
  seq_.events_.push_back(
      {EventType::StartElement, intern_name(name), intern_attrs(attrs)});
}

void CompactEventRecorder::end_element(const QName& name) {
  seq_.events_.push_back({EventType::EndElement, intern_name(name), 0});
}

void CompactEventRecorder::characters(std::string_view text) {
  // Chunks stay separate records (replay must be event-for-event identical
  // to the live parse); their bytes are still contiguous in the arena.
  if (seq_.arena_.size() + text.size() >
      std::numeric_limits<std::uint32_t>::max())
    throw Error("CompactEventSequence: character data exceeds 4 GiB arena");
  auto offset = static_cast<std::uint32_t>(seq_.arena_.size());
  seq_.arena_.append(text);
  seq_.events_.push_back(
      {EventType::Characters, offset, static_cast<std::uint32_t>(text.size())});
}

CompactEventSequence CompactEventRecorder::take() {
  seq_.arena_.shrink_to_fit();
  seq_.events_.shrink_to_fit();
  seq_.names_.shrink_to_fit();
  seq_.attr_lists_.shrink_to_fit();
  CompactEventSequence out = std::move(seq_);
  seq_ = CompactEventSequence();
  seq_.attr_lists_.emplace_back();
  name_index_.clear();
  attrs_index_.clear();
  return out;
}

}  // namespace wsc::xml

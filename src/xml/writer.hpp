// Streaming XML writer.
//
// Produces the on-wire SOAP messages (serializer side of the pipeline in
// Figure 1 of the paper).  Stack-checked: end_element() must match the
// innermost open element, and the result is well-formed by construction.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace wsc::xml {

class Writer {
 public:
  /// When `declaration` is true, emits `<?xml version="1.0" ...?>` first.
  explicit Writer(bool declaration = true);

  /// Open an element.  `qname` is written verbatim (caller manages
  /// prefixes; the SOAP layer binds its namespaces once on the envelope).
  Writer& start_element(std::string_view qname);

  /// Add an attribute to the most recently opened element.  Only legal
  /// before any content has been written into it.
  Writer& attribute(std::string_view name, std::string_view value);

  /// Character data (escaped).
  Writer& text(std::string_view s);

  /// Pre-escaped/raw content (e.g. Base64 blocks - no escaping needed).
  Writer& raw(std::string_view s);

  /// Close the innermost element; empty elements are collapsed to `<e/>`.
  Writer& end_element();

  /// start_element + text + end_element.
  Writer& text_element(std::string_view qname, std::string_view content);

  /// Finish the document and return the XML.  Throws wsc::Error if
  /// elements remain open.
  std::string finish();

  std::size_t depth() const noexcept { return open_.size(); }

 private:
  /// An open element's name, as the bytes start_element() wrote into out_.
  struct OpenElement {
    std::size_t offset;
    std::size_t size;
  };

  void close_start_tag();

  std::string out_;
  std::vector<OpenElement> open_;
  bool tag_open_ = false;  // '<name' emitted but '>' pending
};

}  // namespace wsc::xml

// Minimal DOM: element/text tree built from SAX events.
//
// The paper mentions DOM trees as the post-parsing representation when the
// middleware uses a DOM parser (section 3.3).  Axis itself is SAX-based, so
// our cache records a CompactEventSequence on the hot path; the DOM is
// test support only: the general post-parsing tree the XML, SOAP and WSDL
// suites check parsed and written documents against.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "xml/sax.hpp"

namespace wsc::xml {

class Node;
using NodePtr = std::unique_ptr<Node>;

class Node {
 public:
  enum class Type { Element, Text };

  static NodePtr make_element(QName name, Attributes attrs = {});
  static NodePtr make_text(std::string text);

  Type type() const noexcept { return type_; }
  bool is_element() const noexcept { return type_ == Type::Element; }
  bool is_text() const noexcept { return type_ == Type::Text; }

  // Element accessors (throw wsc::Error if called on text nodes).
  const QName& name() const;
  const Attributes& attributes() const;
  const std::vector<NodePtr>& children() const;
  Node& append_child(NodePtr child);

  /// Attribute value by local name, or empty string if absent.
  std::string_view attribute(std::string_view local) const;

  /// First child element with the given local name, or nullptr.
  const Node* child(std::string_view local) const;

  /// All child elements with the given local name.
  std::vector<const Node*> children_named(std::string_view local) const;

  /// Concatenated descendant text (the "string value" of the element).
  std::string text_content() const;

  // Text accessor.
  const std::string& text() const;
  void append_text(std::string_view more);

  /// Serialize this subtree back to XML (no declaration).
  std::string to_xml() const;

 private:
  explicit Node(Type t) : type_(t) {}

  Type type_;
  QName name_;
  Attributes attrs_;
  std::vector<NodePtr> children_;
  std::string text_;
};

/// Owning document: root element plus storage.
struct Document {
  NodePtr root;
};

/// ContentHandler that assembles a Document.
class DomBuilder final : public ContentHandler {
 public:
  void start_document() override;
  void start_element(const QName& name, const Attributes& attrs) override;
  void end_element(const QName& name) override;
  void characters(std::string_view text) override;

  /// Take the finished document (valid after end of parse).
  Document take();

 private:
  Document doc_;
  std::vector<Node*> stack_;
};

/// Convenience: parse text straight to a Document.
Document parse_document(std::string_view xml_text);

}  // namespace wsc::xml

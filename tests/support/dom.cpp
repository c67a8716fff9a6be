#include "tests/support/dom.hpp"

#include "util/error.hpp"
#include "xml/escape.hpp"
#include "xml/sax_parser.hpp"

namespace wsc::xml {

NodePtr Node::make_element(QName name, Attributes attrs) {
  auto n = NodePtr(new Node(Type::Element));
  n->name_ = std::move(name);
  n->attrs_ = std::move(attrs);
  return n;
}

NodePtr Node::make_text(std::string text) {
  auto n = NodePtr(new Node(Type::Text));
  n->text_ = std::move(text);
  return n;
}

const QName& Node::name() const {
  if (!is_element()) throw Error("DOM: name() on text node");
  return name_;
}

const Attributes& Node::attributes() const {
  if (!is_element()) throw Error("DOM: attributes() on text node");
  return attrs_;
}

const std::vector<NodePtr>& Node::children() const {
  if (!is_element()) throw Error("DOM: children() on text node");
  return children_;
}

Node& Node::append_child(NodePtr child) {
  if (!is_element()) throw Error("DOM: append_child on text node");
  children_.push_back(std::move(child));
  return *children_.back();
}

std::string_view Node::attribute(std::string_view local) const {
  for (const Attribute& a : attributes()) {
    if (a.name.local == local) return a.value;
  }
  return {};
}

const Node* Node::child(std::string_view local) const {
  for (const NodePtr& c : children()) {
    if (c->is_element() && c->name_.local == local) return c.get();
  }
  return nullptr;
}

std::vector<const Node*> Node::children_named(std::string_view local) const {
  std::vector<const Node*> out;
  for (const NodePtr& c : children()) {
    if (c->is_element() && c->name_.local == local) out.push_back(c.get());
  }
  return out;
}

std::string Node::text_content() const {
  if (is_text()) return text_;
  std::string out;
  for (const NodePtr& c : children_) out += c->text_content();
  return out;
}

const std::string& Node::text() const {
  if (!is_text()) throw Error("DOM: text() on element node");
  return text_;
}

void Node::append_text(std::string_view more) {
  if (!is_text()) throw Error("DOM: append_text on element node");
  text_.append(more);
}

std::string Node::to_xml() const {
  if (is_text()) return escape_text(text_);
  std::string out = "<" + name_.raw;
  for (const Attribute& a : attrs_)
    out += " " + a.name.raw + "=\"" + escape_attribute(a.value) + "\"";
  if (children_.empty()) return out + "/>";
  out += ">";
  for (const NodePtr& c : children_) out += c->to_xml();
  out += "</" + name_.raw + ">";
  return out;
}

void DomBuilder::start_document() {
  doc_ = Document{};
  stack_.clear();
}

void DomBuilder::start_element(const QName& name, const Attributes& attrs) {
  NodePtr node = Node::make_element(name, attrs);
  if (stack_.empty()) {
    if (doc_.root) throw ParseError("DOM: multiple root elements");
    doc_.root = std::move(node);
    stack_.push_back(doc_.root.get());
  } else {
    Node& appended = stack_.back()->append_child(std::move(node));
    stack_.push_back(&appended);
  }
}

void DomBuilder::end_element(const QName&) {
  if (stack_.empty()) throw ParseError("DOM: unbalanced end_element");
  stack_.pop_back();
}

void DomBuilder::characters(std::string_view text) {
  if (stack_.empty()) {
    // Whitespace outside the root is legal; anything else is not.
    for (char c : text) {
      if (c != ' ' && c != '\t' && c != '\r' && c != '\n')
        throw ParseError("DOM: character data outside root element");
    }
    return;
  }
  // Merge adjacent text for a canonical tree.
  auto& siblings = stack_.back()->children();
  if (!siblings.empty() && siblings.back()->is_text()) {
    const_cast<Node*>(siblings.back().get())->append_text(text);
  } else {
    stack_.back()->append_child(Node::make_text(std::string(text)));
  }
}

Document DomBuilder::take() {
  if (!doc_.root) throw ParseError("DOM: empty document");
  return std::move(doc_);
}

Document parse_document(std::string_view xml_text) {
  DomBuilder builder;
  SaxParser{}.parse(xml_text, builder);
  return builder.take();
}

}  // namespace wsc::xml

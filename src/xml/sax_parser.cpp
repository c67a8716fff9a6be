#include "xml/sax_parser.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <deque>
#include <forward_list>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/error.hpp"
#include "xml/escape.hpp"

namespace wsc::xml {

namespace {

using wsc::ParseError;

constexpr std::string_view kXmlNs = "http://www.w3.org/XML/1998/namespace";

bool is_ws(char c) { return c == ' ' || c == '\t' || c == '\r' || c == '\n'; }

/// Byte classes, looked up once per byte by the name scanner.
enum : std::uint8_t { kNameStart = 1, kNameChar = 2 };

constexpr std::array<std::uint8_t, 256> make_byte_classes() {
  std::array<std::uint8_t, 256> classes{};
  for (int c = 0; c < 256; ++c) {
    const bool start = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       c == '_' || c == ':' || c >= 0x80;
    const bool name = start || (c >= '0' && c <= '9') || c == '-' || c == '.';
    classes[c] = static_cast<std::uint8_t>((start ? kNameStart : 0) |
                                           (name ? kNameChar : 0));
  }
  return classes;
}

constexpr std::array<std::uint8_t, 256> kByteClasses = make_byte_classes();

bool has_class(char c, std::uint8_t cls) {
  return (kByteClasses[static_cast<unsigned char>(c)] & cls) != 0;
}

/// The first `c` in [begin, end), or `end`.
const char* find_byte(const char* begin, const char* end, char c) {
  const void* hit = std::memchr(begin, c, static_cast<std::size_t>(end - begin));
  return hit ? static_cast<const char*>(hit) : end;
}

bool is_xmlns(std::string_view attr_name) {
  return attr_name == "xmlns" || attr_name.starts_with("xmlns:");
}

/// Prefix->URI binding with the element depth that introduced it.  The
/// prefix views the document; the URI views the document too, unless the
/// declaration used references, in which case it views the parser's copy.
struct NsBinding {
  std::string_view prefix;
  std::string_view uri;
  std::size_t depth;
};

/// An attribute as written in a start tag, before namespace processing.
struct RawAttr {
  std::string_view name;
  std::string_view value;  // document text, or an expansion slot's contents
  std::size_t expansion;   // index into Parser::expanded_, or npos
};

/// An element on the open stack: its name as written (for end-tag
/// matching) and its interned expanded name (for the end event).
struct OpenElement {
  std::string_view raw;
  const QName* name;
};

/// An interned name's key: the name as written and the URI it is bound
/// to, viewing the interned QName's own strings.
struct NameKey {
  std::string_view raw;
  std::string_view uri;
  bool operator==(const NameKey&) const = default;
};

struct NameKeyHash {
  std::size_t operator()(const NameKey& key) const {
    return std::hash<std::string_view>{}(key.raw);
  }
};

/// A remembered resolution of a name as written, valid while the
/// namespace bindings are those of `ns_epoch`.
struct Resolution {
  std::string_view raw;
  const QName* name = nullptr;
  std::uint64_t ns_epoch = 0;
  bool is_attribute = false;
};

/// A start-tag attribute list reused across tags with the same attribute
/// count, so its strings keep their capacity; `names` records which
/// interned name each slot currently holds, so a repeat skips the copy.
struct AttributeList {
  Attributes attrs;
  std::vector<const QName*> names;
};

/// Interned names kept from earlier parses, at most; past this the table
/// is emptied before the next parse, so hostile names cannot pile up.
constexpr std::size_t kMaxRetainedNames = 4096;

/// Start tags with fewer attributes than this each get a list of their
/// own to reuse; the longer ones share one more list, resized per tag.
constexpr std::size_t kReusedAttributeCounts = 16;

/// Documents up to this size use the thread's reused parser.  What a
/// parse grows (stacks, text buffer, names) is bounded by its document, so
/// this bounds what the thread keeps; a larger document gets a parser of
/// its own, freed with it.
constexpr std::size_t kMaxReusedDocument = 64 * 1024;

/// The parser and everything it allocates.  One instance per thread is
/// reused from parse to parse: the interned names stay valid (a name's
/// expansion depends only on its raw form and URI) and the stacks and
/// buffers keep their capacity, so a steady-state parse allocates nothing.
class Parser {
 public:
  Parser() : attribute_lists_(kReusedAttributeCounts + 1) {}

  bool busy() const noexcept { return busy_; }

  void run(std::string_view doc, ContentHandler& handler) {
    struct Busy {
      bool& flag;
      explicit Busy(bool& f) : flag(f) { flag = true; }
      ~Busy() { flag = false; }
    } busy(busy_);
    reset(doc, handler);
    handler_->start_document();
    skip_prolog();
    parse_document_element();
    skip_misc();
    if (!at_end()) fail("content after document element");
    if (!open_.empty()) fail("unclosed elements at end of document");
    handler_->end_document();
  }

 private:
  /// Forget the previous document (a failed parse may have left anything
  /// on the stacks), keeping capacity and, up to the cap, interned names.
  void reset(std::string_view doc, ContentHandler& handler) {
    doc_ = doc;
    handler_ = &handler;
    pos_ = 0;
    ns_stack_.clear();
    expanded_uris_.clear();
    open_.clear();
    text_ = {};
    text_in_buf_ = false;
    next_lt_ = 0;
    // The memo holds views of the previous document: a new epoch retires
    // every entry before it is compared.
    ++ns_epoch_;
    if (names_.size() > kMaxRetainedNames) {
      name_index_.clear();
      names_.clear();
      // The lists' slots remember names by address.
      attribute_lists_.assign(kReusedAttributeCounts + 1, AttributeList{});
    }
  }

  // --- cursor primitives -------------------------------------------------
  bool at_end() const { return pos_ >= doc_.size(); }
  char peek() const { return doc_[pos_]; }
  char take() { return doc_[pos_++]; }
  bool looking_at(std::string_view s) const {
    return doc_.substr(pos_, s.size()) == s;
  }
  void expect(std::string_view s) {
    if (!looking_at(s)) fail("expected '" + std::string(s) + "'");
    pos_ += s.size();
  }
  void skip_ws() {
    while (!at_end() && is_ws(peek())) ++pos_;
  }
  [[noreturn]] void fail(const std::string& msg) const {
    throw ParseError("XML: " + msg, pos_);
  }

  std::string_view read_name() {
    if (at_end() || !has_class(peek(), kNameStart)) fail("expected name");
    std::size_t start = pos_;
    ++pos_;
    while (!at_end() && has_class(peek(), kNameChar)) ++pos_;
    return doc_.substr(start, pos_ - start);
  }

  // --- prolog / misc ------------------------------------------------------
  void skip_prolog() {
    skip_ws();
    if (looking_at("<?xml")) {
      auto end = doc_.find("?>", pos_);
      if (end == std::string_view::npos) fail("unterminated XML declaration");
      pos_ = end + 2;
    }
    skip_misc();
    if (looking_at("<!DOCTYPE")) {
      // Skip to matching '>' (no internal subset support).
      auto end = doc_.find('>', pos_);
      if (end == std::string_view::npos) fail("unterminated DOCTYPE");
      if (doc_.substr(pos_, end - pos_).find('[') != std::string_view::npos)
        fail("DOCTYPE internal subset not supported");
      pos_ = end + 1;
      skip_misc();
    }
    if (at_end() || peek() != '<') fail("expected document element");
  }

  /// Comments, PIs and whitespace outside the document element.
  void skip_misc() {
    for (;;) {
      skip_ws();
      if (looking_at("<!--")) {
        skip_comment();
      } else if (looking_at("<?")) {
        skip_pi();
      } else {
        return;
      }
    }
  }

  void skip_comment() {
    expect("<!--");
    auto end = doc_.find("--", pos_);
    if (end == std::string_view::npos) fail("unterminated comment");
    pos_ = end;
    expect("-->");
  }

  void skip_pi() {
    expect("<?");
    auto end = doc_.find("?>", pos_);
    if (end == std::string_view::npos) fail("unterminated processing instruction");
    pos_ = end + 2;
  }

  // --- namespaces ----------------------------------------------------------
  std::string_view lookup_ns(std::string_view prefix) const {
    for (auto it = ns_stack_.rbegin(); it != ns_stack_.rend(); ++it) {
      if (it->prefix == prefix) return it->uri;
    }
    if (prefix == "xml") return kXmlNs;
    return {};
  }

  /// The interned expanded name of `raw` under the current bindings.  A
  /// name resolved before under the same bindings comes from the
  /// direct-mapped resolutions_ memo without a prefix lookup.
  const QName& resolve(std::string_view raw, bool is_attribute) {
    const std::size_t hash = std::hash<std::string_view>{}(raw);
    Resolution& memo = resolutions_[hash & (resolutions_.size() - 1)];
    if (memo.ns_epoch == ns_epoch_ && memo.is_attribute == is_attribute &&
        memo.raw == raw)
      return *memo.name;
    auto colon = raw.find(':');
    std::string_view uri;
    if (colon == std::string_view::npos) {
      // Unprefixed attributes are in no namespace (XML NS spec).
      if (!is_attribute) uri = lookup_ns("");
    } else {
      std::string_view prefix = raw.substr(0, colon);
      std::string_view local = raw.substr(colon + 1);
      if (local.empty() || local.find(':') != std::string_view::npos)
        fail("malformed qualified name '" + std::string(raw) + "'");
      uri = lookup_ns(prefix);
      if (uri.empty())
        fail("unbound namespace prefix '" + std::string(prefix) + "'");
    }
    const QName& name = intern(raw, colon, uri);
    memo = {raw, &name, ns_epoch_, is_attribute};
    return name;
  }

  /// One QName per distinct (raw name, URI): a repeated element costs a
  /// lookup, not three string copies, and only a name this thread has not
  /// parsed before allocates.
  const QName& intern(std::string_view raw, std::size_t colon,
                      std::string_view uri) {
    if (auto it = name_index_.find({raw, uri}); it != name_index_.end())
      return *it->second;
    QName& q = names_.emplace_back();
    q.raw.assign(raw);
    q.local.assign(colon == std::string_view::npos ? raw : raw.substr(colon + 1));
    q.uri.assign(uri);
    name_index_.emplace(NameKey{q.raw, q.uri}, &q);
    return q;
  }

  void pop_ns(std::size_t depth) {
    while (!ns_stack_.empty() && ns_stack_.back().depth >= depth) {
      ns_stack_.pop_back();
      ++ns_epoch_;
    }
  }

  // --- element content ------------------------------------------------------
  /// The reusable attribute list for start tags with `n` attributes.
  AttributeList& attribute_list(std::size_t n) {
    AttributeList& list = attribute_lists_[std::min(n, kReusedAttributeCounts)];
    list.attrs.resize(n);
    list.names.resize(n);
    return list;
  }

  /// Parse a start tag (cursor on '<').  Reports start_element (and
  /// end_element for self-closing tags); otherwise pushes onto the open
  /// stack.  Entirely iterative: document depth costs heap, not stack.
  void parse_start_tag() {
    ++pos_;  // '<', seen by the caller
    std::string_view raw_name = read_name();
    std::size_t depth = open_.size() + 1;

    raw_attrs_.clear();
    expansions_used_ = 0;
    bool self_closing = false;
    for (;;) {
      bool had_ws = !at_end() && is_ws(peek());
      skip_ws();
      if (at_end()) fail("unterminated start tag");
      if (peek() == '>') {
        ++pos_;
        break;
      }
      if (looking_at("/>")) {
        pos_ += 2;
        self_closing = true;
        break;
      }
      if (!had_ws) fail("expected whitespace before attribute");
      RawAttr& attr = raw_attrs_.emplace_back();
      attr.name = read_name();
      skip_ws();
      expect("=");
      skip_ws();
      read_attr_value(attr);
    }
    // Expansion slots are stable now that the tag is scanned.
    for (RawAttr& a : raw_attrs_) {
      if (a.expansion != std::string::npos) a.value = expanded_[a.expansion];
    }

    // First pass: xmlns declarations establish bindings for this element.
    std::size_t attr_count = 0;
    for (const RawAttr& a : raw_attrs_) {
      if (a.name == "xmlns") {
        bind("", a, depth);
      } else if (a.name.starts_with("xmlns:")) {
        std::string_view prefix = a.name.substr(6);
        if (prefix.empty()) fail("empty namespace prefix declaration");
        if (a.value.empty())
          fail("cannot bind prefix '" + std::string(prefix) + "' to empty URI");
        bind(prefix, a, depth);
      } else {
        ++attr_count;
      }
    }

    // Second pass: resolve element and non-xmlns attributes.
    const QName& name = resolve(raw_name, /*is_attribute=*/false);
    if (attr_count == 0) {
      open_element(name, attribute_lists_.front().attrs, self_closing, raw_name,
                   depth);
      return;
    }
    AttributeList& list = attribute_list(attr_count);
    Attributes& attrs = list.attrs;
    std::size_t n = 0;
    for (const RawAttr& a : raw_attrs_) {
      if (is_xmlns(a.name)) continue;
      const QName& attr_name = resolve(a.name, /*is_attribute=*/true);
      for (std::size_t j = 0; j < n; ++j) {
        if (attrs[j].name.local == attr_name.local &&
            attrs[j].name.uri == attr_name.uri)
          fail("duplicate attribute '" + attr_name.raw + "'");
      }
      if (list.names[n] != &attr_name) {
        attrs[n].name = attr_name;
        list.names[n] = &attr_name;
      }
      attrs[n].value.assign(a.value);
      ++n;
    }
    open_element(name, attrs, self_closing, raw_name, depth);
  }

  /// Report a parsed start tag, and push it on the open stack unless it
  /// was self-closing.
  void open_element(const QName& name, const Attributes& attrs,
                    bool self_closing, std::string_view raw_name,
                    std::size_t depth) {
    handler_->start_element(name, attrs);
    if (self_closing) {
      handler_->end_element(name);
      pop_ns(depth);
      return;
    }
    open_.push_back({raw_name, &name});
  }

  void bind(std::string_view prefix, const RawAttr& decl, std::size_t depth) {
    std::string_view uri = decl.value;
    // An expanded URI lives in a reused slot; the binding needs its own.
    if (decl.expansion != std::string::npos)
      uri = expanded_uris_.emplace_front(uri);
    ns_stack_.push_back({prefix, uri, depth});
    ++ns_epoch_;
  }

  /// Parse an end tag (cursor on "</").  Pops the open stack.
  void parse_end_tag() {
    pos_ += 2;
    std::string_view end_name = read_name();
    if (end_name != open_.back().raw)
      fail("mismatched end tag </" + std::string(end_name) + ">, expected </" +
           std::string(open_.back().raw) + ">");
    skip_ws();
    if (at_end() || peek() != '>') fail("expected '>'");
    ++pos_;
    std::size_t depth = open_.size();
    const QName& name = *open_.back().name;
    open_.pop_back();
    handler_->end_element(name);
    pop_ns(depth);
  }

  // --- character data ------------------------------------------------------
  // The text between two tags is one characters() event.  While it is a
  // single run of plain document text it is delivered as a view of the
  // document; a reference, CDATA section or comment splitting it moves it
  // into text_buf_, whose capacity is reused for the rest of the parse.

  void add_text(std::string_view run) {
    if (run.empty()) return;
    if (!text_in_buf_ && text_.empty()) {
      text_ = run;
      return;
    }
    text_to_buf();
    text_buf_.append(run);
  }

  void text_to_buf() {
    if (text_in_buf_) return;
    text_buf_.assign(text_);
    text_in_buf_ = true;
  }

  void flush_text() {
    std::string_view text = text_in_buf_ ? std::string_view(text_buf_) : text_;
    if (!text.empty()) handler_->characters(text);
    text_ = {};
    text_in_buf_ = false;
  }

  /// Character data up to the next '<' or '&', found with memchr.  A ']'
  /// ends nothing unless it starts the forbidden "]]>".  The next '<' is
  /// remembered, so text split by many references is not rescanned to it.
  void scan_text_run() {
    const char* const begin = doc_.data() + pos_;
    const char* const doc_end = doc_.data() + doc_.size();
    if (next_lt_ < pos_)
      next_lt_ = static_cast<std::size_t>(find_byte(begin, doc_end, '<') - doc_.data());
    const char* end = find_byte(begin, doc_.data() + next_lt_, '&');
    for (const char* b = find_byte(begin, end, ']'); b != end;
         b = find_byte(b + 1, end, ']')) {
      if (doc_end - b >= 3 && b[1] == ']' && b[2] == '>') {
        pos_ = static_cast<std::size_t>(b - doc_.data());
        fail("']]>' not allowed in content");
      }
    }
    pos_ = static_cast<std::size_t>(end - doc_.data());
    add_text(std::string_view(begin, static_cast<std::size_t>(end - begin)));
  }

  /// The document element and everything inside it, iteratively.
  void parse_document_element() {
    if (at_end() || peek() != '<') fail("expected document element");
    parse_start_tag();
    while (!open_.empty()) {
      if (at_end())
        fail("unterminated element <" + std::string(open_.back().raw) + ">");
      char c = peek();
      if (c == '<') {
        const char next = pos_ + 1 < doc_.size() ? doc_[pos_ + 1] : '\0';
        if (next == '/') {
          flush_text();
          parse_end_tag();
        } else if (next == '!' && looking_at("<!--")) {
          skip_comment();
        } else if (next == '!' && looking_at("<![CDATA[")) {
          pos_ += 9;
          auto end = doc_.find("]]>", pos_);
          if (end == std::string_view::npos) fail("unterminated CDATA section");
          add_text(doc_.substr(pos_, end - pos_));
          pos_ = end + 3;
        } else if (next == '?') {
          skip_pi();
        } else {
          flush_text();
          parse_start_tag();
        }
        continue;
      }
      if (c == '&') {
        text_to_buf();
        pos_ = append_reference(text_buf_, doc_, pos_);
        continue;
      }
      scan_text_run();
    }
  }

  /// The value of `attr` (cursor on the opening quote).  A value without
  /// references stays a document view; one with references is expanded
  /// into a reused slot of expanded_, so entity errors surface in document
  /// order, exactly where the scan meets them.
  void read_attr_value(RawAttr& attr) {
    if (at_end() || (peek() != '"' && peek() != '\'')) fail("expected quoted attribute value");
    char quote = take();
    std::size_t start = pos_;
    bool has_reference = false;
    while (!at_end() && peek() != quote) {
      if (peek() == '<') fail("'<' not allowed in attribute value");
      if (peek() == '&') has_reference = true;
      ++pos_;
    }
    if (at_end()) fail("unterminated attribute value");
    attr.value = doc_.substr(start, pos_ - start);
    attr.expansion = std::string::npos;
    if (has_reference) {
      if (expansions_used_ == expanded_.size()) expanded_.emplace_back();
      std::string& slot = expanded_[expansions_used_];
      slot.clear();
      unescape_append(slot, attr.value, start);
      attr.expansion = expansions_used_++;
    }
    ++pos_;  // closing quote
  }

  bool busy_ = false;
  std::string_view doc_;
  ContentHandler* handler_ = nullptr;
  std::size_t pos_ = 0;

  std::vector<NsBinding> ns_stack_;
  std::forward_list<std::string> expanded_uris_;  // declared with references
  std::vector<OpenElement> open_;

  // Bumped on every binding push and pop, and at the start of each parse.
  std::uint64_t ns_epoch_ = 0;

  std::deque<QName> names_;  // interned; never moved, cleared only in reset()
  std::unordered_map<NameKey, const QName*, NameKeyHash> name_index_;
  std::array<Resolution, 64> resolutions_{};

  std::vector<RawAttr> raw_attrs_;
  std::vector<std::string> expanded_;  // attribute values with references
  std::size_t expansions_used_ = 0;
  std::vector<AttributeList> attribute_lists_;

  std::string_view text_;
  std::string text_buf_;
  bool text_in_buf_ = false;
  std::size_t next_lt_ = 0;  // offset of the first '<' after the last run
};

}  // namespace

void SaxParser::parse(std::string_view document, ContentHandler& handler) {
  thread_local Parser reused;
  // A parse started from inside a handler callback finds the thread's
  // parser still delivering the outer document; it gets its own, as does
  // a document too large for its buffers to stay with the thread.
  if (reused.busy() || document.size() > kMaxReusedDocument) {
    Parser own;
    own.run(document, handler);
    return;
  }
  reused.run(document, handler);
}

}  // namespace wsc::xml

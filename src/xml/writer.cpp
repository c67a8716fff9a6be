#include "xml/writer.hpp"

#include "util/error.hpp"
#include "xml/escape.hpp"

namespace wsc::xml {

Writer::Writer(bool declaration) {
  if (declaration) out_ = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>";
}

void Writer::close_start_tag() {
  if (tag_open_) {
    out_.push_back('>');
    tag_open_ = false;
  }
}

Writer& Writer::start_element(std::string_view qname) {
  close_start_tag();
  out_.push_back('<');
  open_.push_back({out_.size(), qname.size()});
  out_.append(qname);
  tag_open_ = true;
  return *this;
}

Writer& Writer::attribute(std::string_view name, std::string_view value) {
  if (!tag_open_)
    throw Error("Writer: attribute('" + std::string(name) +
                "') after element content");
  out_.push_back(' ');
  out_.append(name);
  out_.append("=\"");
  append_escaped_attribute(out_, value);
  out_.push_back('"');
  return *this;
}

Writer& Writer::text(std::string_view s) {
  close_start_tag();
  append_escaped_text(out_, s);
  return *this;
}

Writer& Writer::raw(std::string_view s) {
  close_start_tag();
  out_.append(s);
  return *this;
}

Writer& Writer::end_element() {
  if (open_.empty()) throw Error("Writer: end_element with no open element");
  if (tag_open_) {
    out_.append("/>");
    tag_open_ = false;
  } else {
    // The name is copied from earlier in out_: reserve first so the append
    // cannot reallocate the bytes it reads.
    const OpenElement e = open_.back();
    out_.reserve(out_.size() + e.size + 3);
    out_.append("</");
    out_.append(out_.data() + e.offset, e.size);
    out_.push_back('>');
  }
  open_.pop_back();
  return *this;
}

Writer& Writer::text_element(std::string_view qname, std::string_view content) {
  start_element(qname);
  text(content);
  return end_element();
}

std::string Writer::finish() {
  if (!open_.empty())
    throw Error("Writer: finish() with <" +
                out_.substr(open_.back().offset, open_.back().size) +
                "> still open");
  return std::move(out_);
}

}  // namespace wsc::xml

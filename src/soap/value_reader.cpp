#include "soap/value_reader.hpp"

#include "util/error.hpp"
#include "util/strings.hpp"

namespace wsc::soap {

using reflect::TypeInfo;

ValueReader::ValueReader(const TypeInfo& type) : root_type_(&type) {
  if (!type.construct)
    throw SerializationError("deserialize: type '" + type.name +
                             "' is not constructible");
  root_storage_ = type.construct();
  frames_.push_back({&type, root_storage_.get(), 0, {}, {}});
}

std::string ValueReader::href_of(const xml::Attributes& attrs) {
  for (const xml::Attribute& a : attrs) {
    if (a.name.local == "href") {
      if (a.value.empty() || a.value[0] != '#')
        throw ParseError("deserialize: only local href fragments supported");
      return a.value.substr(1);
    }
  }
  return {};
}

void ValueReader::begin(const xml::Attributes& attrs) {
  std::string ref = href_of(attrs);
  if (!ref.empty()) frames_.back().pending_ref = std::move(ref);
}

void ValueReader::start_element(const xml::QName& name,
                                const xml::Attributes& attrs) {
  // xsi:type is ignored (the WSDL signature is authoritative); href makes
  // the element an indirection into the multiRef table.
  if (done_) throw ParseError("value reader: element after value completed");
  Frame& top = frames_.back();
  if (!top.pending_ref.empty())
    throw ParseError("deserialize: href element <" + name.raw +
                     "> must be empty");
  if (top.type->is_struct()) {
    const reflect::FieldInfo* f = top.type->field(name.local);
    if (!f)
      throw ParseError("deserialize: type '" + top.type->name +
                       "' has no field '" + name.local + "'");
    std::size_t index = static_cast<std::size_t>(f - top.type->fields.data());
    frames_.push_back({f->type, f->at(top.target), index, {}, {}});
  } else if (top.type->is_array()) {
    // Axis names encoded array members "item"; accept any child name, as
    // real decoders do (the position, not the name, carries meaning).
    std::size_t n = top.type->array_size(top.target);
    top.type->array_resize(top.target, n + 1);
    frames_.push_back(
        {top.type->element, top.type->array_at(top.target, n), n, {}, {}});
  } else {
    throw ParseError("deserialize: unexpected child element <" + name.raw +
                     "> inside " +
                     std::string(reflect::kind_name(top.type->kind)) +
                     " value");
  }
  // The just-opened child may itself be an href indirection.
  std::string ref = href_of(attrs);
  if (!ref.empty()) frames_.back().pending_ref = std::move(ref);
}

void ValueReader::characters(std::string_view text) {
  if (done_) throw ParseError("value reader: text after value completed");
  Frame& top = frames_.back();
  if (!top.pending_ref.empty()) {
    if (!util::trim(text).empty())
      throw ParseError("deserialize: content inside href element");
    return;
  }
  if (top.type->is_primitive()) {
    top.text.append(text);
    return;
  }
  // Whitespace between child elements is tolerated (pretty-printing).
  if (!util::trim(text).empty())
    throw ParseError("deserialize: unexpected character data in " +
                     top.type->name);
}

bool ValueReader::end_element(const xml::QName&) {
  if (done_) throw ParseError("value reader: end element after completion");
  finish_frame();
  frames_.pop_back();
  if (frames_.empty()) done_ = true;
  return done_;
}

void ValueReader::finish_root() {
  if (frames_.size() != 1)
    throw ParseError("value reader: finish_root with open children");
  finish_frame();
  frames_.pop_back();
  done_ = true;
}

void ValueReader::finish_frame() {
  Frame& top = frames_.back();
  if (!top.pending_ref.empty()) {
    // Record a root-relative path: array slots move on reallocation, so
    // raw pointers must not outlive the parse.
    PendingRef pending;
    pending.type = top.type;
    pending.id = std::move(top.pending_ref);
    for (std::size_t i = 1; i < frames_.size(); ++i)
      pending.path.push_back(frames_[i].step);
    pending_.push_back(std::move(pending));
    return;
  }
  // Structs and arrays were materialized in place by their children.
  if (top.type->ops) top.type->ops->parse_text(top.text, top.target);
}

void ValueReader::resolve_pending(RefResolver& resolver) {
  if (!done_) throw ParseError("value reader: resolve before completion");
  for (const PendingRef& pending : pending_) {
    // Walk the path from the root to the (now stable) slot.
    const TypeInfo* t = root_type_;
    void* target = root_storage_.get();
    for (std::size_t step : pending.path) {
      if (t->is_struct()) {
        const reflect::FieldInfo& f = t->fields.at(step);
        target = f.at(target);
        t = f.type;
      } else if (t->is_array()) {
        if (step >= t->array_size(target))
          throw ParseError("deserialize: pending reference path corrupt");
        target = t->array_at(target, step);
        t = t->element;
      } else {
        throw ParseError("deserialize: pending reference path corrupt");
      }
    }
    resolver.fill(*pending.type, target, pending.id);
  }
  pending_.clear();
}

reflect::Object ValueReader::take() {
  if (!done_) throw ParseError("value reader: take() before completion");
  if (!pending_.empty())
    throw ParseError("deserialize: unresolved href references remain");
  return reflect::Object(std::move(root_storage_), root_type_);
}

}  // namespace wsc::soap

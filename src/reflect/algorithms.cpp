#include "reflect/algorithms.hpp"

#include "util/error.hpp"
#include "util/mem_footprint.hpp"

namespace wsc::reflect {

namespace {

/// Copy `src` (of type `t`) into `dst`, recursing through fields/elements.
/// Primitives are assigned; they are value types in C++, so assignment is
/// already a full copy (the analogue of sharing immutables in Java).
void copy_into(const TypeInfo& t, const void* src, void* dst) {
  if (t.ops) {
    t.ops->copy(src, dst);
  } else if (t.is_array()) {
    std::size_t n = t.array_size(src);
    t.array_resize(dst, n);
    for (std::size_t i = 0; i < n; ++i) {
      copy_into(*t.element, t.array_at(const_cast<void*>(src), i),
                t.array_at(dst, i));
    }
  } else {
    for (const FieldInfo& f : t.fields)
      copy_into(*f.type, f.at(src), f.at(dst));
  }
}

bool equals(const TypeInfo& t, const void* x, const void* y) {
  if (t.ops) return t.ops->equals(x, y);
  if (t.is_array()) {
    std::size_t n = t.array_size(x);
    if (n != t.array_size(y)) return false;
    for (std::size_t i = 0; i < n; ++i) {
      if (!equals(*t.element, t.array_at(const_cast<void*>(x), i),
                  t.array_at(const_cast<void*>(y), i)))
        return false;
    }
    return true;
  }
  for (const FieldInfo& f : t.fields) {
    if (!equals(*f.type, f.at(x), f.at(y))) return false;
  }
  return true;
}

}  // namespace

void deep_assign(const TypeInfo& t, const void* src, void* dst) {
  copy_into(t, src, dst);
}

Object deep_copy(const Object& obj) {
  if (obj.is_null()) return {};
  const TypeInfo& t = obj.type();
  // Bean gatekeeping happens up front and recursively (is_reflectable):
  // the paper's reflective copier only handles bean/array shapes.
  if ((t.is_struct() || t.is_array()) && !t.is_reflectable())
    throw SerializationError("copy by reflection: type '" + t.name +
                             "' is not bean-type");
  if (!t.construct)
    throw SerializationError("copy by reflection: type '" + t.name +
                             "' has no default constructor");
  std::shared_ptr<void> fresh = t.construct();
  copy_into(t, obj.data(), fresh.get());
  return Object(std::move(fresh), &t);
}

bool supports_reflection_copy(const TypeInfo& type) {
  if (type.kind == Kind::Bytes) return true;  // "array-type" byte[]
  if (type.is_array()) return type.element->is_reflectable();
  if (type.is_struct()) return type.is_reflectable();
  return false;
}

Object clone(const Object& obj) {
  if (obj.is_null()) return {};
  const TypeInfo& t = obj.type();
  if (!t.clone_fn)
    throw SerializationError("clone: type '" + t.name + "' is not cloneable");
  return Object(t.clone_fn(obj.data()), &t);
}

bool deep_equals(const Object& a, const Object& b) {
  if (a.is_null() || b.is_null()) return a.is_null() == b.is_null();
  if (&a.type() != &b.type()) return false;
  return equals(a.type(), a.data(), b.data());
}

void to_string_append(const TypeInfo& t, const void* value, std::string& out) {
  if (t.to_string_fn) {
    out += t.to_string_fn(value);  // a struct's custom toString
    return;
  }
  if (t.ops && t.ops->has_to_string) {
    t.ops->append_text(value, out);
    return;
  }
  if (t.is_array()) {
    out += '[';
    std::size_t n = t.array_size(value);
    for (std::size_t i = 0; i < n; ++i) {
      if (i > 0) out += ',';
      to_string_append(*t.element, t.array_at(const_cast<void*>(value), i),
                       out);
    }
    out += ']';
    return;
  }
  // Bytes and non-bean structs: the Java analogue's toString is the
  // address-based Object.toString, unusable as a key.
  if (t.ops || !t.traits.bean)
    throw SerializationError("toString: type '" + t.name +
                             "' has no usable toString method");
  out += t.name;
  out += '{';
  bool first = true;
  for (const FieldInfo& f : t.fields) {
    if (!first) out += ',';
    first = false;
    out += f.name;
    out += '=';
    to_string_append(*f.type, f.at(value), out);
  }
  out += '}';
}

void to_string_append(const Object& obj, std::string& out) {
  if (obj.is_null()) {
    out += "null";
    return;
  }
  to_string_append(obj.type(), obj.data(), out);
}

std::string to_string(const TypeInfo& t, const void* value) {
  std::string out;
  to_string_append(t, value, out);
  return out;
}

std::string to_string(const Object& obj) {
  if (obj.is_null()) return "null";
  return to_string(obj.type(), obj.data());
}

namespace {

/// Heap bytes `value` owns, excluding its own inline bytes.
std::size_t heap_bytes(const TypeInfo& t, const void* value) {
  if (t.ops) return t.ops->owned_heap(value);
  std::size_t total = 0;
  if (t.is_array()) {
    total = t.array_heap(value);  // holds the elements' inline bytes
    for (std::size_t i = 0, n = t.array_size(value); i < n; ++i)
      total += heap_bytes(*t.element, t.array_at(const_cast<void*>(value), i));
  } else {
    for (const FieldInfo& f : t.fields)
      total += heap_bytes(*f.type, f.at(value));
  }
  return total;
}

}  // namespace

std::size_t memory_size(const Object& obj) {
  if (obj.is_null()) return 0;
  // The root lives in a std::make_shared block (construct(), clone_fn,
  // Object::make).
  return util::shared_block(obj.type().shallow_size) +
         heap_bytes(obj.type(), obj.data());
}

}  // namespace wsc::reflect

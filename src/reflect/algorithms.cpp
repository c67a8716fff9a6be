#include "reflect/algorithms.hpp"

#include <cstdint>
#include <vector>

#include "util/error.hpp"

namespace wsc::reflect {

namespace {

/// Copy `src` (of type `t`) into `dst`, recursing through fields/elements.
/// Primitives are assigned; they are value types in C++, so assignment is
/// already a full copy (the analogue of sharing immutables in Java).
void copy_into(const TypeInfo& t, const void* src, void* dst) {
  switch (t.kind) {
    case Kind::Bool:
      *static_cast<bool*>(dst) = *static_cast<const bool*>(src);
      return;
    case Kind::Int32:
      *static_cast<std::int32_t*>(dst) = *static_cast<const std::int32_t*>(src);
      return;
    case Kind::Int64:
      *static_cast<std::int64_t*>(dst) = *static_cast<const std::int64_t*>(src);
      return;
    case Kind::Double:
      *static_cast<double*>(dst) = *static_cast<const double*>(src);
      return;
    case Kind::String:
      *static_cast<std::string*>(dst) = *static_cast<const std::string*>(src);
      return;
    case Kind::Bytes:
      *static_cast<std::vector<std::uint8_t>*>(dst) =
          *static_cast<const std::vector<std::uint8_t>*>(src);
      return;
    case Kind::Array: {
      std::size_t n = t.array_size(src);
      t.array_resize(dst, n);
      for (std::size_t i = 0; i < n; ++i) {
        copy_into(*t.element, t.array_at(const_cast<void*>(src), i),
                  t.array_at(dst, i));
      }
      return;
    }
    case Kind::Struct: {
      for (const FieldInfo& f : t.fields)
        copy_into(*f.type, f.at(src), f.at(dst));
      return;
    }
  }
  throw ReflectionError("copy_into: corrupt kind");
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

  struct Cmp {
    static bool eq(const TypeInfo& t, const void* x, const void* y) {
      switch (t.kind) {
        case Kind::Bool:
          return *static_cast<const bool*>(x) == *static_cast<const bool*>(y);
        case Kind::Int32:
          return *static_cast<const std::int32_t*>(x) ==
                 *static_cast<const std::int32_t*>(y);
        case Kind::Int64:
          return *static_cast<const std::int64_t*>(x) ==
                 *static_cast<const std::int64_t*>(y);
        case Kind::Double:
          return *static_cast<const double*>(x) == *static_cast<const double*>(y);
        case Kind::String:
          return *static_cast<const std::string*>(x) ==
                 *static_cast<const std::string*>(y);
        case Kind::Bytes:
          return *static_cast<const std::vector<std::uint8_t>*>(x) ==
                 *static_cast<const std::vector<std::uint8_t>*>(y);
        case Kind::Array: {
          std::size_t n = t.array_size(x);
          if (n != t.array_size(y)) return false;
          for (std::size_t i = 0; i < n; ++i) {
            if (!eq(*t.element, t.array_at(const_cast<void*>(x), i),
                    t.array_at(const_cast<void*>(y), i)))
              return false;
          }
          return true;
        }
        case Kind::Struct: {
          for (const FieldInfo& f : t.fields) {
            if (!eq(*f.type, f.at(x), f.at(y))) return false;
          }
          return true;
        }
      }
      throw ReflectionError("deep_equals: corrupt kind");
    }
  };
  return Cmp::eq(a.type(), a.data(), b.data());
}

void to_string_append(const TypeInfo& t, const void* value, std::string& out) {
  // The builtin primitives carry an allocation-free appender; a custom
  // to_string_fn without one appends its temporary (correct, just not the
  // zero-alloc fast path).
  if (t.to_string_append_fn) {
    t.to_string_append_fn(value, out);
    return;
  }
  if (t.to_string_fn) {
    out += t.to_string_fn(value);
    return;
  }
  switch (t.kind) {
    case Kind::Array: {
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
    case Kind::Struct: {
      if (!t.traits.bean)
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
      return;
    }
    default:
      // Primitive without a to_string_fn: only Bytes lands here — its Java
      // analogue's toString is the address-based Object.toString.
      throw SerializationError("toString: type '" + t.name +
                               "' has no usable toString method");
  }
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

std::size_t memory_size(const TypeInfo& t, const void* value) {
  std::size_t total = 0;
  switch (t.kind) {
    case Kind::Array: {
      total += t.shallow_size;
      std::size_t n = t.array_size(value);
      for (std::size_t i = 0; i < n; ++i) {
        total +=
            memory_size(*t.element, t.array_at(const_cast<void*>(value), i));
      }
      return total;
    }
    case Kind::Struct: {
      total += t.shallow_size;
      for (const FieldInfo& f : t.fields) {
        // Field storage is inside shallow_size; add only owned heap.
        total += memory_size(*f.type, f.at(value)) - f.type->shallow_size;
      }
      return total;
    }
    default:
      total += t.shallow_size;
      if (t.owned_heap_fn) total += t.owned_heap_fn(value);
      return total;
  }
}

std::size_t memory_size(const Object& obj) {
  if (obj.is_null()) return 0;
  return memory_size(obj.type(), obj.data());
}

}  // namespace wsc::reflect

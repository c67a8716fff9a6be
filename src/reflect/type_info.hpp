// Runtime type metadata: the C++ stand-in for the Java facilities the paper
// leans on (reflection, java.io.Serializable, Object.clone, toString).
//
// Every "application object" that crosses the Web-services boundary has a
// registered TypeInfo describing its shape (fields / array element) and its
// *traits*, which gate the cache-value representations of Table 3:
//
//   serializable -> binary (de)serialization     ("Java serialization")
//   bean / array -> field-walking deep copy      ("copy by reflection")
//   cloneable    -> generated deep clone          ("copy by clone")
//   immutable    -> safe to share, no copy        ("pass by reference")
//
// WSDL-compiler-generated types (src/wsdl, src/services) register with all
// traits on, matching section 4.2.3 of the paper; hand-written application
// types may lack any of them, producing the "n/a" cells of Table 7.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace wsc::util {
class ByteReader;
class ByteWriter;
}  // namespace wsc::util

namespace wsc::reflect {

enum class Kind : std::uint8_t {
  Bool,
  Int32,
  Int64,
  Double,
  String,  // std::string; modeled as immutable like java.lang.String
  Bytes,   // std::vector<uint8_t>; mutable, like byte[]
  Struct,
  Array,  // std::vector<T> of any registered T
};

const char* kind_name(Kind k);

class TypeInfo;

/// One reflectable field of a struct type.  `offset` is the member's byte
/// offset inside an instance; `at()` resolves the field's address, and
/// generic algorithms then interpret it through `type`.
struct FieldInfo {
  std::string name;
  const TypeInfo* type = nullptr;
  std::size_t offset = 0;

  void* at(void* obj) const noexcept {
    return static_cast<char*>(obj) + offset;
  }
  const void* at(const void* obj) const noexcept {
    return static_cast<const char*>(obj) + offset;
  }
};

/// Everything a primitive kind does, as one row of plain function pointers
/// (registry.cpp builds one per builtin from a single template).  Every
/// walker -- copy, equals, toString and cache keys, memory_size, binary
/// and SOAP read/write, WSDL -- calls the row and recurses only through
/// structs and arrays itself, so no walker switches on a primitive Kind.
struct PrimitiveOps {
  /// The XSD QName of the SOAP xsi:type and WSDL part ("xsd:int").
  const char* xsd_name;
  void (*copy)(const void* src, void* dst);
  bool (*equals)(const void* a, const void* b);
  /// Appends the value's lexical form: the toString and cache-key text,
  /// and the SOAP content before escaping (Base64 for Bytes).
  void (*append_text)(const void* value, std::string& out);
  /// Parses SOAP content into the value; may move out of `text`.
  void (*parse_text)(std::string& text, void* dst);
  void (*encode)(const void* value, util::ByteWriter& out);
  void (*decode)(util::ByteReader& in, void* dst);
  /// Heap bytes the value owns directly (util::heap_footprint).
  std::size_t (*owned_heap)(const void* value);
  /// False for Bytes: Java's byte[].toString is the address-based
  /// Object.toString, so the text is no usable toString or cache key
  /// (paper 4.1.2B) and only the SOAP writer uses it.
  bool has_to_string;
  /// True for String only: no other kind's text can hold '<', '&' or
  /// '>', so the SOAP writer appends those unescaped.
  bool needs_escaping;
};

struct Traits {
  /// Declared serializable (builder opt-in, like implementing
  /// java.io.Serializable).  Effective serializability also requires every
  /// reachable field type to be serializable; see
  /// TypeInfo::is_deeply_serializable().
  bool serializable = false;
  /// Has a generated deep clone function (the paper's hypothetical
  /// WSDL-compiler-added clone).
  bool cloneable = false;
  /// Instances are never mutated (String & primitive wrappers); safe for
  /// the cache to share with the client application.
  bool immutable = false;
  /// Default-constructible with a complete set of registered field
  /// accessors ("bean-type"); required for copy-by-reflection.
  bool bean = false;
};

/// Immutable runtime description of one type.  Instances live in the
/// TypeRegistry for the lifetime of the process (like loaded Java classes),
/// so raw `const TypeInfo*` pointers are stable.
class TypeInfo {
 public:
  std::string name;
  Kind kind = Kind::Struct;
  Traits traits;
  std::size_t shallow_size = 0;  // sizeof(T)

  /// Struct only: fields in declaration order (also the SOAP element order).
  std::vector<FieldInfo> fields;

  /// Array only: element type.
  const TypeInfo* element = nullptr;

  /// Primitive kinds only: the kind's row (null for Struct and Array).
  const PrimitiveOps* ops = nullptr;

  // --- per-type function pointers (set by the builders) ---
  std::shared_ptr<void> (*construct)() = nullptr;  // default-construct
  /// Deep clone via the native copy constructor; null unless cloneable.
  std::shared_ptr<void> (*clone_fn)(const void*) = nullptr;
  /// Struct only: custom toString; null means "use the reflective default
  /// if bean, otherwise the type has no usable toString" (paper 4.1.2B).
  std::string (*to_string_fn)(const void*) = nullptr;

  // Array operations (Array kind only).
  std::size_t (*array_size)(const void*) = nullptr;
  void* (*array_at)(void*, std::size_t) = nullptr;
  void (*array_resize)(void*, std::size_t) = nullptr;
  std::size_t (*array_heap)(const void*) = nullptr;  // util::heap_footprint

  bool is_struct() const noexcept { return kind == Kind::Struct; }
  bool is_array() const noexcept { return kind == Kind::Array; }
  bool is_primitive() const noexcept { return !is_struct() && !is_array(); }

  /// Find a field by name; nullptr if absent.
  const FieldInfo* field(std::string_view name) const;

  /// True if this type and everything reachable from it is serializable —
  /// the check Java performs lazily by throwing NotSerializableException.
  bool is_deeply_serializable() const;

  /// True if copy-by-reflection can handle this type: a bean struct or an
  /// array whose elements are reflectable; primitives qualify as leaves.
  bool is_reflectable() const;

 private:
  bool deeply_serializable_impl(std::vector<const TypeInfo*>& visiting) const;
  bool reflectable_impl(std::vector<const TypeInfo*>& visiting) const;
};

}  // namespace wsc::reflect

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
#include <functional>
#include <memory>
#include <string>
#include <vector>

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

  // --- per-type function table (populated by the builder) ---
  std::function<std::shared_ptr<void>()> construct;  // default-construct
  /// Deep clone via the native copy constructor; null unless cloneable.
  std::function<std::shared_ptr<void>(const void*)> clone_fn;
  /// Custom to_string; null means "use the reflective default if bean,
  /// otherwise the type has no usable toString" (paper 4.1.2B).
  std::function<std::string(const void*)> to_string_fn;
  /// Allocation-free companion to to_string_fn: appends the SAME bytes
  /// directly into the caller's buffer (the zero-allocation cache-key
  /// path).  Set for the builtin primitives; a custom to_string_fn without
  /// one falls back to appending to_string_fn's temporary.
  std::function<void(const void*, std::string&)> to_string_append_fn;
  /// Heap bytes owned directly by a primitive value (string/bytes
  /// capacity); null for kinds with no owned heap.
  std::function<std::size_t(const void*)> owned_heap_fn;

  // Array operations (Array kind only).
  std::function<std::size_t(const void*)> array_size;
  std::function<void*(void*, std::size_t)> array_at;
  std::function<void(void*, std::size_t)> array_resize;

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

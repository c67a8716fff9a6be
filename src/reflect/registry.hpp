// Global type registry + compile-time type binding (type_of<T>()).
//
// Plays the role of the JVM's loaded-class table: registration happens once
// per process (WSDL-generated types register in their service headers'
// ensure-functions), and `const TypeInfo*` pointers never dangle.
//
// Locking: add(), find(), get() and type_names() all take one registry
// mutex, because array types register lazily on first use and may do so
// from any thread.  Hot paths avoid the mutex: type_of<T>() reads a
// per-type static, and find() hashes the caller's
// string_view directly, so a by-name lookup (reflect::deserialize on every
// Serialized hit) costs a lock but builds no std::string.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "reflect/type_info.hpp"
#include "util/error.hpp"
#include "util/mem_footprint.hpp"

namespace wsc::reflect {

class TypeRegistry {
 public:
  static TypeRegistry& instance();

  /// Register a new type; throws ReflectionError if the name is taken.
  /// Returns the stable registered instance.
  const TypeInfo& add(std::unique_ptr<TypeInfo> info);

  /// nullptr if not registered.
  const TypeInfo* find(std::string_view name) const;

  /// Throws ReflectionError if not registered.
  const TypeInfo& get(std::string_view name) const;

  std::vector<std::string> type_names() const;

 private:
  TypeRegistry() = default;

  /// Heterogeneous hashing, so find() probes with a string_view as is.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view name) const noexcept {
      return std::hash<std::string_view>{}(name);
    }
  };

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<TypeInfo>, NameHash,
                     std::equal_to<>>
      types_;
};

namespace detail {

/// Per-C++-type slot pointing at its registered TypeInfo.
template <typename T>
const TypeInfo*& slot() {
  static const TypeInfo* s = nullptr;
  return s;
}

const TypeInfo& builtin_bool();
const TypeInfo& builtin_i32();
const TypeInfo& builtin_i64();
const TypeInfo& builtin_double();
const TypeInfo& builtin_string();
const TypeInfo& builtin_bytes();

/// Register (once) an array type whose prototype the caller filled with
/// its vector-typed function pointers.
const TypeInfo& register_array_type(std::string name, const TypeInfo& element,
                                    TypeInfo&& prototype);

}  // namespace detail

/// Primary template: user-registered struct types.  The struct's
/// StructBuilder<T>::register_type() must have run first.
template <typename T>
struct TypeOf {
  static const TypeInfo& get() {
    const TypeInfo* s = detail::slot<T>();
    if (!s)
      throw ReflectionError(
          "type_of<T>: C++ type not registered with StructBuilder");
    return *s;
  }
};

template <>
struct TypeOf<bool> {
  static const TypeInfo& get() { return detail::builtin_bool(); }
};
template <>
struct TypeOf<std::int32_t> {
  static const TypeInfo& get() { return detail::builtin_i32(); }
};
template <>
struct TypeOf<std::int64_t> {
  static const TypeInfo& get() { return detail::builtin_i64(); }
};
template <>
struct TypeOf<double> {
  static const TypeInfo& get() { return detail::builtin_double(); }
};
template <>
struct TypeOf<std::string> {
  static const TypeInfo& get() { return detail::builtin_string(); }
};
/// std::vector<uint8_t> is the Bytes kind (Java byte[]), not an Array.
template <>
struct TypeOf<std::vector<std::uint8_t>> {
  static const TypeInfo& get() { return detail::builtin_bytes(); }
};

/// Arrays: std::vector<T> for any registered element T.  Created lazily and
/// registered as "ArrayOf<element name>".
template <typename T>
struct TypeOf<std::vector<T>> {
  static const TypeInfo& get() {
    static const TypeInfo& info = create();
    return info;
  }

 private:
  static const TypeInfo& create() {
    const TypeInfo& elem = TypeOf<T>::get();
    TypeInfo proto;
    proto.kind = Kind::Array;
    proto.element = &elem;
    proto.shallow_size = sizeof(std::vector<T>);
    // vector<T>'s copy constructor is a deep copy for our value-semantic
    // element types, so arrays are always cloneable.
    proto.traits.cloneable = true;
    proto.traits.serializable = true;  // effective check recurses into elem
    proto.construct = [] {
      return std::static_pointer_cast<void>(std::make_shared<std::vector<T>>());
    };
    proto.clone_fn = [](const void* p) {
      return std::static_pointer_cast<void>(
          std::make_shared<std::vector<T>>(*static_cast<const std::vector<T>*>(p)));
    };
    proto.array_size = [](const void* p) {
      return static_cast<const std::vector<T>*>(p)->size();
    };
    proto.array_at = [](void* p, std::size_t i) -> void* {
      return &(*static_cast<std::vector<T>*>(p))[i];
    };
    proto.array_resize = [](void* p, std::size_t n) {
      static_cast<std::vector<T>*>(p)->resize(n);
    };
    proto.array_heap = [](const void* p) {
      return util::heap_footprint(*static_cast<const std::vector<T>*>(p));
    };
    return detail::register_array_type("ArrayOf" + elem.name, elem,
                                       std::move(proto));
  }
};

/// The registered TypeInfo for C++ type T.
template <typename T>
const TypeInfo& type_of() {
  return TypeOf<T>::get();
}

}  // namespace wsc::reflect

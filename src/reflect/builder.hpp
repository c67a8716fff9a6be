// Fluent registration of struct types — the stand-in for the Axis WSDL
// compiler emitting bean classes (paper 4.2.3: generated classes are
// "serializable and bean-type", and a compiler could also "add a proper
// deep clone method").
//
//   struct DirectoryCategory { std::string fullViewableName, specialEncoding; };
//
//   const TypeInfo& dc = StructBuilder<DirectoryCategory>("DirectoryCategory")
//       .field("fullViewableName", &DirectoryCategory::fullViewableName)
//       .field("specialEncoding", &DirectoryCategory::specialEncoding)
//       .serializable()
//       .cloneable()
//       .register_type();
//
// Omitting .serializable() / .cloneable() / fields produces types with the
// "n/a" limitations of Tables 2-3.
#pragma once

#include <concepts>
#include <memory>
#include <string>
#include <utility>

#include "reflect/registry.hpp"
#include "reflect/type_info.hpp"

namespace wsc::reflect {

template <typename T>
  requires std::default_initializable<T> && std::copy_constructible<T>
class StructBuilder {
 public:
  explicit StructBuilder(std::string name) {
    info_ = std::make_unique<TypeInfo>();
    info_->name = std::move(name);
    info_->kind = Kind::Struct;
    info_->shallow_size = sizeof(T);
    info_->traits.bean = true;  // cleared by not_bean()
    info_->construct = [] {
      return std::static_pointer_cast<void>(std::make_shared<T>());
    };
  }

  /// Register a field.  Declaration order is the SOAP serialization order.
  template <typename M>
  StructBuilder& field(std::string field_name, M T::* member) {
    // The member's byte offset, read off a default-constructed probe: the
    // same for every instance, and legal for non-standard-layout T where
    // offsetof is not.
    const T probe{};
    FieldInfo f;
    f.name = std::move(field_name);
    f.type = &type_of<M>();
    f.offset = static_cast<std::size_t>(
        reinterpret_cast<const char*>(&(probe.*member)) -
        reinterpret_cast<const char*>(&probe));
    info_->fields.push_back(std::move(f));
    return *this;
  }

  /// Declare serializable (java.io.Serializable analogue).  Effective
  /// serializability still requires all field types to be serializable.
  StructBuilder& serializable() {
    info_->traits.serializable = true;
    return *this;
  }

  /// Generate a deep clone from T's copy constructor (which is deep for
  /// value-semantic members — the compiler-generated clone of 4.2.3C).
  StructBuilder& cloneable() {
    info_->traits.cloneable = true;
    info_->clone_fn = [](const void* p) {
      return std::static_pointer_cast<void>(
          std::make_shared<T>(*static_cast<const T*>(p)));
    };
    return *this;
  }

  /// Instances are never mutated after construction; the cache may share
  /// them with the client application (pass-by-reference, 4.2.4).
  StructBuilder& immutable() {
    info_->traits.immutable = true;
    return *this;
  }

  /// Opt out of bean-ness: models an application-specific class without
  /// usable getters/setters, which copy-by-reflection cannot handle.
  StructBuilder& not_bean() {
    info_->traits.bean = false;
    return *this;
  }

  /// Custom toString (paper 4.1.2B).  Without it, bean types fall back to a
  /// reflective rendering and non-beans have no usable toString at all.
  StructBuilder& to_string(std::string (*fn)(const T&)) {
    custom_to_string() = fn;
    info_->to_string_fn = [](const void* p) {
      return custom_to_string()(*static_cast<const T*>(p));
    };
    return *this;
  }

  /// Publish to the registry and bind type_of<T>().  Call exactly once per
  /// process per type.
  const TypeInfo& register_type() {
    const TypeInfo& registered =
        TypeRegistry::instance().add(std::move(info_));
    detail::slot<T>() = &registered;
    return registered;
  }

 private:
  /// The per-T slot the type-erased to_string_fn reaches the user's
  /// function through (a plain function pointer cannot capture it).
  static std::string (*&custom_to_string())(const T&) {
    static std::string (*fn)(const T&) = nullptr;
    return fn;
  }

  std::unique_ptr<TypeInfo> info_;
};

}  // namespace wsc::reflect

#include "reflect/registry.hpp"

#include "util/strings.hpp"

namespace wsc::reflect {

TypeRegistry& TypeRegistry::instance() {
  static TypeRegistry* registry = new TypeRegistry();  // immortal
  return *registry;
}

const TypeInfo& TypeRegistry::add(std::unique_ptr<TypeInfo> info) {
  std::lock_guard lock(mu_);
  auto [it, inserted] = types_.emplace(info->name, nullptr);
  if (!inserted)
    throw ReflectionError("type '" + info->name + "' already registered");
  it->second = std::move(info);
  return *it->second;
}

const TypeInfo* TypeRegistry::find(std::string_view name) const {
  std::lock_guard lock(mu_);
  auto it = types_.find(name);
  return it == types_.end() ? nullptr : it->second.get();
}

const TypeInfo& TypeRegistry::get(std::string_view name) const {
  const TypeInfo* t = find(name);
  if (!t) throw ReflectionError("unknown type '" + std::string(name) + "'");
  return *t;
}

std::vector<std::string> TypeRegistry::type_names() const {
  std::lock_guard lock(mu_);
  std::vector<std::string> out;
  out.reserve(types_.size());
  for (const auto& [name, info] : types_) out.push_back(name);
  return out;
}

namespace detail {

namespace {

template <typename T>
TypeInfo make_primitive(std::string name, Kind kind, bool immutable,
                        std::function<std::string(const T&)> to_string) {
  TypeInfo t;
  t.name = std::move(name);
  t.kind = kind;
  t.shallow_size = sizeof(T);
  t.traits.serializable = true;
  t.traits.immutable = immutable;
  t.construct = [] { return std::static_pointer_cast<void>(std::make_shared<T>()); };
  // Primitive copies are trivially deep, but we deliberately do NOT mark
  // them cloneable: java.lang.String and byte[] are not usefully Cloneable
  // in the paper's Table 3, and the clone representation is reserved for
  // generated struct types.
  if (to_string) {
    t.to_string_fn = [fn = std::move(to_string)](const void* p) {
      return fn(*static_cast<const T*>(p));
    };
  }
  return t;
}

const TypeInfo& register_once(TypeInfo&& proto) {
  auto owned = std::make_unique<TypeInfo>(std::move(proto));
  return TypeRegistry::instance().add(std::move(owned));
}

}  // namespace

// Each builtin's prototype is built inside its function-local static's
// initializer, so only the first type_of<>() call pays for the name, the
// std::function members and their captures; later calls are one guard
// check and a load.

const TypeInfo& builtin_bool() {
  static const TypeInfo& t = register_once([] {
    TypeInfo proto = make_primitive<bool>(
        "boolean", Kind::Bool, true,
        [](const bool& v) { return std::string(v ? "true" : "false"); });
    proto.to_string_append_fn = [](const void* p, std::string& out) {
      out += *static_cast<const bool*>(p) ? "true" : "false";
    };
    return proto;
  }());
  return t;
}

const TypeInfo& builtin_i32() {
  static const TypeInfo& t = register_once([] {
    TypeInfo proto = make_primitive<std::int32_t>(
        "int", Kind::Int32, true,
        [](const std::int32_t& v) { return std::to_string(v); });
    proto.to_string_append_fn = [](const void* p, std::string& out) {
      util::append_i64(out, *static_cast<const std::int32_t*>(p));
    };
    return proto;
  }());
  return t;
}

const TypeInfo& builtin_i64() {
  static const TypeInfo& t = register_once([] {
    TypeInfo proto = make_primitive<std::int64_t>(
        "long", Kind::Int64, true,
        [](const std::int64_t& v) { return std::to_string(v); });
    proto.to_string_append_fn = [](const void* p, std::string& out) {
      util::append_i64(out, *static_cast<const std::int64_t*>(p));
    };
    return proto;
  }());
  return t;
}

const TypeInfo& builtin_double() {
  static const TypeInfo& t = register_once([] {
    TypeInfo proto = make_primitive<double>(
        "double", Kind::Double, true,
        [](const double& v) { return util::format_double(v); });
    proto.to_string_append_fn = [](const void* p, std::string& out) {
      util::append_double(out, *static_cast<const double*>(p));
    };
    return proto;
  }());
  return t;
}

const TypeInfo& builtin_string() {
  static const TypeInfo& t = register_once([] {
    TypeInfo proto = make_primitive<std::string>(
        "string", Kind::String, /*immutable=*/true,
        [](const std::string& v) { return v; });
    proto.to_string_append_fn = [](const void* p, std::string& out) {
      out += *static_cast<const std::string*>(p);
    };
    proto.owned_heap_fn = [](const void* p) {
      return static_cast<const std::string*>(p)->capacity();
    };
    return proto;
  }());
  return t;
}

const TypeInfo& builtin_bytes() {
  // byte[]: mutable, serializable, and (unlike String) reflection-copyable
  // as an "array-type object" (paper 4.2.3B) — but its toString is the
  // Java address-based default, so no to_string_fn.
  static const TypeInfo& t = register_once([] {
    TypeInfo proto = make_primitive<std::vector<std::uint8_t>>(
        "base64Binary", Kind::Bytes, /*immutable=*/false, nullptr);
    proto.owned_heap_fn = [](const void* p) {
      return static_cast<const std::vector<std::uint8_t>*>(p)->capacity();
    };
    return proto;
  }());
  return t;
}

const TypeInfo& register_array_type(std::string name, const TypeInfo& element,
                                    TypeInfo&& prototype) {
  (void)element;  // already wired into prototype.element by the caller
  prototype.name = std::move(name);
  return register_once(std::move(prototype));
}

}  // namespace detail
}  // namespace wsc::reflect

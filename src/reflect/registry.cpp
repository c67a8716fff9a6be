#include "reflect/registry.hpp"

#include <type_traits>

#include "util/base64.hpp"
#include "util/byte_buffer.hpp"
#include "util/mem_footprint.hpp"
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

using Bytes = std::vector<std::uint8_t>;

// Per-type codecs, picked by overload resolution in primitive_row<T>.
void append_text(bool v, std::string& out) { out += v ? "true" : "false"; }
void append_text(std::int32_t v, std::string& out) { util::append_i64(out, v); }
void append_text(std::int64_t v, std::string& out) { util::append_i64(out, v); }
void append_text(double v, std::string& out) { util::append_double(out, v); }
void append_text(const std::string& v, std::string& out) { out += v; }
void append_text(const Bytes& v, std::string& out) {
  out += util::base64_encode(v);
}

void parse_text(std::string& s, bool& v) { v = util::parse_bool(s); }
void parse_text(std::string& s, std::int32_t& v) { v = util::parse_i32(s); }
void parse_text(std::string& s, std::int64_t& v) { v = util::parse_i64(s); }
void parse_text(std::string& s, double& v) { v = util::parse_double(s); }
void parse_text(std::string& s, std::string& v) { v = std::move(s); }
void parse_text(std::string& s, Bytes& v) { v = util::base64_decode(s); }

void encode(bool v, util::ByteWriter& out) { out.write_bool(v); }
void encode(std::int32_t v, util::ByteWriter& out) { out.write_i32(v); }
void encode(std::int64_t v, util::ByteWriter& out) { out.write_i64(v); }
void encode(double v, util::ByteWriter& out) { out.write_f64(v); }
void encode(const std::string& v, util::ByteWriter& out) {
  out.write_string(v);
}
void encode(const Bytes& v, util::ByteWriter& out) { out.write_bytes(v); }

void decode(util::ByteReader& in, bool& v) { v = in.read_bool(); }
void decode(util::ByteReader& in, std::int32_t& v) { v = in.read_i32(); }
void decode(util::ByteReader& in, std::int64_t& v) { v = in.read_i64(); }
void decode(util::ByteReader& in, double& v) { v = in.read_f64(); }
void decode(util::ByteReader& in, std::string& v) { v = in.read_string(); }
void decode(util::ByteReader& in, Bytes& v) { v = in.read_bytes(); }

template <typename T>
const T& as(const void* p) {
  return *static_cast<const T*>(p);
}
template <typename T>
T& as(void* p) {
  return *static_cast<T*>(p);
}

/// The one template every primitive row comes from.
template <typename T>
constexpr PrimitiveOps primitive_row(const char* xsd_name, bool has_to_string) {
  constexpr bool kIsString = std::is_same_v<T, std::string>;
  return {
      xsd_name,
      [](const void* src, void* dst) { as<T>(dst) = as<T>(src); },
      [](const void* a, const void* b) { return as<T>(a) == as<T>(b); },
      [](const void* v, std::string& out) { append_text(as<T>(v), out); },
      [](std::string& text, void* dst) { parse_text(text, as<T>(dst)); },
      [](const void* v, util::ByteWriter& out) { encode(as<T>(v), out); },
      [](util::ByteReader& in, void* dst) { decode(in, as<T>(dst)); },
      [](const void* v) { return util::heap_footprint(as<T>(v)); },
      has_to_string,
      kIsString,
  };
}

template <typename T>
const TypeInfo& register_primitive(Kind kind, bool immutable,
                                   const PrimitiveOps& ops) {
  auto t = std::make_unique<TypeInfo>();
  // Builtins are named in the XSD vocabulary: "xsd:int" registers "int".
  t->name = std::string_view(ops.xsd_name).substr(4);
  t->kind = kind;
  t->shallow_size = sizeof(T);
  t->traits.serializable = true;
  t->traits.immutable = immutable;
  t->ops = &ops;
  t->construct = [] {
    return std::static_pointer_cast<void>(std::make_shared<T>());
  };
  // Primitive copies are trivially deep, but we deliberately do NOT mark
  // them cloneable: java.lang.String and byte[] are not usefully Cloneable
  // in the paper's Table 3, and the clone representation is reserved for
  // generated struct types.
  return TypeRegistry::instance().add(std::move(t));
}

constexpr PrimitiveOps kBoolRow = primitive_row<bool>("xsd:boolean", true);
constexpr PrimitiveOps kInt32Row =
    primitive_row<std::int32_t>("xsd:int", true);
constexpr PrimitiveOps kInt64Row =
    primitive_row<std::int64_t>("xsd:long", true);
constexpr PrimitiveOps kDoubleRow = primitive_row<double>("xsd:double", true);
constexpr PrimitiveOps kStringRow =
    primitive_row<std::string>("xsd:string", true);
constexpr PrimitiveOps kBytesRow =
    primitive_row<Bytes>("xsd:base64Binary", false);

}  // namespace

// Each builtin registers inside its function-local static's initializer,
// so later type_of<>() calls are one guard check and a load.

const TypeInfo& builtin_bool() {
  static const TypeInfo& t =
      register_primitive<bool>(Kind::Bool, true, kBoolRow);
  return t;
}

const TypeInfo& builtin_i32() {
  static const TypeInfo& t =
      register_primitive<std::int32_t>(Kind::Int32, true, kInt32Row);
  return t;
}

const TypeInfo& builtin_i64() {
  static const TypeInfo& t =
      register_primitive<std::int64_t>(Kind::Int64, true, kInt64Row);
  return t;
}

const TypeInfo& builtin_double() {
  static const TypeInfo& t =
      register_primitive<double>(Kind::Double, true, kDoubleRow);
  return t;
}

const TypeInfo& builtin_string() {
  static const TypeInfo& t = register_primitive<std::string>(
      Kind::String, /*immutable=*/true, kStringRow);
  return t;
}

const TypeInfo& builtin_bytes() {
  // byte[]: mutable, serializable, and (unlike String) reflection-copyable
  // as an "array-type object" (paper 4.2.3B) -- but its toString is the
  // Java address-based default (has_to_string is false in its row).
  static const TypeInfo& t = register_primitive<Bytes>(
      Kind::Bytes, /*immutable=*/false, kBytesRow);
  return t;
}

const TypeInfo& register_array_type(std::string name, const TypeInfo& element,
                                    TypeInfo&& prototype) {
  (void)element;  // already wired into prototype.element by the caller
  prototype.name = std::move(name);
  return TypeRegistry::instance().add(
      std::make_unique<TypeInfo>(std::move(prototype)));
}

}  // namespace detail
}  // namespace wsc::reflect

#include "reflect/serialize.hpp"

#include <string>

#include "util/byte_buffer.hpp"
#include "util/error.hpp"

namespace wsc::reflect {

namespace {

constexpr std::uint8_t kNullMarker = 0;
constexpr std::uint8_t kObjectMarker = 1;

void encode(const TypeInfo& t, const void* value, util::ByteWriter& out) {
  switch (t.kind) {
    case Kind::Bool:
      out.write_bool(*static_cast<const bool*>(value));
      return;
    case Kind::Int32:
      out.write_i32(*static_cast<const std::int32_t*>(value));
      return;
    case Kind::Int64:
      out.write_i64(*static_cast<const std::int64_t*>(value));
      return;
    case Kind::Double:
      out.write_f64(*static_cast<const double*>(value));
      return;
    case Kind::String:
      out.write_string(*static_cast<const std::string*>(value));
      return;
    case Kind::Bytes:
      out.write_bytes(*static_cast<const std::vector<std::uint8_t>*>(value));
      return;
    case Kind::Array: {
      std::size_t n = t.array_size(value);
      out.write_varint(n);
      for (std::size_t i = 0; i < n; ++i)
        encode(*t.element, t.array_at(const_cast<void*>(value), i), out);
      return;
    }
    case Kind::Struct: {
      if (!t.traits.serializable)
        throw SerializationError("type '" + t.name + "' is not serializable");
      for (const FieldInfo& f : t.fields) encode(*f.type, f.at(value), out);
      return;
    }
  }
  throw ReflectionError("encode: corrupt kind");
}

void decode(const TypeInfo& t, void* value, util::ByteReader& in) {
  switch (t.kind) {
    case Kind::Bool:
      *static_cast<bool*>(value) = in.read_bool();
      return;
    case Kind::Int32:
      *static_cast<std::int32_t*>(value) = in.read_i32();
      return;
    case Kind::Int64:
      *static_cast<std::int64_t*>(value) = in.read_i64();
      return;
    case Kind::Double:
      *static_cast<double*>(value) = in.read_f64();
      return;
    case Kind::String:
      *static_cast<std::string*>(value) = in.read_string();
      return;
    case Kind::Bytes:
      *static_cast<std::vector<std::uint8_t>*>(value) = in.read_bytes();
      return;
    case Kind::Array: {
      std::uint64_t n = in.read_varint();
      t.array_resize(value, n);
      for (std::uint64_t i = 0; i < n; ++i)
        decode(*t.element, t.array_at(value, i), in);
      return;
    }
    case Kind::Struct: {
      if (!t.traits.serializable)
        throw SerializationError("type '" + t.name + "' is not serializable");
      for (const FieldInfo& f : t.fields) decode(*f.type, f.at(value), in);
      return;
    }
  }
  throw ReflectionError("decode: corrupt kind");
}

}  // namespace

std::vector<std::uint8_t> serialize(const Object& obj) {
  util::ByteWriter out;
  if (obj.is_null()) {
    out.write_u8(kNullMarker);
    return out.take();
  }
  const TypeInfo& t = obj.type();
  if (!t.is_deeply_serializable())
    throw SerializationError("type '" + t.name +
                             "' is not deeply serializable");
  out.write_u8(kObjectMarker);
  out.write_string(t.name);
  encode(t, obj.data(), out);
  return out.take();
}

Object deserialize(std::span<const std::uint8_t> bytes) {
  util::ByteReader in(bytes);
  std::uint8_t marker = in.read_u8();
  if (marker == kNullMarker) {
    if (!in.at_end()) throw ParseError("trailing bytes after null marker");
    return {};
  }
  if (marker != kObjectMarker)
    throw ParseError("bad serialization stream marker");
  const TypeInfo& t = TypeRegistry::instance().get(in.read_string_view());
  if (!t.construct)
    throw SerializationError("type '" + t.name + "' is not constructible");
  std::shared_ptr<void> fresh = t.construct();
  decode(t, fresh.get(), in);
  if (!in.at_end())
    throw ParseError("trailing bytes after serialized object", in.position());
  return Object(std::move(fresh), &t);
}

bool supports_serialization(const TypeInfo& type) {
  return type.is_deeply_serializable();
}

}  // namespace wsc::reflect

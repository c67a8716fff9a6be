#include "reflect/serialize.hpp"

#include <string>

#include "util/byte_buffer.hpp"
#include "util/error.hpp"

namespace wsc::reflect {

namespace {

constexpr std::uint8_t kNullMarker = 0;
constexpr std::uint8_t kObjectMarker = 1;

void encode(const TypeInfo& t, const void* value, util::ByteWriter& out) {
  if (t.ops) {
    t.ops->encode(value, out);
  } else if (t.is_array()) {
    std::size_t n = t.array_size(value);
    out.write_varint(n);
    for (std::size_t i = 0; i < n; ++i)
      encode(*t.element, t.array_at(const_cast<void*>(value), i), out);
  } else {
    if (!t.traits.serializable)
      throw SerializationError("type '" + t.name + "' is not serializable");
    for (const FieldInfo& f : t.fields) encode(*f.type, f.at(value), out);
  }
}

void decode(const TypeInfo& t, void* value, util::ByteReader& in) {
  if (t.ops) {
    t.ops->decode(in, value);
  } else if (t.is_array()) {
    std::uint64_t n = in.read_varint();
    t.array_resize(value, n);
    for (std::uint64_t i = 0; i < n; ++i)
      decode(*t.element, t.array_at(value, i), in);
  } else {
    if (!t.traits.serializable)
      throw SerializationError("type '" + t.name + "' is not serializable");
    for (const FieldInfo& f : t.fields) decode(*f.type, f.at(value), in);
  }
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

#include "util/byte_buffer.hpp"

#include <bit>
#include <cstring>

namespace wsc::util {

void ByteWriter::write_u16(std::uint16_t v) {
  write_u8(static_cast<std::uint8_t>(v));
  write_u8(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::write_u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) write_u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::write_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) write_u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::write_f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  write_u64(bits);
}

void ByteWriter::write_varint(std::uint64_t v) {
  while (v >= 0x80) {
    write_u8(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  write_u8(static_cast<std::uint8_t>(v));
}

void ByteWriter::write_string(std::string_view s) {
  write_varint(s.size());
  append_raw(s);
}

void ByteWriter::write_bytes(std::span<const std::uint8_t> bytes) {
  write_varint(bytes.size());
  append_raw(bytes);
}

void ByteWriter::append_raw(std::span<const std::uint8_t> bytes) {
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void ByteWriter::append_raw(std::string_view s) {
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteReader::require(std::size_t n) const {
  if (remaining() < n) {
    throw ParseError("byte buffer underflow: need " + std::to_string(n) +
                         " bytes, have " + std::to_string(remaining()),
                     pos_);
  }
}

std::uint8_t ByteReader::read_u8() {
  require(1);
  return data_[pos_++];
}

std::uint16_t ByteReader::read_u16() {
  require(2);
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_]) |
                    static_cast<std::uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::read_u32() {
  require(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::read_u64() {
  require(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

double ByteReader::read_f64() {
  std::uint64_t bits = read_u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::uint64_t ByteReader::read_varint() {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    std::uint8_t b = read_u8();
    if (shift >= 64) throw ParseError("varint too long", pos_);
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
}

std::string_view ByteReader::read_string_view() {
  std::uint64_t n = read_varint();
  require(n);
  std::string_view s(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return s;
}

std::vector<std::uint8_t> ByteReader::read_bytes() {
  std::uint64_t n = read_varint();
  require(n);
  std::vector<std::uint8_t> out(data_.begin() + static_cast<long>(pos_),
                                data_.begin() + static_cast<long>(pos_ + n));
  pos_ += n;
  return out;
}

}  // namespace wsc::util

// Growable byte buffer with primitive read/write helpers.
//
// This is the wire format engine behind `reflect::BinarySerializer` (the
// stand-in for Java serialization) and the scratch space for the HTTP and
// XML layers.  All multi-byte integers are little-endian; strings and blobs
// are length-prefixed with a varint.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace wsc::util {

/// Append-only writer over a std::vector<uint8_t>.
class ByteWriter {
 public:
  ByteWriter() = default;

  void write_u8(std::uint8_t v) { buf_.push_back(v); }
  void write_u16(std::uint16_t v);
  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_i32(std::int32_t v) { write_u32(static_cast<std::uint32_t>(v)); }
  void write_i64(std::int64_t v) { write_u64(static_cast<std::uint64_t>(v)); }
  void write_f64(double v);
  void write_bool(bool v) { write_u8(v ? 1 : 0); }

  /// LEB128-style unsigned varint (used for all length prefixes).
  void write_varint(std::uint64_t v);

  /// Varint length prefix followed by raw bytes.
  void write_string(std::string_view s);
  void write_bytes(std::span<const std::uint8_t> bytes);

  void append_raw(std::span<const std::uint8_t> bytes);
  void append_raw(std::string_view s);

  std::size_t size() const noexcept { return buf_.size(); }
  const std::vector<std::uint8_t>& data() const noexcept { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Cursor-based reader over a borrowed byte range.  Throws ParseError on
/// underflow so corrupt cache entries are detected instead of misread.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}
  explicit ByteReader(const std::vector<std::uint8_t>& data)
      : data_(data.data(), data.size()) {}

  std::uint8_t read_u8();
  std::uint16_t read_u16();
  std::uint32_t read_u32();
  std::uint64_t read_u64();
  std::int32_t read_i32() { return static_cast<std::int32_t>(read_u32()); }
  std::int64_t read_i64() { return static_cast<std::int64_t>(read_u64()); }
  double read_f64();
  bool read_bool() { return read_u8() != 0; }
  std::uint64_t read_varint();
  std::string read_string() { return std::string(read_string_view()); }
  /// Same wire form as read_string(), as a view into the borrowed range.
  std::string_view read_string_view();
  std::vector<std::uint8_t> read_bytes();

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  std::size_t position() const noexcept { return pos_; }
  bool at_end() const noexcept { return pos_ == data_.size(); }

 private:
  void require(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace wsc::util

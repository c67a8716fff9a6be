// The one rule for billing cached bytes (Table 9, the cache's byte budget,
// /profiles bytes and the adaptive Bytes objective): a value is billed its
// inline bytes plus every heap block it owns, and only this file knows
// what a block costs — the bytes requested plus a flat per-block overhead.
// Containers bill by capacity; an SSO string owns no block (its inline
// buffer is inside sizeof(std::string), which the enclosing struct
// counts).  tests/core/footprint_allocator_test.cpp holds every
// representation to the allocator within max(3%, 64 B).
#pragma once

#include <cstddef>
#include <string>
#include <type_traits>
#include <vector>

namespace wsc::util {

/// Per-heap-block allocator cost: glibc malloc's 8-byte chunk header plus
/// typical size-class rounding.  A deliberate flat estimate — the point is
/// to stop pretending heap blocks are free, not to model one allocator
/// exactly.
inline constexpr std::size_t kAllocOverhead = 16;

/// One heap block of `requested` bytes, as billed.
constexpr std::size_t heap_block(std::size_t requested) noexcept {
  return requested + kAllocOverhead;
}

/// The one block std::make_shared allocates: the control block (a vtable
/// pointer and two counts) followed by the object.
constexpr std::size_t shared_block(std::size_t object_bytes) noexcept {
  return heap_block(sizeof(void*) + 2 * sizeof(int) + object_bytes);
}

/// Heap bytes a value owns directly, excluding its own sizeof.  Scalars
/// own none.
template <typename T>
  requires std::is_arithmetic_v<T>
constexpr std::size_t heap_footprint(T) noexcept {
  return 0;
}

inline std::size_t heap_footprint(const std::string& s) noexcept {
  if (s.capacity() <= std::string().capacity()) return 0;  // inline buffer
  return heap_block(s.capacity() + 1);  // +1: the NUL the block carries
}

/// The backing block only; element-owned heap is the caller's to add.
template <typename T>
std::size_t heap_footprint(const std::vector<T>& v) noexcept {
  if (v.capacity() == 0) return 0;
  return heap_block(v.capacity() * sizeof(T));
}

}  // namespace wsc::util

// Per-thread write stripes for hit-path bookkeeping.
//
// A counter or sketch that every thread writes shares its cache lines
// between cores, so each write pays a line transfer.  Striped structures
// keep kStripes copies instead, each thread writes the copy its stripe
// index names, and readers merge the copies.  Threads take indices round
// robin at first use, so any kStripes threads started one after another
// get distinct stripes and more threads share them evenly (writes stay
// atomic or locked, so a shared stripe is only slower, never wrong).
#pragma once

#include <atomic>
#include <cstddef>

namespace wsc::util {

inline constexpr std::size_t kStripes = 8;

/// This thread's stripe in [0, kStripes), fixed at its first call.
inline std::size_t thread_stripe() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local std::size_t stripe = kStripes;  // kStripes = not yet assigned
  if (stripe == kStripes) [[unlikely]]
    stripe = next.fetch_add(1, std::memory_order_relaxed) % kStripes;
  return stripe;
}

}  // namespace wsc::util

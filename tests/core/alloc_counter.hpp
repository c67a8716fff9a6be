// Counting global operator new for the test binaries that link it.  The
// replacement (alloc_counter.cpp) is binary-wide but counts only while
// armed, so suites that do not measure are unaffected.  The count covers
// every thread; measure single-threaded code only.
#pragma once

#include <cstddef>

namespace wsc::testing {

/// Reset the count to zero and start counting allocations.
void arm_alloc_counter();

/// Stop counting; returns the allocations made since arm_alloc_counter().
std::size_t disarm_alloc_counter();

/// The heap blocks operator new handed out since arm_alloc_counter() that
/// have not been deleted since.
struct LiveBlocks {
  std::size_t blocks = 0;
  /// Bytes the callers asked for.
  std::size_t requested = 0;
  /// malloc_usable_size() of the blocks; 0 in sanitizer builds, whose
  /// allocators keep no chunk headers and report no glibc size classes.
  std::size_t usable = 0;
  /// More blocks were live than the counter tracks (the figures are low).
  bool overflow = false;
};

/// Blocks still live from the armed window; call while armed.
LiveBlocks live_blocks();

}  // namespace wsc::testing

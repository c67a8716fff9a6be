// Counting global operator new for the hitpath_tests binary.  The
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

}  // namespace wsc::testing

#include "tests/core/alloc_counter.hpp"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define WSC_SANITIZED_ALLOCATOR 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define WSC_SANITIZED_ALLOCATOR 1
#endif
#endif

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::size_t> g_alloc_count{0};

/// The blocks allocated while armed and not yet freed, newest last.  A
/// spinlock guards it: the table must not allocate, and a window may see
/// another thread's frees.
struct LiveBlock {
  void* p;
  std::size_t size;
};
constexpr std::size_t kMaxLive = 1 << 14;
LiveBlock g_live[kMaxLive];
std::size_t g_live_count = 0;
bool g_live_overflow = false;
std::atomic_flag g_live_lock = ATOMIC_FLAG_INIT;

struct LiveLock {
  LiveLock() {
    while (g_live_lock.test_and_set(std::memory_order_acquire)) {
    }
  }
  ~LiveLock() { g_live_lock.clear(std::memory_order_release); }
};

void* counted_alloc(std::size_t size) {
  void* p = std::malloc(size ? size : 1);
  if (!p) throw std::bad_alloc();
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    LiveLock lock;
    if (g_live_count < kMaxLive)
      g_live[g_live_count++] = {p, size};
    else
      g_live_overflow = true;
  }
  return p;
}

void counted_free(void* p) noexcept {
  if (p && g_count_allocs.load(std::memory_order_relaxed)) {
    LiveLock lock;
    for (std::size_t i = g_live_count; i-- > 0;) {
      if (g_live[i].p == p) {
        g_live[i] = g_live[--g_live_count];
        break;
      }
    }
  }
  std::free(p);
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

namespace wsc::testing {

void arm_alloc_counter() {
  {
    LiveLock lock;
    g_live_count = 0;
    g_live_overflow = false;
  }
  g_alloc_count.store(0);
  g_count_allocs.store(true);
}

std::size_t disarm_alloc_counter() {
  g_count_allocs.store(false);
  return g_alloc_count.load();
}

LiveBlocks live_blocks() {
  LiveLock lock;
  LiveBlocks out;
  out.blocks = g_live_count;
  out.overflow = g_live_overflow;
  for (std::size_t i = 0; i < g_live_count; ++i) {
    out.requested += g_live[i].size;
#ifndef WSC_SANITIZED_ALLOCATOR
    out.usable += malloc_usable_size(g_live[i].p);
#endif
  }
  return out;
}

}  // namespace wsc::testing

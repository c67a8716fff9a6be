// Hit-path hammer: every public ResponseCache operation raced against
// every other on a single shard (so all threads contend on ONE
// shared_mutex and ONE clock ring), under eviction pressure and with TTLs
// short enough that entries expire mid-run.
//
// The test asserts only cheap global invariants — its real job is to give
// TSan (ctest -L hitpath under the tsan preset) a dense interleaving of:
//   shared-lock hits + relaxed mark stores   vs  unique-lock ring splices
//   lock-free expiry-tick reads              vs  refresh()'s tick stores
//   stats/footprint snapshots                vs  everything above
// Iteration counts are modest: the suite must stay fast under TSan's
// ~10x slowdown on single-core CI runners.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/response_cache.hpp"
#include "reflect/object.hpp"

namespace wsc::cache {
namespace {

using reflect::Object;
using std::chrono::milliseconds;

class IdValue final : public CachedValue {
 public:
  explicit IdValue(int id) : id_(id) {}
  reflect::Object retrieve() const override {
    return Object::make(std::int32_t{id_});
  }
  Representation representation() const override {
    return Representation::Reference;
  }
  std::size_t memory_size() const override { return 48; }

 private:
  std::int32_t id_;
};

TEST(HitpathHammerTest, AllOperationsRaceCleanlyOnOneShard) {
  constexpr int kThreads = 4;
  constexpr int kIters = 1500;
  constexpr int kKeySpace = 24;
  // max_entries below the key space: the clock hand sweeps constantly.
  ResponseCache cache(
      ResponseCache::Config{.max_entries = 16, .shards = 1});

  std::vector<CacheKey> keys;
  for (int i = 0; i < kKeySpace; ++i)
    keys.emplace_back("hammer-key-" + std::to_string(i));

  std::atomic<std::uint64_t> observed_hits{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const CacheKey& k = keys[(t * 7 + i) % kKeySpace];
        switch ((t + i) % 8) {
          case 0:
          case 1:
          case 2:  // hit path dominates, as in production
            if (auto v = cache.lookup(k.ref()).value) {
              v->retrieve();
              observed_hits.fetch_add(1, std::memory_order_relaxed);
            } else {
              // TTL short enough that some entries die mid-run.
              cache.store(k, std::make_shared<IdValue>(i), milliseconds(50));
            }
            break;
          case 3: {
            auto stale = cache.lookup(k.ref(), ResponseCache::Lookup::Stale);
            if (stale.value && !stale.fresh)
              cache.refresh(k, milliseconds(50));
            break;
          }
          case 4:
            (void)cache.lookup(k.ref(), ResponseCache::Lookup::Peek);
            break;
          case 5:
            cache.store(k, std::make_shared<IdValue>(i), milliseconds(80));
            break;
          case 6:
            if (i % 5 == 0) cache.invalidate(k);
            if (i % 11 == 0) cache.purge_expired();
            break;
          case 7: {
            StatsSnapshot s = cache.stats();
            // Snapshot coherence: entries/bytes are taken per shard under
            // the shard lock, so zero entries implies zero bytes.
            if (s.entries == 0) {
              EXPECT_EQ(s.bytes, 0u);
            }
            (void)cache.footprint();
            break;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  StatsSnapshot s = cache.stats();
  EXPECT_LE(s.entries, 16u);
  EXPECT_GT(s.hits + s.misses, 0u);
  EXPECT_GE(s.hits, observed_hits.load());  // revalidation hits also count
  // The ring survived the run: a full administrative flush finds a
  // consistent table and resets the footprint to zero.
  cache.clear();
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.bytes_used(), 0u);
}

TEST(HitpathHammerTest, ReadersScaleWhileOneWriterChurns) {
  // Shape the contention the tentpole optimizes for: many pure readers on
  // hot fresh keys (shared lock only) while a single writer churns cold
  // keys through store/evict cycles (unique lock + ring splices).
  ResponseCache cache(
      ResponseCache::Config{.max_entries = 32, .shards = 1});
  constexpr int kHot = 8;
  std::vector<CacheKey> hot;
  for (int i = 0; i < kHot; ++i)
    hot.emplace_back("hot-" + std::to_string(i));
  for (int i = 0; i < kHot; ++i)
    cache.store(hot[i], std::make_shared<IdValue>(i), milliseconds(60'000));

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      cache.store(CacheKey("cold-" + std::to_string(i % 64)),
                  std::make_shared<IdValue>(i), milliseconds(60'000));
      ++i;
    }
  });

  std::vector<std::thread> readers;
  std::atomic<std::uint64_t> hits{0};
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      for (int i = 0; i < 2000; ++i) {
        const CacheKey& k = hot[(t + i) % kHot];
        if (cache.lookup(k.ref()).value != nullptr) {
          hits.fetch_add(1, std::memory_order_relaxed);
        } else {
          // Read-through on the (rare) unlucky eviction: CLOCK is
          // approximate, and on a single-core runner a long writer
          // timeslice can revolve the hand past an unmarked hot key.
          cache.store(k, std::make_shared<IdValue>(i), milliseconds(60'000));
        }
      }
    });
  }
  for (auto& r : readers) r.join();
  stop.store(true);
  writer.join();
  // No ratio claim (scheduling-dependent); the run must simply have
  // exercised the shared-lock hit path and kept the table within budget.
  EXPECT_GT(hits.load(), 0u);
  EXPECT_LE(cache.entry_count(), 32u);
}

}  // namespace
}  // namespace wsc::cache

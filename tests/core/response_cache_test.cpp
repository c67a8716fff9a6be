// ResponseCache table mechanics: TTL expiry (manual clock), CLOCK
// (second-chance) eviction, byte budgets, stats, thread safety.
//
// Budget-exact tests pin shards = 1: the default shard count derives from
// the host's hardware concurrency, and per-shard budget splits would make
// tiny-budget eviction counts machine-dependent.
#include "core/response_cache.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "reflect/object.hpp"
#include "tests/reflect/test_types.hpp"

namespace wsc::cache {
namespace {

using reflect::Object;
using std::chrono::milliseconds;
using std::chrono::minutes;

/// Minimal stub value with a controllable footprint.
class StubValue final : public CachedValue {
 public:
  explicit StubValue(int id, std::size_t bytes = 64) : id_(id), bytes_(bytes) {}
  reflect::Object retrieve() const override {
    return Object::make(std::int32_t{id_});
  }
  Representation representation() const override {
    return Representation::Reference;
  }
  std::size_t memory_size() const override { return bytes_; }

 private:
  int id_;
  std::size_t bytes_;
};

CacheKey key(const std::string& s) { return CacheKey(s); }

std::shared_ptr<const CachedValue> value(int id, std::size_t bytes = 64) {
  return std::make_shared<StubValue>(id, bytes);
}

TEST(ResponseCacheTest, MissThenHit) {
  ResponseCache cache;
  EXPECT_EQ(cache.lookup(key("a")), nullptr);
  cache.store(key("a"), value(1), minutes(1));
  auto hit = cache.lookup(key("a"));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->retrieve().as<std::int32_t>(), 1);
  StatsSnapshot s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.stores, 1u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(ResponseCacheTest, StoreReplacesExisting) {
  ResponseCache cache;
  cache.store(key("a"), value(1), minutes(1));
  cache.store(key("a"), value(2), minutes(1));
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_EQ(cache.lookup(key("a"))->retrieve().as<std::int32_t>(), 2);
}

TEST(ResponseCacheTest, TtlExpiryWithManualClock) {
  util::ManualClock clock;
  ResponseCache cache(ResponseCache::Config{}, clock);
  cache.store(key("a"), value(1), milliseconds(1000));
  clock.advance(milliseconds(999));
  EXPECT_NE(cache.lookup(key("a")), nullptr);
  clock.advance(milliseconds(1));
  EXPECT_EQ(cache.lookup(key("a")), nullptr);  // expires exactly at TTL
  StatsSnapshot s = cache.stats();
  EXPECT_EQ(s.expirations, 1u);
  EXPECT_EQ(s.entries, 0u);  // lazily removed on lookup
}

TEST(ResponseCacheTest, ZeroTtlNeverHits) {
  util::ManualClock clock;
  ResponseCache cache(ResponseCache::Config{}, clock);
  cache.store(key("a"), value(1), milliseconds(0));
  EXPECT_EQ(cache.lookup(key("a")), nullptr);
}

TEST(ResponseCacheTest, NonPositiveTtlStoreIsRejectedNoOp) {
  ResponseCache cache;
  cache.store(key("a"), value(1), milliseconds(0));
  cache.store(key("b"), value(2), milliseconds(-5));
  // Nothing was inserted: no entries, no bytes charged, no store counted.
  StatsSnapshot s = cache.stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.bytes, 0u);
  EXPECT_EQ(s.stores, 0u);
  EXPECT_EQ(s.rejected_stores, 2u);
  EXPECT_EQ(s.expirations, 0u);  // never stored, so nothing to expire
}

TEST(ResponseCacheTest, RejectedStoreLeavesExistingEntryUntouched) {
  ResponseCache cache;
  cache.store(key("a"), value(1), minutes(1));
  cache.store(key("a"), value(2), milliseconds(0));  // rejected, not a replace
  auto hit = cache.lookup(key("a"));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->retrieve().as<std::int32_t>(), 1);
  StatsSnapshot s = cache.stats();
  EXPECT_EQ(s.stores, 1u);
  EXPECT_EQ(s.rejected_stores, 1u);
}

TEST(ResponseCacheTest, RejectedStoreCannotEvictLiveEntries) {
  // The old behavior charged an already-expired entry against the byte
  // budget, which could evict live entries before lazy expiry noticed it.
  ResponseCache cache(ResponseCache::Config{.max_entries = 2, .shards = 1});
  cache.store(key("a"), value(1), minutes(1));
  cache.store(key("b"), value(2), minutes(1));
  cache.store(key("dead"), value(3), milliseconds(0));
  EXPECT_NE(cache.lookup(key("a")), nullptr);
  EXPECT_NE(cache.lookup(key("b")), nullptr);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(ResponseCacheTest, PerEntryTtls) {
  util::ManualClock clock;
  ResponseCache cache(ResponseCache::Config{}, clock);
  cache.store(key("short"), value(1), milliseconds(10));
  cache.store(key("long"), value(2), minutes(10));
  clock.advance(milliseconds(20));
  EXPECT_EQ(cache.lookup(key("short")), nullptr);
  EXPECT_NE(cache.lookup(key("long")), nullptr);
}

TEST(ResponseCacheTest, PurgeExpiredSweepsEagerly) {
  util::ManualClock clock;
  ResponseCache cache(ResponseCache::Config{}, clock);
  for (int i = 0; i < 10; ++i)
    cache.store(key("k" + std::to_string(i)), value(i), milliseconds(5));
  cache.store(key("keeper"), value(99), minutes(1));
  clock.advance(milliseconds(10));
  EXPECT_EQ(cache.purge_expired(), 10u);
  EXPECT_EQ(cache.entry_count(), 1u);
}

TEST(ResponseCacheTest, ClockEvictionAtEntryCap) {
  // CLOCK second chance: a hit sets the entry's reference mark, so the
  // sweeping hand spares 'a' (clearing its mark) and evicts the first
  // unmarked entry after it — 'b', exactly what exact LRU would pick here.
  ResponseCache cache(ResponseCache::Config{.max_entries = 3, .shards = 1});
  cache.store(key("a"), value(1), minutes(1));
  cache.store(key("b"), value(2), minutes(1));
  cache.store(key("c"), value(3), minutes(1));
  cache.lookup(key("a"));  // marks a: the hand will spare it
  cache.store(key("d"), value(4), minutes(1));
  EXPECT_EQ(cache.entry_count(), 3u);
  EXPECT_EQ(cache.lookup(key("b")), nullptr);  // b evicted
  EXPECT_NE(cache.lookup(key("a")), nullptr);
  EXPECT_NE(cache.lookup(key("c")), nullptr);
  EXPECT_NE(cache.lookup(key("d")), nullptr);
  StatsSnapshot s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.second_chances, 1u);  // a was spared once
  EXPECT_EQ(s.clock_sweeps, 2u);    // hand examined a (spared), b (evicted)
}

TEST(ResponseCacheTest, ByteBudgetEviction) {
  ResponseCache cache(ResponseCache::Config{.max_bytes = 1000, .shards = 1});
  for (int i = 0; i < 10; ++i)
    cache.store(key("k" + std::to_string(i)), value(i, 300), minutes(1));
  EXPECT_LE(cache.bytes_used(), 1000u + 400u);  // one entry may straddle
  EXPECT_LT(cache.entry_count(), 10u);
  EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(ResponseCacheTest, ByteAccountingIncludesKey) {
  ResponseCache cache;
  CacheKey big_key(std::string(10'000, 'k'));
  cache.store(big_key, value(1, 10), minutes(1));
  EXPECT_GT(cache.bytes_used(), 10'000u);
}

TEST(ResponseCacheTest, OversizedSingleEntryStillStored) {
  // A single entry above the budget must not spin the evictor forever.
  ResponseCache cache(ResponseCache::Config{.max_bytes = 100});
  cache.store(key("huge"), value(1, 100'000), minutes(1));
  EXPECT_EQ(cache.entry_count(), 1u);
}

TEST(ResponseCacheTest, InvalidateRemovesEntry) {
  ResponseCache cache;
  cache.store(key("a"), value(1), minutes(1));
  EXPECT_TRUE(cache.invalidate(key("a")));
  EXPECT_FALSE(cache.invalidate(key("a")));
  EXPECT_EQ(cache.lookup(key("a")), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(ResponseCacheTest, ClearEmptiesEverything) {
  ResponseCache cache;
  for (int i = 0; i < 5; ++i)
    cache.store(key("k" + std::to_string(i)), value(i), minutes(1));
  cache.clear();
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.bytes_used(), 0u);
}

TEST(ResponseCacheTest, HitRatioComputed) {
  ResponseCache cache;
  cache.store(key("a"), value(1), minutes(1));
  cache.lookup(key("a"));
  cache.lookup(key("a"));
  cache.lookup(key("miss1"));
  cache.lookup(key("miss2"));
  EXPECT_DOUBLE_EQ(cache.stats().hit_ratio(), 0.5);
}

TEST(ResponseCacheTest, StatsToStringHumanReadable) {
  ResponseCache cache;
  std::string s = cache.stats().to_string();
  EXPECT_NE(s.find("hits=0"), std::string::npos);
  EXPECT_NE(s.find("entries=0"), std::string::npos);
}

TEST(ResponseCacheTest, StatsToStringCountsInvalidations) {
  ResponseCache cache;
  cache.store(key("a"), value(1), minutes(1));
  ASSERT_TRUE(cache.invalidate(key("a")));
  EXPECT_NE(cache.stats().to_string().find("invalidations=1"),
            std::string::npos);
}

TEST(ResponseCacheTest, ConcurrentMixedWorkload) {
  ResponseCache cache(ResponseCache::Config{.max_entries = 64});
  std::vector<std::thread> threads;
  std::atomic<int> retrieved{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 500; ++i) {
        CacheKey k("key" + std::to_string((t * 31 + i) % 40));
        if (auto v = cache.lookup(k)) {
          v->retrieve();
          retrieved.fetch_add(1);
        } else {
          cache.store(k, value(i), minutes(1));
        }
        if (i % 97 == 0) cache.invalidate(k);
      }
    });
  }
  for (auto& t : threads) t.join();
  StatsSnapshot s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, 8u * 500u);
  EXPECT_GT(retrieved.load(), 0);
  EXPECT_LE(cache.entry_count(), 64u);
}

}  // namespace
}  // namespace wsc::cache

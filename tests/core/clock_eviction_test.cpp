// Deterministic CLOCK (second-chance) eviction semantics, single shard.
//
// These tests replace the old exact-LRU-order assertions: CLOCK does not
// promise a total recency order, it promises (a) a hit buys exactly one
// reprieve from the sweeping hand, (b) the hand clears marks as it
// passes, and (c) expired entries are reclaimed as expirations before any
// live entry is evicted at that slot.  With a single shard and a scripted
// hit sequence the hand's path — and therefore the victim — is exact.
#include <gtest/gtest.h>

#include "core/response_cache.hpp"
#include "reflect/object.hpp"

namespace wsc::cache {
namespace {

using reflect::Object;
using std::chrono::milliseconds;
using std::chrono::minutes;

class IdValue final : public CachedValue {
 public:
  explicit IdValue(int id) : id_(id) {}
  reflect::Object retrieve() const override {
    return Object::make(std::int32_t{id_});
  }
  Representation representation() const override {
    return Representation::Reference;
  }
  std::size_t memory_size() const override { return 32; }

 private:
  std::int32_t id_;
};

CacheKey key(const std::string& s) { return CacheKey(s); }

std::shared_ptr<const CachedValue> value(int id) {
  return std::make_shared<IdValue>(id);
}

ResponseCache::Config one_shard(std::size_t max_entries) {
  return ResponseCache::Config{.max_entries = max_entries, .shards = 1};
}

bool present(ResponseCache& cache, const std::string& k) {
  // A Peek lookup is a side-effect-free presence probe (no mark, no
  // hit/miss accounting), so the probe cannot perturb the clock state.
  return cache.lookup(key(k).ref(), ResponseCache::Lookup::Peek).value !=
         nullptr;
}

TEST(ClockEvictionTest, UnmarkedEntriesEvictInInsertionOrder) {
  ResponseCache cache(one_shard(3));
  cache.store(key("a"), value(1), minutes(1));
  cache.store(key("b"), value(2), minutes(1));
  cache.store(key("c"), value(3), minutes(1));
  // No hits anywhere: pure FIFO — the hand starts at 'a'.
  cache.store(key("d"), value(4), minutes(1));
  EXPECT_FALSE(present(cache, "a"));
  EXPECT_TRUE(present(cache, "b"));
  cache.store(key("e"), value(5), minutes(1));
  EXPECT_FALSE(present(cache, "b"));
  StatsSnapshot s = cache.stats();
  EXPECT_EQ(s.evictions, 2u);
  EXPECT_EQ(s.second_chances, 0u);
}

TEST(ClockEvictionTest, HitBuysExactlyOneSecondChance) {
  ResponseCache cache(one_shard(3));
  cache.store(key("a"), value(1), minutes(1));
  cache.store(key("b"), value(2), minutes(1));
  cache.store(key("c"), value(3), minutes(1));
  cache.lookup(key("a").ref());  // mark a
  // Sweep 1: a is marked -> spared (mark cleared, hand moves on), b is
  // the first unmarked entry after it -> evicted.
  cache.store(key("d"), value(4), minutes(1));
  EXPECT_TRUE(present(cache, "a"));
  EXPECT_FALSE(present(cache, "b"));
  // The hand now rests past a; never re-hit, a survives only until the
  // hand revolves back: the next victims are c, then d, then a itself.
  cache.store(key("e"), value(5), minutes(1));
  EXPECT_FALSE(present(cache, "c"));
  EXPECT_TRUE(present(cache, "a"));
  cache.store(key("f"), value(6), minutes(1));
  EXPECT_FALSE(present(cache, "d"));
  EXPECT_TRUE(present(cache, "a"));
  cache.store(key("g"), value(7), minutes(1));
  EXPECT_FALSE(present(cache, "a"));  // mark consumed in sweep 1: a pays
  StatsSnapshot s = cache.stats();
  EXPECT_EQ(s.evictions, 4u);        // b, c, d, a
  EXPECT_EQ(s.second_chances, 1u);   // a was spared exactly once
}

TEST(ClockEvictionTest, AllMarkedMeansNewcomerLosesFirstRound) {
  // When every resident entry is hot, the hand strips all marks and comes
  // back around to the unmarked newcomer — CLOCK's implicit admission
  // control.  The marks are gone afterwards, so the NEXT insertion evicts
  // the oldest resident.
  ResponseCache cache(one_shard(3));
  cache.store(key("a"), value(1), minutes(1));
  cache.store(key("b"), value(2), minutes(1));
  cache.store(key("c"), value(3), minutes(1));
  cache.lookup(key("a").ref());
  cache.lookup(key("b").ref());
  cache.lookup(key("c").ref());
  cache.store(key("d"), value(4), minutes(1));
  EXPECT_TRUE(present(cache, "a"));
  EXPECT_TRUE(present(cache, "b"));
  EXPECT_TRUE(present(cache, "c"));
  EXPECT_FALSE(present(cache, "d"));
  EXPECT_EQ(cache.stats().second_chances, 3u);
  cache.store(key("e"), value(5), minutes(1));
  EXPECT_FALSE(present(cache, "a"));  // marks consumed: a pays next
  EXPECT_TRUE(present(cache, "e"));
}

TEST(ClockEvictionTest, ReplaceCountsAsUse) {
  ResponseCache cache(one_shard(3));
  cache.store(key("a"), value(1), minutes(1));
  cache.store(key("b"), value(2), minutes(1));
  cache.store(key("c"), value(3), minutes(1));
  cache.store(key("a"), value(10), minutes(1));  // replace marks a
  cache.store(key("d"), value(4), minutes(1));
  EXPECT_TRUE(present(cache, "a"));
  EXPECT_FALSE(present(cache, "b"));
  EXPECT_EQ(cache.lookup(key("a").ref()).value->retrieve().as<std::int32_t>(),
            10);
}

TEST(ClockEvictionTest, ExpiredEntriesReclaimedAsExpirationsNotEvictions) {
  util::ManualClock clock;
  ResponseCache cache(one_shard(3), clock);
  cache.store(key("a"), value(1), milliseconds(10));
  cache.store(key("b"), value(2), minutes(1));
  cache.store(key("c"), value(3), minutes(1));
  // mark b: without the dead 'a' b would be spared
  cache.lookup(key("b").ref());
  clock.advance(milliseconds(20));  // a is now dead in place
  cache.store(key("d"), value(4), minutes(1));
  // The hand found 'a' expired and reclaimed it — no live entry paid.
  EXPECT_TRUE(present(cache, "b"));
  EXPECT_TRUE(present(cache, "c"));
  EXPECT_TRUE(present(cache, "d"));
  StatsSnapshot s = cache.stats();
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.expirations, 1u);
  EXPECT_EQ(s.entries, 3u);
}

TEST(ClockEvictionTest, RefreshMarksEntryForTheSweep) {
  util::ManualClock clock;
  ResponseCache cache(one_shard(3), clock);
  cache.store(key("a"), value(1), minutes(1));
  cache.store(key("b"), value(2), minutes(1));
  cache.store(key("c"), value(3), minutes(1));
  EXPECT_TRUE(cache.refresh(key("a"), minutes(2)));  // 304 renewal marks a
  cache.store(key("d"), value(4), minutes(1));
  EXPECT_TRUE(present(cache, "a"));
  EXPECT_FALSE(present(cache, "b"));
}

TEST(ClockEvictionTest, SweepStatisticsAccumulate) {
  ResponseCache cache(one_shard(2));
  cache.store(key("a"), value(1), minutes(1));
  cache.store(key("b"), value(2), minutes(1));
  for (int i = 0; i < 8; ++i)
    cache.store(key("k" + std::to_string(i)), value(i), minutes(1));
  StatsSnapshot s = cache.stats();
  EXPECT_EQ(s.evictions, 8u);
  EXPECT_GE(s.clock_sweeps, s.evictions);
  EXPECT_EQ(s.entries, 2u);
}

}  // namespace
}  // namespace wsc::cache

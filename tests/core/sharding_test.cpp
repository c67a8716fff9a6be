// Sharded cache configuration: correctness must be identical to the
// single-shard table; only lock granularity changes.
#include <gtest/gtest.h>

#include <bit>
#include <thread>

#include "core/response_cache.hpp"
#include "reflect/object.hpp"

namespace wsc::cache {
namespace {

using reflect::Object;
using std::chrono::minutes;

class IdValue final : public CachedValue {
 public:
  explicit IdValue(int id) : id_(id) {}
  reflect::Object retrieve() const override { return Object::make(id_); }
  Representation representation() const override {
    return Representation::Reference;
  }
  std::size_t memory_size() const override { return 32; }

 private:
  std::int32_t id_;
};

class ShardCounts : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShardCounts, BasicOperationsBehaveIdentically) {
  ResponseCache::Config config;
  config.shards = GetParam();
  ResponseCache cache(config);
  for (int i = 0; i < 200; ++i) {
    cache.store(CacheKey("k" + std::to_string(i)),
                std::make_shared<IdValue>(i), minutes(1));
  }
  EXPECT_EQ(cache.entry_count(), 200u);
  for (int i = 0; i < 200; ++i) {
    auto v = cache.lookup(CacheKey("k" + std::to_string(i)).ref()).value;
    ASSERT_NE(v, nullptr) << i;
    EXPECT_EQ(v->retrieve().as<std::int32_t>(), i);
  }
  EXPECT_TRUE(cache.invalidate(CacheKey("k5")));
  EXPECT_EQ(cache.lookup(CacheKey("k5").ref()).value, nullptr);
  cache.clear();
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.bytes_used(), 0u);
}

TEST_P(ShardCounts, BudgetsEnforcedPerShard) {
  ResponseCache::Config config;
  config.shards = GetParam();
  config.max_entries = 64;
  ResponseCache cache(config);
  for (int i = 0; i < 1000; ++i) {
    cache.store(CacheKey("k" + std::to_string(i)),
                std::make_shared<IdValue>(i), minutes(1));
  }
  // Total stays at or under the global budget regardless of sharding.
  EXPECT_LE(cache.entry_count(), 64u);
  EXPECT_GT(cache.stats().evictions, 0u);
}

TEST_P(ShardCounts, TtlExpiryStillExact) {
  util::ManualClock clock;
  ResponseCache::Config config;
  config.shards = GetParam();
  ResponseCache cache(config, clock);
  for (int i = 0; i < 50; ++i) {
    cache.store(CacheKey("k" + std::to_string(i)),
                std::make_shared<IdValue>(i), std::chrono::milliseconds(10));
  }
  clock.advance(std::chrono::milliseconds(20));
  EXPECT_EQ(cache.purge_expired(), 50u);
}

TEST_P(ShardCounts, ConcurrentHammering) {
  ResponseCache::Config config;
  config.shards = GetParam();
  ResponseCache cache(config);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 400; ++i) {
        CacheKey k("key" + std::to_string((t * 13 + i) % 64));
        if (auto v = cache.lookup(k.ref()).value) {
          v->retrieve();
        } else {
          cache.store(k, std::make_shared<IdValue>(i), minutes(1));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  StatsSnapshot s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, 8u * 400u);
}

INSTANTIATE_TEST_SUITE_P(Shards, ShardCounts,
                         ::testing::Values(1, 2, 4, 8, 16, 64));

TEST(ShardingTest, DefaultShardCountIsClampedPowerOfTwo) {
  std::size_t s = default_shard_count();
  EXPECT_GE(s, 1u);
  EXPECT_LE(s, 64u);
  EXPECT_TRUE(std::has_single_bit(s)) << s;
  // The Config default picks it up (budget-split consequences documented
  // in the header: per-shard budget = global budget / shards).
  ResponseCache::Config config;
  EXPECT_EQ(config.shards, s);
}

TEST(ShardingTest, ZeroShardsClampedToOne) {
  ResponseCache::Config config;
  config.shards = 0;
  ResponseCache cache(config);
  cache.store(CacheKey("k"), std::make_shared<IdValue>(1), minutes(1));
  EXPECT_NE(cache.lookup(CacheKey("k").ref()).value, nullptr);
}

TEST(ShardingTest, KeysSpreadAcrossShards) {
  // With many keys and several shards, eviction under a tight global
  // budget must not starve: every shard gets at least its share.
  ResponseCache::Config config;
  config.shards = 8;
  config.max_entries = 8;  // one entry per shard
  ResponseCache cache(config);
  for (int i = 0; i < 256; ++i) {
    cache.store(CacheKey("spread" + std::to_string(i)),
                std::make_shared<IdValue>(i), minutes(1));
  }
  // All shards non-empty is probabilistic but near-certain with 256 keys;
  // at minimum the global cap holds and the cache still functions.
  EXPECT_LE(cache.entry_count(), 8u);
  EXPECT_GE(cache.entry_count(), 4u);
}

}  // namespace
}  // namespace wsc::cache

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
  EXPECT_EQ(cache.lookup(key("a").ref()).value, nullptr);
  cache.store(key("a"), value(1), minutes(1));
  auto hit = cache.lookup(key("a").ref()).value;
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
  EXPECT_EQ(cache.lookup(key("a").ref()).value->retrieve().as<std::int32_t>(),
            2);
}

TEST(ResponseCacheTest, TtlExpiryWithManualClock) {
  util::ManualClock clock;
  ResponseCache cache(ResponseCache::Config{}, clock);
  cache.store(key("a"), value(1), milliseconds(1000));
  clock.advance(milliseconds(999));
  EXPECT_NE(cache.lookup(key("a").ref()).value, nullptr);
  clock.advance(milliseconds(1));
  // expires exactly at TTL
  EXPECT_EQ(cache.lookup(key("a").ref()).value,
            nullptr);
  StatsSnapshot s = cache.stats();
  EXPECT_EQ(s.expirations, 1u);
  EXPECT_EQ(s.entries, 0u);  // lazily removed on lookup
}

TEST(ResponseCacheTest, ZeroTtlNeverHits) {
  util::ManualClock clock;
  ResponseCache cache(ResponseCache::Config{}, clock);
  cache.store(key("a"), value(1), milliseconds(0));
  EXPECT_EQ(cache.lookup(key("a").ref()).value, nullptr);
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
  auto hit = cache.lookup(key("a").ref()).value;
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
  EXPECT_NE(cache.lookup(key("a").ref()).value, nullptr);
  EXPECT_NE(cache.lookup(key("b").ref()).value, nullptr);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(ResponseCacheTest, PerEntryTtls) {
  util::ManualClock clock;
  ResponseCache cache(ResponseCache::Config{}, clock);
  cache.store(key("short"), value(1), milliseconds(10));
  cache.store(key("long"), value(2), minutes(10));
  clock.advance(milliseconds(20));
  EXPECT_EQ(cache.lookup(key("short").ref()).value, nullptr);
  EXPECT_NE(cache.lookup(key("long").ref()).value, nullptr);
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
  cache.lookup(key("a").ref());  // marks a: the hand will spare it
  cache.store(key("d"), value(4), minutes(1));
  EXPECT_EQ(cache.entry_count(), 3u);
  EXPECT_EQ(cache.lookup(key("b").ref()).value, nullptr);  // b evicted
  EXPECT_NE(cache.lookup(key("a").ref()).value, nullptr);
  EXPECT_NE(cache.lookup(key("c").ref()).value, nullptr);
  EXPECT_NE(cache.lookup(key("d").ref()).value, nullptr);
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
  EXPECT_EQ(cache.lookup(key("a").ref()).value, nullptr);
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
  cache.lookup(key("a").ref());
  cache.lookup(key("a").ref());
  cache.lookup(key("miss1").ref());
  cache.lookup(key("miss2").ref());
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
        if (auto v = cache.lookup(k.ref()).value) {
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


// --- lookup(key, mode): every mode against every entry state -------------

enum class EntryState { Absent, Fresh, Expired, PastSoftTtl };

struct ModeCell {
  ResponseCache::Lookup mode;
  EntryState state;
  // Returned fields.
  bool value;
  bool fresh;
  bool last_modified;
  milliseconds staleness;
  bool refresh_ahead;
  // Counter deltas.
  std::uint64_t hits, misses, expirations;
  // Side effects.
  bool survives;     // a Peek afterwards still finds the entry
  bool claim_left;   // a Stale lookup afterwards still wins the soft claim
  bool hot_offered;  // the key's hot-key count grew by one
};

const char* state_name(EntryState state) {
  switch (state) {
    case EntryState::Absent: return "absent";
    case EntryState::Fresh: return "fresh";
    case EntryState::Expired: return "expired";
    case EntryState::PastSoftTtl: return "fresh past the soft TTL";
  }
  return "?";
}

const char* mode_name(ResponseCache::Lookup mode) {
  switch (mode) {
    case ResponseCache::Lookup::Fresh: return "Fresh";
    case ResponseCache::Lookup::Stale: return "Stale";
    case ResponseCache::Lookup::Peek: return "Peek";
  }
  return "?";
}

std::uint64_t hot_count(const ResponseCache& cache, const std::string& k) {
  for (const auto& hot : cache.hot_keys())
    if (hot.key == k) return hot.count;
  return 0;
}

TEST(LookupModeMatrixTest, EachModeHasExactlyItsSideEffects) {
  using L = ResponseCache::Lookup;
  using E = EntryState;
  const milliseconds none(0);
  const milliseconds stale_by(50);  // expired cells sit 50ms past expiry
  // clang-format off
  const ModeCell cells[] = {
    // mode      state          value  fresh  lm     staleness ra     h  m  x  survives claim  hot
    {L::Fresh, E::Absent,      false, false, false, none,     false, 0, 1, 0, false,   false, true},
    {L::Fresh, E::Fresh,       true,  true,  true,  none,     false, 1, 0, 0, true,    false, true},
    {L::Fresh, E::Expired,     false, false, false, none,     false, 0, 1, 1, false,   false, true},
    {L::Fresh, E::PastSoftTtl, true,  true,  true,  none,     false, 1, 0, 0, true,    true,  true},
    {L::Stale, E::Absent,      false, false, false, none,     false, 0, 1, 0, false,   false, true},
    {L::Stale, E::Fresh,       true,  true,  true,  none,     false, 1, 0, 0, true,    false, true},
    {L::Stale, E::Expired,     true,  false, true,  stale_by, false, 0, 0, 0, true,    false, true},
    {L::Stale, E::PastSoftTtl, true,  true,  true,  none,     true,  1, 0, 0, true,    false, true},
    {L::Peek,  E::Absent,      false, false, false, none,     false, 0, 0, 0, false,   false, false},
    {L::Peek,  E::Fresh,       true,  true,  true,  none,     false, 0, 0, 0, true,    false, false},
    {L::Peek,  E::Expired,     true,  false, true,  stale_by, false, 0, 0, 0, true,    false, false},
    {L::Peek,  E::PastSoftTtl, true,  true,  true,  none,     false, 0, 0, 0, true,    true,  false},
  };
  // clang-format on
  for (const ModeCell& cell : cells) {
    SCOPED_TRACE(std::string(mode_name(cell.mode)) + " lookup of an entry " +
                 state_name(cell.state));
    util::ManualClock clock;
    ResponseCache cache(ResponseCache::Config{.shards = 1}, clock);
    cache.enable_hot_key_tracking({.capacity = 8, .sample_every = 1});
    if (cell.state != E::Absent)
      cache.store(key("k"), value(1), milliseconds(100),
                  std::chrono::seconds(42), /*soft_ttl=*/milliseconds(50));
    clock.advance(cell.state == E::Fresh         ? milliseconds(10)
                  : cell.state == E::PastSoftTtl ? milliseconds(60)
                                                 : milliseconds(150));
    const StatsSnapshot before = cache.stats();
    const std::uint64_t hot_before = hot_count(cache, "k");

    const ResponseCache::LookupResult r =
        cache.lookup(key("k").ref(), cell.mode);

    EXPECT_EQ(r.value != nullptr, cell.value);
    EXPECT_EQ(r.fresh, cell.fresh);
    EXPECT_EQ(r.last_modified.has_value(), cell.last_modified);
    if (cell.last_modified) {
      EXPECT_EQ(*r.last_modified, std::chrono::seconds(42));
    }
    EXPECT_EQ(r.staleness, util::Duration(cell.staleness));
    EXPECT_EQ(r.refresh_ahead, cell.refresh_ahead);
    const StatsSnapshot after = cache.stats();
    EXPECT_EQ(after.hits - before.hits, cell.hits);
    EXPECT_EQ(after.misses - before.misses, cell.misses);
    EXPECT_EQ(after.expirations - before.expirations, cell.expirations);
    EXPECT_EQ(hot_count(cache, "k") - hot_before, cell.hot_offered ? 1u : 0u);
    EXPECT_EQ(cache.lookup(key("k").ref(), L::Peek).value != nullptr,
              cell.survives);
    EXPECT_EQ(cache.lookup(key("k").ref(), L::Stale).refresh_ahead,
              cell.claim_left);
  }
}

}  // namespace
}  // namespace wsc::cache

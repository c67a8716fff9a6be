// Concurrency hammers for the telemetry hot structures — small iteration
// counts, designed to run under tsan (the "obs" label is in the tsan CI
// job's filter): windowed counters, the event ring, the cost-profile
// registry, and hot-key tracking on the live cache lookup path.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/cache_key.hpp"
#include "core/response_cache.hpp"
#include "reflect/object.hpp"
#include "obs/events.hpp"
#include "obs/profiles.hpp"
#include "obs/windowed.hpp"

namespace wsc {
namespace {

constexpr int kThreads = 4;

class TinyValue final : public cache::CachedValue {
 public:
  reflect::Object retrieve() const override {
    return reflect::Object::make(std::int32_t{1});
  }
  cache::Representation representation() const override {
    return cache::Representation::Reference;
  }
  std::size_t memory_size() const override { return 16; }
};

void run_threads(const std::function<void(int)>& body) {
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) pool.emplace_back(body, t);
  for (auto& th : pool) th.join();
}

TEST(TelemetryHammerTest, WindowedCounterConcurrentInc) {
  obs::WindowedCounter counter;
  constexpr int kOps = 5000;
  run_threads([&](int) {
    for (int i = 0; i < kOps; ++i) {
      counter.inc();
      if (i % 64 == 0) (void)counter.windowed();  // readers race writers
    }
  });
  EXPECT_EQ(counter.value(), static_cast<std::uint64_t>(kThreads) * kOps);
  // The window may have lost a bounded number of increments at rotation
  // edges but can never exceed the exact total.
  EXPECT_LE(counter.windowed(), counter.value());
}

TEST(TelemetryHammerTest, WindowedSummaryConcurrentRecord) {
  obs::WindowedSummary summary;
  constexpr int kOps = 2000;
  run_threads([&](int t) {
    for (int i = 0; i < kOps; ++i) {
      summary.record(static_cast<std::uint64_t>(t) * 1000 + i);
      if (i % 128 == 0) (void)summary.windowed_snapshot();
    }
  });
  EXPECT_EQ(summary.snapshot().count(),
            static_cast<std::uint64_t>(kThreads) * kOps);
}

TEST(TelemetryHammerTest, EventLogConcurrentEmitAndSnapshot) {
  obs::EventLog log(64);
  constexpr int kOps = 500;
  run_threads([&](int t) {
    for (int i = 0; i < kOps; ++i) {
      log.emit(obs::EventKind::SlowCall, "hammer",
               "thread " + std::to_string(t), static_cast<std::uint64_t>(i));
      if (i % 32 == 0) (void)log.snapshot();
      if (i % 64 == 0) (void)log.json(16);
    }
  });
  EXPECT_EQ(log.total_emitted(), static_cast<std::uint64_t>(kThreads) * kOps);
  EXPECT_EQ(log.count(obs::EventKind::SlowCall),
            static_cast<std::uint64_t>(kThreads) * kOps);
  EXPECT_EQ(log.snapshot().size(), 64u);  // ring stays exactly full
}

TEST(TelemetryHammerTest, CostProfilesConcurrentFeedAndScrape) {
  obs::CostProfiles profiles;
  constexpr int kOps = 1000;
  run_threads([&](int t) {
    const std::string op = "op" + std::to_string(t % 2);
    for (int i = 0; i < kOps; ++i) {
      obs::CallSample call;
      call.service = "Svc";
      call.operation = op;
      call.representation = "XML message";
      call.outcome = i % 3 == 0 ? obs::Outcome::Miss : obs::Outcome::Hit;
      call.stage_ns[static_cast<std::size_t>(obs::Stage::Retrieve)] = 75;
      call.stage_ns[static_cast<std::size_t>(obs::Stage::Deserialize)] = 100;
      call.stage_ns[static_cast<std::size_t>(obs::Stage::Store)] = 50;
      call.entry_bytes = 32;
      profiles.record(call);
      if (i % 100 == 0) (void)profiles.snapshot();
    }
  });
  std::uint64_t hits = 0, misses = 0;
  for (const auto& row : profiles.snapshot()) {
    hits += row.hits;
    misses += row.misses;
  }
  EXPECT_EQ(hits + misses, static_cast<std::uint64_t>(kThreads) * kOps);
}

TEST(TelemetryHammerTest, HotKeyTrackingOnLiveLookups) {
  cache::ResponseCache cache;
  cache.enable_hot_key_tracking({/*capacity=*/16, /*sample_every=*/1});
  std::vector<cache::CacheKey> keys;
  for (int k = 0; k < 8; ++k) {
    keys.emplace_back("key" + std::to_string(k));
    cache.store(keys.back(), std::make_shared<TinyValue>(),
                std::chrono::hours(1));
  }
  constexpr int kOps = 2000;
  run_threads([&](int t) {
    for (int i = 0; i < kOps; ++i) {
      (void)cache.lookup(keys[(t + i) % keys.size()].ref());
      if (i % 256 == 0) (void)cache.hot_keys(8);
    }
  });
  std::vector<obs::TopKSketch::HotKey> hot = cache.hot_keys(8);
  ASSERT_FALSE(hot.empty());
  std::uint64_t total = 0;
  for (const auto& h : hot) total += h.count;
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads) * kOps);
}

}  // namespace
}  // namespace wsc

// Windowed aggregation edge cases, driven by an injectable clock: bucket
// rotation across window boundaries, reads racing rotation, reclaim after
// long idle gaps, and empty-window percentiles.
#include "obs/windowed.hpp"

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "obs/promcheck.hpp"
#include "tests/core/alloc_counter.hpp"

namespace wsc::obs {
namespace {

constexpr std::uint64_t kSec = 1'000'000'000ull;

/// 4 buckets x 1s = a 4s window, clocked by hand.
WindowOptions manual_window(const std::uint64_t* now) {
  WindowOptions w;
  w.buckets = 4;
  w.bucket_width = std::chrono::seconds(1);
  w.now = [now] { return *now; };
  return w;
}

TEST(WindowedCounterTest, LifetimeExactWindowRolls) {
  std::uint64_t now = 0;
  WindowedCounter c{manual_window(&now)};
  c.inc(3);
  EXPECT_EQ(c.value(), 3u);
  EXPECT_EQ(c.windowed(), 3u);

  now = 2 * kSec;  // still inside the 4s window
  c.inc(2);
  EXPECT_EQ(c.value(), 5u);
  EXPECT_EQ(c.windowed(), 5u);

  now = 4 * kSec;  // the t=0 bucket just fell out
  EXPECT_EQ(c.windowed(), 2u);
  now = 7 * kSec;  // everything out
  EXPECT_EQ(c.windowed(), 0u);
  EXPECT_EQ(c.value(), 5u);  // lifetime unaffected by rotation
}

TEST(WindowedCounterTest, RotationAcrossEveryBoundary) {
  std::uint64_t now = 0;
  WindowedCounter c{manual_window(&now)};
  // One inc per second for 8 seconds: the window must always report
  // exactly the last 4 of them, through two full ring wraps.
  for (int s = 0; s < 8; ++s) {
    now = s * kSec;
    c.inc();
    const std::uint64_t expect = s < 4 ? s + 1 : 4;
    EXPECT_EQ(c.windowed(), expect) << "second " << s;
  }
  EXPECT_EQ(c.value(), 8u);
}

TEST(WindowedCounterTest, ReclaimAfterLongIdleGap) {
  std::uint64_t now = 0;
  WindowedCounter c{manual_window(&now)};
  c.inc(100);
  now = 1000 * kSec;  // idle far longer than the whole window
  EXPECT_EQ(c.windowed(), 0u);
  c.inc(7);  // must reclaim a stale bucket, not add to it
  EXPECT_EQ(c.windowed(), 7u);
  EXPECT_EQ(c.value(), 107u);
}

TEST(WindowedCounterTest, ScrapeDuringRotationSeesStableBuckets) {
  std::uint64_t now = 0;
  WindowedCounter c{manual_window(&now)};
  c.inc(5);
  // A reader whose `now` lags the writer's (scrape racing rotation): the
  // t=0 bucket is within ITS window either way; a bucket stamped in the
  // future of the reader's clock must not be double-dropped or negated.
  now = 1 * kSec;
  c.inc(2);
  EXPECT_EQ(c.windowed(0), 5u);        // lagging reader: future bucket excluded
  EXPECT_EQ(c.windowed(1 * kSec), 7u); // current reader: both
  // Reads never mutate: repeated scrapes agree.
  EXPECT_EQ(c.windowed(0), 5u);
}

TEST(WindowedSummaryTest, EmptyWindowPercentilesAreZero) {
  std::uint64_t now = 0;
  WindowedSummary s{5, manual_window(&now)};
  s.record(1000);
  now = 100 * kSec;
  util::Histogram window = s.windowed_snapshot();
  EXPECT_EQ(window.count(), 0u);
  EXPECT_EQ(window.percentile(0.5), 0u);
  EXPECT_EQ(window.percentile(0.999), 0u);
  // Lifetime still has the sample.
  EXPECT_EQ(s.snapshot().count(), 1u);
}

TEST(WindowedSummaryTest, WindowRotationKeepsOnlyRecentSamples) {
  std::uint64_t now = 0;
  WindowedSummary s{5, manual_window(&now)};
  for (int sec = 0; sec < 6; ++sec) {
    now = sec * kSec;
    s.record(100 * (sec + 1));
  }
  // Window covers seconds 2..5 -> samples 300..600.
  util::Histogram window = s.windowed_snapshot();
  EXPECT_EQ(window.count(), 4u);
  EXPECT_GE(window.percentile(0.01), 300u * 90 / 100);  // log-bucket slack
  EXPECT_EQ(s.snapshot().count(), 6u);
}

TEST(WindowedSummaryTest, SlotReuseAfterWrapIsClean) {
  std::uint64_t now = 0;
  WindowedSummary s{5, manual_window(&now)};
  s.record(1'000'000);
  now = 50 * kSec;
  s.record(8);
  util::Histogram window = s.windowed_snapshot();
  EXPECT_EQ(window.count(), 1u);
  // The reclaimed slot must not leak the old 1ms sample into the window.
  EXPECT_LE(window.percentile(0.999), 16u);
}

TEST(WindowedSummaryTest, RotationReusesSlotsWithoutAllocating) {
  std::uint64_t now = 0;
  WindowedSummary s{5, manual_window(&now)};
  for (int sec = 0; sec < 4; ++sec) {  // every slot has seen a sample
    now = sec * kSec;
    s.record(100);
  }
  wsc::testing::arm_alloc_counter();
  for (int sec = 4; sec < 40; ++sec) {  // nine laps of the ring
    now = sec * kSec;
    s.record(100 + sec);
  }
  EXPECT_EQ(wsc::testing::disarm_alloc_counter(), 0u);
  EXPECT_EQ(s.windowed_snapshot().count(), 4u);
  EXPECT_EQ(s.snapshot().count(), 40u);
}

TEST(WindowedRegistryTest, ExportsWindowedTwinsAndP999) {
  std::uint64_t now = 0;
  MetricsRegistry registry{manual_window(&now)};
  Counter& c = registry.counter("wsc_hits_total", "Hits.");
  Summary& s = registry.summary("wsc_lat_ns", "Latency.");
  c.inc(10);
  for (std::uint64_t v = 1; v <= 100; ++v) s.record(v);

  std::string text = registry.prometheus_text();
  EXPECT_EQ(validate_prometheus_text(text), std::nullopt);
  // 4 x 1s window -> "_last4s" twins.
  EXPECT_NE(text.find("wsc_hits_last4s 10\n"), std::string::npos);
  EXPECT_NE(text.find("wsc_lat_ns_last4s_count 100\n"), std::string::npos);
  EXPECT_NE(text.find("wsc_lat_ns{quantile=\"0.999\"} "), std::string::npos);
  EXPECT_NE(text.find("wsc_lat_ns_last4s{quantile=\"0.999\"} "),
            std::string::npos);

  // Advance past the window: twins go quiet, lifetime families persist.
  now = 60 * kSec;
  text = registry.prometheus_text();
  EXPECT_EQ(validate_prometheus_text(text), std::nullopt);
  EXPECT_NE(text.find("wsc_hits_last4s 0\n"), std::string::npos);
  EXPECT_NE(text.find("wsc_hits_total 10\n"), std::string::npos);
  EXPECT_NE(text.find("wsc_lat_ns_last4s_count 0\n"), std::string::npos);
  EXPECT_NE(text.find("wsc_lat_ns_count 100\n"), std::string::npos);
}

}  // namespace
}  // namespace wsc::obs

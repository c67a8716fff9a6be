// Space-saving top-K sketch: exactness under capacity, the Misra-Gries
// error bound under an adversarial stream, the heavy-hitter guarantee,
// weighted offers, and the disjoint-stream merge.
#include "obs/topk.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>

namespace wsc::obs {
namespace {

TEST(TopKSketchTest, ExactWhileUnderCapacity) {
  TopKSketch sketch(8);
  for (int i = 0; i < 5; ++i)
    for (int n = 0; n <= i; ++n) sketch.offer("k" + std::to_string(i));

  std::vector<TopKSketch::HotKey> entries = sketch.entries();
  ASSERT_EQ(entries.size(), 5u);
  EXPECT_EQ(entries[0].key, "k4");
  EXPECT_EQ(entries[0].count, 5u);
  for (const auto& e : entries) EXPECT_EQ(e.error, 0u) << e.key;
  EXPECT_EQ(sketch.observed(), 1u + 2 + 3 + 4 + 5);
}

TEST(TopKSketchTest, AdversarialStreamStaysWithinErrorBound) {
  // 4 heavy keys + a rotating long tail designed to keep evicting table
  // entries.  For every tracked key: count - error <= true <= count.
  TopKSketch sketch(8);
  std::map<std::string, std::uint64_t> truth;
  auto offer = [&](const std::string& k) {
    sketch.offer(k);
    ++truth[k];
  };
  for (int round = 0; round < 200; ++round) {
    for (int h = 0; h < 4; ++h) offer("heavy" + std::to_string(h));
    offer("tail" + std::to_string(round % 50));
  }
  for (const TopKSketch::HotKey& e : sketch.entries()) {
    const std::uint64_t real = truth[e.key];
    EXPECT_LE(real, e.count) << e.key;
    EXPECT_GE(real, e.count - e.error) << e.key;
  }
}

TEST(TopKSketchTest, HeavyHittersAreAlwaysTracked) {
  // Any key with true frequency > W/capacity must be in the table; here
  // "hog" is ~1/3 of the stream against capacity 8 (threshold 1/8).
  TopKSketch sketch(8);
  for (int i = 0; i < 300; ++i) {
    sketch.offer("hog");
    sketch.offer("noise" + std::to_string(i % 100));
    sketch.offer("noise" + std::to_string((i * 7) % 100));
  }
  std::vector<TopKSketch::HotKey> entries = sketch.entries();
  ASSERT_FALSE(entries.empty());
  EXPECT_EQ(entries[0].key, "hog");
  EXPECT_GE(entries[0].count, 300u);
}

TEST(TopKSketchTest, WeightedOffersCountAsWeight) {
  TopKSketch sketch(4);
  sketch.offer("sampled", 64);
  sketch.offer("sampled", 64);
  sketch.offer("rare");
  std::vector<TopKSketch::HotKey> entries = sketch.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].key, "sampled");
  EXPECT_EQ(entries[0].count, 128u);
  EXPECT_EQ(sketch.observed(), 129u);
}

TEST(TopKSketchTest, MergeDisjointShardsSortsAndTruncates) {
  TopKSketch a(4), b(4);
  a.offer("alpha", 10);
  a.offer("beta", 3);
  b.offer("gamma", 7);
  b.offer("delta", 1);
  std::vector<TopKSketch::HotKey> merged =
      merge_topk({a.entries(), b.entries()}, 3);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].key, "alpha");
  EXPECT_EQ(merged[1].key, "gamma");
  EXPECT_EQ(merged[2].key, "beta");
}

TEST(TopKSketchTest, EqualHashesWithDifferentKeysStayApart) {
  TopKSketch sketch(4);
  sketch.offer(42, "left");
  sketch.offer(42, "right");
  sketch.offer(42, "left");
  std::vector<TopKSketch::HotKey> entries = sketch.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].key, "left");
  EXPECT_EQ(entries[0].count, 2u);
  EXPECT_EQ(entries[1].key, "right");
  EXPECT_EQ(entries[1].count, 1u);
}

TEST(TopKSketchTest, MergeSumsAKeyAcrossStripes) {
  // Stripes of one shard may each track a key: its parts add up, and so
  // do the overestimates they inherited.
  TopKSketch a(2), b(1);
  a.offer("hot", 5);
  a.offer("cold", 1);
  b.offer("gone", 3);
  b.offer("hot", 2);  // replaces "gone": count 5, error 3
  std::vector<TopKSketch::HotKey> merged =
      merge_topk({a.entries(), b.entries()});
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].key, "hot");
  EXPECT_EQ(merged[0].count, 10u);
  EXPECT_EQ(merged[0].error, 3u);
  EXPECT_EQ(merged[1].key, "cold");
  EXPECT_EQ(merged[1].count, 1u);
}

}  // namespace
}  // namespace wsc::obs

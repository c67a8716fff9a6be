#include "util/histogram.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <vector>

#include "tests/core/alloc_counter.hpp"
#include "util/random.hpp"

namespace wsc::util {
namespace {

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(0.5), 0u);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.record(42);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 42u);
  EXPECT_EQ(h.max(), 42u);
  EXPECT_EQ(h.mean(), 42.0);
  EXPECT_EQ(h.percentile(0.0), 42u);
  EXPECT_EQ(h.percentile(1.0), 42u);
}

TEST(HistogramTest, SmallValuesAreExact) {
  Histogram h;
  for (std::uint64_t v = 0; v < 32; ++v) h.record(v);
  EXPECT_EQ(h.percentile(0.0), 0u);
  // With 32 exact buckets, the median of 0..31 falls on 16.
  EXPECT_EQ(h.percentile(0.5), 16u);
  EXPECT_EQ(h.percentile(1.0), 31u);
}

TEST(HistogramTest, MeanIsExactRegardlessOfBuckets) {
  Histogram h;
  h.record(1'000'000);
  h.record(3'000'000);
  EXPECT_EQ(h.mean(), 2'000'000.0);
}

TEST(HistogramTest, PercentileRelativeErrorBounded) {
  Histogram h(5);
  Rng rng(7);
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 20000; ++i) {
    std::uint64_t v = 1000 + rng.next_below(10'000'000);
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.5, 0.9, 0.99}) {
    std::uint64_t exact = values[static_cast<std::size_t>(q * (values.size() - 1))];
    std::uint64_t approx = h.percentile(q);
    double rel = std::abs(static_cast<double>(approx) - static_cast<double>(exact)) /
                 static_cast<double>(exact);
    EXPECT_LT(rel, 0.05) << "q=" << q;
  }
}

TEST(HistogramTest, MergeCombinesCounts) {
  Histogram a, b;
  a.record(10);
  a.record(20);
  b.record(30);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 30u);
  EXPECT_EQ(a.mean(), 20.0);
}

TEST(HistogramTest, MergeWithMismatchedResolutionPreservesAggregates) {
  // Regression: merging a coarse histogram into a fine one used to
  // re-record bucket upper bounds, corrupting count/sum/min/max (and thus
  // mean and percentile(1.0)).  Aggregates must transfer exactly no matter
  // the resolutions.
  Histogram fine(6), coarse(2);
  coarse.record(1'000'000);
  coarse.record(3'000'000);
  fine.record(500);
  fine.merge(coarse);
  EXPECT_EQ(fine.count(), 3u);
  EXPECT_EQ(fine.min(), 500u);
  EXPECT_EQ(fine.max(), 3'000'000u);
  EXPECT_EQ(fine.mean(), (500.0 + 1'000'000.0 + 3'000'000.0) / 3.0);

  // And the other direction (fine into coarse).
  Histogram coarse2(2), fine2(6);
  fine2.record(42);
  fine2.record(99);
  coarse2.record(7);
  coarse2.merge(fine2);
  EXPECT_EQ(coarse2.count(), 3u);
  EXPECT_EQ(coarse2.min(), 7u);
  EXPECT_EQ(coarse2.max(), 99u);
  EXPECT_EQ(coarse2.mean(), (7.0 + 42.0 + 99.0) / 3.0);
}

TEST(HistogramTest, MergeMismatchedResolutionKeepsPercentilesSane) {
  Histogram fine(6), coarse(2);
  for (std::uint64_t v = 1; v <= 1000; ++v) coarse.record(v * 1000);
  fine.merge(coarse);
  // The translated buckets still answer percentiles within the coarse
  // source's error bound (~25% at 2 sub-bucket bits).
  std::uint64_t p50 = fine.percentile(0.5);
  EXPECT_GE(p50, 350'000u);
  EXPECT_LE(p50, 650'000u);
}

TEST(HistogramTest, MergeEmptyIsNoOp) {
  Histogram a, empty;
  a.record(10);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 10u);

  Histogram b;
  b.merge(a);  // merging into an empty histogram adopts a's extremes
  EXPECT_EQ(b.count(), 1u);
  EXPECT_EQ(b.min(), 10u);
  EXPECT_EQ(b.max(), 10u);
}

TEST(HistogramTest, PercentileOneReturnsRecordedMax) {
  // Regression: percentile(1.0) used to answer the bucket upper bound,
  // which can exceed any recorded value; it must be the exact max.
  Histogram h(2);
  h.record(1'000'003);
  h.record(5);
  EXPECT_EQ(h.percentile(1.0), 1'000'003u);
  EXPECT_EQ(h.percentile(2.0), 1'000'003u);  // clamped above 1.0
}

TEST(HistogramTest, SubBucketBitsAccessor) {
  EXPECT_EQ(Histogram(3).sub_bucket_bits(), 3);
  EXPECT_EQ(Histogram().sub_bucket_bits(), 5);
}

TEST(HistogramTest, RecordsDurations) {
  Histogram h;
  h.record(std::chrono::milliseconds(5));
  EXPECT_EQ(h.max(), 5'000'000u);
  h.record(std::chrono::nanoseconds(-3));  // clamped to zero, not UB
  EXPECT_EQ(h.min(), 0u);
}

TEST(HistogramTest, SummaryMentionsAllQuantiles) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(static_cast<std::uint64_t>(i) * 1'000'000);
  std::string s = h.summary(1e6, "ms");
  EXPECT_NE(s.find("n=100"), std::string::npos);
  EXPECT_NE(s.find("p95"), std::string::npos);
  EXPECT_NE(s.find("max"), std::string::npos);
}

TEST(HistogramTest, LargeValuesDoNotCrash) {
  Histogram h;
  h.record(UINT64_MAX);
  h.record(UINT64_MAX / 2);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_GE(h.percentile(1.0), UINT64_MAX / 2);
}

/// The histogram with every bucket counter allocated and zeroed at
/// construction, written out independently: the lazily allocated
/// Histogram must answer exactly what this reference answers.
class EagerReference {
 public:
  explicit EagerReference(int bits)
      : bits_(bits), buckets_(std::size_t{64} << bits, 0) {}

  void record(std::uint64_t v) {
    ++buckets_[index(v)];
    ++count_;
    sum_ += v;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }

  void merge(const EagerReference& o) {
    if (o.count_ == 0) return;
    for (std::size_t i = 0; i < o.buckets_.size(); ++i)
      if (o.buckets_[i]) buckets_[index(o.upper(i))] += o.buckets_[i];
    count_ += o.count_;
    sum_ += o.sum_;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
  }

  std::uint64_t percentile(double q) const {
    if (count_ == 0) return 0;
    if (q >= 1.0) return max_;
    auto target = static_cast<std::uint64_t>(q * static_cast<double>(count_));
    target = std::min(target, count_ - 1);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      seen += buckets_[i];
      if (seen > target) return std::clamp(upper(i), min_, max_);
    }
    return max_;
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return count_ ? min_ : 0; }
  std::uint64_t max() const { return max_; }

 private:
  std::size_t index(std::uint64_t v) const {
    const std::uint64_t exact = std::uint64_t{1} << bits_;
    if (v < exact) return static_cast<std::size_t>(v);
    const int shift = std::bit_width(v) - 1 - bits_;
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(shift + 1) << bits_) + (v >> shift) -
        exact);
  }
  std::uint64_t upper(std::size_t i) const {
    const std::uint64_t exact = std::uint64_t{1} << bits_;
    if (i < exact) return i;
    const std::uint64_t shift = (i >> bits_) - 1;
    const std::uint64_t sub = (i & (exact - 1)) + exact;
    return ((sub + 1) << shift) - 1;
  }

  int bits_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0, sum_ = 0, min_ = UINT64_MAX, max_ = 0;
};

void expect_same(const Histogram& h, const EagerReference& ref,
                 const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(h.count(), ref.count());
  EXPECT_EQ(h.sum(), ref.sum());
  EXPECT_EQ(h.min(), ref.min());
  EXPECT_EQ(h.max(), ref.max());
  for (double q : {0.0, 0.5, 0.99, 0.999, 1.0})
    EXPECT_EQ(h.percentile(q), ref.percentile(q)) << "q=" << q;
}

/// `n` seeded values spread over many magnitudes (below 2^48, so sums
/// stay far from wrapping).
std::vector<std::uint64_t> spread_values(std::uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<std::uint64_t> values;
  for (int i = 0; i < n; ++i)
    values.push_back((rng.next_u64() >> 16) >> rng.next_below(48));
  return values;
}

TEST(HistogramLazyTest, AnswersExactlyAsAnEagerlySizedReference) {
  for (int bits : {3, 5}) {
    Histogram h(bits);
    EagerReference ref(bits);
    expect_same(h, ref, "empty");
    for (std::uint64_t v : spread_values(11, 5000)) {
      h.record(v);
      ref.record(v);
    }
    expect_same(h, ref, bits == 3 ? "3 bits" : "5 bits");

    // A reset histogram (a rotated window slot) records like a new one.
    Histogram reused(bits);
    for (std::uint64_t v : spread_values(99, 300)) reused.record(v);
    reused.reset();
    expect_same(reused, EagerReference(bits), "reset");
    for (std::uint64_t v : spread_values(11, 5000)) reused.record(v);
    expect_same(reused, ref, "recorded after reset");
  }
}

TEST(HistogramLazyTest, MergesExactlyAsAnEagerlySizedReference) {
  const std::vector<std::uint64_t> a_values = spread_values(21, 3000);
  const std::vector<std::uint64_t> b_values = spread_values(22, 2000);
  for (int into_bits : {3, 5}) {
    for (int from_bits : {3, 5}) {
      Histogram a(into_bits), b(from_bits);
      EagerReference ra(into_bits), rb(from_bits);
      for (std::uint64_t v : a_values) {
        a.record(v);
        ra.record(v);
      }
      for (std::uint64_t v : b_values) {
        b.record(v);
        rb.record(v);
      }
      SCOPED_TRACE(std::to_string(from_bits) + " bits into " +
                   std::to_string(into_bits) + " bits");

      Histogram full = a;  // full into full
      EagerReference rfull = ra;
      full.merge(b);
      rfull.merge(rb);
      expect_same(full, rfull, "full into full");

      Histogram still_full = a;  // empty into full
      still_full.merge(Histogram(from_bits));
      expect_same(still_full, ra, "empty into full");

      Histogram was_empty(into_bits);  // full into empty
      EagerReference rwas_empty(into_bits);
      was_empty.merge(b);
      rwas_empty.merge(rb);
      expect_same(was_empty, rwas_empty, "full into empty");
    }
  }
}

TEST(HistogramLazyTest, NeverRecordedHistogramOwnsNoHeap) {
  wsc::testing::arm_alloc_counter();
  {
    Histogram h, coarse(3);
    Histogram copy = h;
    h.merge(coarse);  // an empty merge allocates nothing either
    h.merge(copy);
    h.reset();
    EXPECT_EQ(h.percentile(0.5), 0u);
  }
  EXPECT_EQ(wsc::testing::disarm_alloc_counter(), 0u);
}

TEST(HistogramLazyTest, ResetKeepsTheBucketsForTheNextRecord) {
  Histogram h;
  h.record(7);
  wsc::testing::arm_alloc_counter();
  h.reset();
  h.record(9);
  h.record(std::uint64_t{1} << 40);
  EXPECT_EQ(wsc::testing::disarm_alloc_counter(), 0u);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.min(), 9u);
}

}  // namespace
}  // namespace wsc::util

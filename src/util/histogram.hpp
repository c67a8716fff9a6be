// Latency histogram for the load engine (Figures 3 and 4) and telemetry.
//
// Log-bucketed (HdrHistogram-style, base-2 with linear sub-buckets) so the
// load generator records microsecond latencies with bounded memory and we
// can report mean / p50 / p95 / p99 / max per run.
//
// The bucket array (64 << sub_bucket_bits counters, 16 KB at the default
// 5 bits) is allocated whole on the first record() or non-empty merge(),
// not at construction: telemetry keeps many histograms that may never see
// a sample (per-stripe, per-window-slot), and an empty one owns no heap.
// Once allocated it never grows or shrinks, so a warm record() never
// allocates, and reset() zeroes it in place.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace wsc::util {

class Histogram {
 public:
  /// `sub_bucket_bits` linear sub-buckets per power-of-two bucket; 5 gives
  /// ~3% relative error, plenty for throughput plots.
  explicit Histogram(int sub_bucket_bits = 5) : sub_bits_(sub_bucket_bits) {}

  /// Back to empty, keeping the bucket array (if any) for reuse.
  void reset();

  void record(std::uint64_t value);
  void record(std::chrono::nanoseconds d) {
    record(static_cast<std::uint64_t>(d.count() < 0 ? 0 : d.count()));
  }

  /// Merge another histogram (combining per-thread recorders).  count,
  /// sum, min, and max are combined exactly regardless of bucket
  /// resolution; with differing `sub_bucket_bits` the bucket counts are
  /// rebucketed (each source bucket lands at its upper bound, the same
  /// approximation recording into the coarser histogram would make).
  void merge(const Histogram& other);

  int sub_bucket_bits() const noexcept { return sub_bits_; }
  std::uint64_t count() const noexcept { return count_; }
  std::uint64_t sum() const noexcept { return sum_; }
  std::uint64_t min() const noexcept { return count_ ? min_ : 0; }
  std::uint64_t max() const noexcept { return max_; }
  double mean() const noexcept {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_) : 0.0;
  }

  /// Value at quantile q in [0,1]; returns an upper bound of the containing
  /// bucket (standard HdrHistogram semantics), clamped to the observed
  /// extremes — percentile(0.0) is the recorded min and percentile(1.0)
  /// the recorded max, never a bucket bound.
  std::uint64_t percentile(double q) const;

  /// One-line human-readable summary with values scaled by `unit_divisor`
  /// (e.g. 1e6 for ns -> ms) and suffixed with `unit`.
  std::string summary(double unit_divisor, const std::string& unit) const;

 private:
  std::size_t bucket_index(std::uint64_t value) const;
  std::uint64_t bucket_upper_bound(std::size_t index) const;
  /// Allocate the bucket array if this histogram has none yet.
  void ensure_buckets();

  int sub_bits_;
  std::vector<std::uint64_t> buckets_;  // empty until the first sample
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = UINT64_MAX;
  std::uint64_t max_ = 0;
};

}  // namespace wsc::util

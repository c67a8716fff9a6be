#include "util/histogram.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>

namespace wsc::util {

void Histogram::ensure_buckets() {
  // 64 power-of-two buckets x 2^sub_bits linear sub-buckets covers the full
  // uint64 range.
  if (buckets_.empty()) [[unlikely]]
    buckets_.assign(static_cast<std::size_t>(64) << sub_bits_, 0);
}

void Histogram::reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0;
  min_ = UINT64_MAX;
  max_ = 0;
}

std::size_t Histogram::bucket_index(std::uint64_t value) const {
  if (value < (1ULL << sub_bits_)) return static_cast<std::size_t>(value);
  int msb = 63 - std::countl_zero(value);
  int shift = msb - sub_bits_;
  std::uint64_t sub = value >> shift;  // in [2^sub_bits, 2^(sub_bits+1))
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(shift + 1) << sub_bits_) +
      (sub - (1ULL << sub_bits_)));
}

std::uint64_t Histogram::bucket_upper_bound(std::size_t index) const {
  // Inverse of bucket_index: block 0 holds exact values [0, 2^sub_bits);
  // block b>=1 holds values with shift = b-1 applied, i.e. the bucket for
  // (rem + 2^sub_bits) << shift .. ((rem + 2^sub_bits + 1) << shift) - 1.
  std::uint64_t sub_count = 1ULL << sub_bits_;
  if (index < sub_count) return index;
  std::uint64_t block = index >> sub_bits_;   // >= 1
  std::uint64_t shift = block - 1;
  std::uint64_t sub = (index & (sub_count - 1)) + sub_count;
  return ((sub + 1) << shift) - 1;
}

void Histogram::record(std::uint64_t value) {
  ensure_buckets();
  std::size_t idx = bucket_index(value);
  if (idx >= buckets_.size()) idx = buckets_.size() - 1;
  ++buckets_[idx];
  ++count_;
  sum_ += value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  ensure_buckets();
  if (other.sub_bits_ == sub_bits_) {
    for (std::size_t i = 0; i < buckets_.size(); ++i)
      buckets_[i] += other.buckets_[i];
  } else {
    // Different resolutions: translate each non-empty source bucket into
    // this histogram's bucketing via its upper bound.  Only the bucket
    // counts are approximated — the exact aggregates below come from the
    // source's own exact values, never from bucket bounds (re-recording
    // bounds used to corrupt sum/min/max and thus percentile(1.0)).
    for (std::size_t i = 0; i < other.buckets_.size(); ++i) {
      if (other.buckets_[i] == 0) continue;
      std::size_t idx = bucket_index(other.bucket_upper_bound(i));
      if (idx >= buckets_.size()) idx = buckets_.size() - 1;
      buckets_[idx] += other.buckets_[i];
    }
  }
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

std::uint64_t Histogram::percentile(double q) const {
  if (count_ == 0) return 0;
  if (q >= 1.0) return max_;  // the recorded max, not a bucket upper bound
  q = std::clamp(q, 0.0, 1.0);
  std::uint64_t target = static_cast<std::uint64_t>(q * static_cast<double>(count_));
  if (target >= count_) target = count_ - 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen > target) {
      // Clamp to observed extremes so p0/p100 are exact.
      return std::clamp(bucket_upper_bound(i), min(), max_);
    }
  }
  return max_;
}

std::string Histogram::summary(double unit_divisor, const std::string& unit) const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "n=%llu mean=%.3f%s p50=%.3f%s p95=%.3f%s p99=%.3f%s max=%.3f%s",
                static_cast<unsigned long long>(count_), mean() / unit_divisor,
                unit.c_str(),
                static_cast<double>(percentile(0.50)) / unit_divisor, unit.c_str(),
                static_cast<double>(percentile(0.95)) / unit_divisor, unit.c_str(),
                static_cast<double>(percentile(0.99)) / unit_divisor, unit.c_str(),
                static_cast<double>(max()) / unit_divisor, unit.c_str());
  return buf;
}

}  // namespace wsc::util

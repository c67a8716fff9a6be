// Heavy-hitter ("hot key") tracking: the space-saving variant of the
// Misra-Gries frequent-items sketch.
//
// A bounded table of `capacity` (key, count, error) entries.  An offer for
// a tracked key increments its count; an offer for an untracked key when
// the table is full replaces the minimum-count entry, inheriting its count
// as the new entry's worst-case overestimate (`error`).
//
// Guarantees (Metwally et al., "Efficient Computation of Frequent and
// Top-k Elements in Data Streams"): for a stream of total weight W,
//   * count - error <= true_count <= count for every tracked key, and
//   * every key with true_count > W / capacity is present in the table.
//
// The sketch is NOT thread-safe; the response cache keeps util::kStripes
// of them per shard, each behind its own small mutex, and a lookup offers
// to its thread's stripe.  A scrape sums a key's stripes (merge_topk);
// shards see disjoint key streams, so across shards the merge is exact.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace wsc::obs {

class TopKSketch {
 public:
  struct HotKey {
    std::string key;
    std::uint64_t count = 0;  // estimate (upper bound on the true count)
    std::uint64_t error = 0;  // worst-case overestimate inherited on entry
  };

  /// Allocates nothing until the first offer.
  explicit TopKSketch(std::size_t capacity = 64)
      : capacity_(capacity ? capacity : 1) {}

  /// Count one observation of `key`, whose 64-bit hash is `hash` (any
  /// hash, as long as one key always comes with the same one: the scan
  /// compares hashes before bytes), with the given weight (sampled feeds
  /// pass the sampling period as the weight so estimates stay unbiased).
  void offer(std::uint64_t hash, std::string_view key,
             std::uint64_t weight = 1);
  /// The same, hashing `key` with FNV-1a.
  void offer(std::string_view key, std::uint64_t weight = 1);

  /// Tracked entries sorted by descending count estimate.
  std::vector<HotKey> entries() const;

  /// Total stream weight observed (W in the error bound).
  std::uint64_t observed() const noexcept { return observed_; }
  std::size_t capacity() const noexcept { return capacity_; }

 private:
  std::size_t capacity_;
  // Unsorted, scanned linearly (capacity is small).  hashes_[i] is the
  // hash of entries_[i].key, kept apart so the scan reads 8 bytes a key.
  std::vector<std::uint64_t> hashes_;
  std::vector<HotKey> entries_;
  std::uint64_t observed_ = 0;
};

/// Merge tables into one list sorted by descending count, truncated to
/// `limit` (0 = no limit).  The stripes of one cache shard can each track
/// the same key, so a key's parts are summed first (counts and errors
/// alike: the sum keeps count - error <= true count, and is exact while no
/// stripe has replaced an entry).  Different shards see disjoint key
/// streams (one key hashes to exactly one shard), so across shards the
/// merge is exact concatenation.
std::vector<TopKSketch::HotKey> merge_topk(
    std::vector<std::vector<TopKSketch::HotKey>> parts, std::size_t limit = 0);

}  // namespace wsc::obs

#include "obs/topk.hpp"

#include <algorithm>

#include "util/hash.hpp"

namespace wsc::obs {

void TopKSketch::offer(std::uint64_t hash, std::string_view key,
                       std::uint64_t weight) {
  observed_ += weight;
  for (std::size_t i = 0; i < hashes_.size(); ++i) {
    if (hashes_[i] == hash && entries_[i].key == key) {
      entries_[i].count += weight;
      return;
    }
  }
  if (entries_.size() < capacity_) {
    if (entries_.empty()) {
      hashes_.reserve(capacity_);
      entries_.reserve(capacity_);
    }
    hashes_.push_back(hash);
    entries_.push_back({std::string(key), weight, 0});
    return;
  }
  // Space-saving replacement: the newcomer takes over the minimum entry,
  // inheriting its count as the overestimate bound.
  const auto min_entry = std::min_element(
      entries_.begin(), entries_.end(),
      [](const HotKey& a, const HotKey& b) { return a.count < b.count; });
  hashes_[static_cast<std::size_t>(min_entry - entries_.begin())] = hash;
  min_entry->error = min_entry->count;
  min_entry->count += weight;
  min_entry->key.assign(key);
}

void TopKSketch::offer(std::string_view key, std::uint64_t weight) {
  offer(util::fnv1a(key), key, weight);
}

std::vector<TopKSketch::HotKey> TopKSketch::entries() const {
  std::vector<HotKey> out = entries_;
  std::sort(out.begin(), out.end(), [](const HotKey& a, const HotKey& b) {
    return a.count != b.count ? a.count > b.count : a.key < b.key;
  });
  return out;
}

std::vector<TopKSketch::HotKey> merge_topk(
    std::vector<std::vector<TopKSketch::HotKey>> parts, std::size_t limit) {
  std::vector<TopKSketch::HotKey> all;
  for (auto& part : parts)
    for (auto& e : part) all.push_back(std::move(e));
  std::sort(all.begin(), all.end(),
            [](const TopKSketch::HotKey& a, const TopKSketch::HotKey& b) {
              return a.key < b.key;
            });
  std::vector<TopKSketch::HotKey> out;
  for (auto& e : all) {
    if (!out.empty() && out.back().key == e.key) {
      out.back().count += e.count;
      out.back().error += e.error;
    } else {
      out.push_back(std::move(e));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TopKSketch::HotKey& a, const TopKSketch::HotKey& b) {
              return a.count != b.count ? a.count > b.count : a.key < b.key;
            });
  if (limit && out.size() > limit) out.resize(limit);
  return out;
}

}  // namespace wsc::obs

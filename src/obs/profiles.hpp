// Cost-profile registry: live per-(service, operation, representation)
// cost rows — the measured counterpart of the paper's static Tables 6-9,
// and the direct input for the ROADMAP's adaptive representation
// selection.  Where the paper selects the optimal data representation
// from type traits known at deployment time, these rows carry what that
// choice actually costs in production: hit latency (keygen + lookup +
// retrieve), store latency (capture + insert), response deserialization
// latency, bytes per cached entry, and hit ratios — each with a lifetime
// view and a rolling-window view.
//
// Feeding discipline (the <=2% hit-path overhead budget): the client
// middleware samples hits — every Nth hit per thread records one latency
// sample and bumps the hit counter by N, so counters stay unbiased while
// the common hit pays only a thread-local tick.  Misses always record
// (the wire round trip dwarfs the bookkeeping).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/windowed.hpp"

namespace wsc::obs {

class CostProfiles {
 public:
  explicit CostProfiles(WindowOptions window = {});

  /// One sampled hit covering `weight` calls: bumps the hit counter by
  /// `weight`, records one latency sample (keygen+lookup+retrieve ns).
  void record_hit(std::string_view service, std::string_view operation,
                  std::string_view representation, std::uint64_t hit_ns,
                  std::uint64_t weight = 1);

  /// One miss: always counted, plus the samples of its fetch
  /// (record_fetch).
  void record_miss(std::string_view service, std::string_view operation,
                   std::string_view representation,
                   std::uint64_t deserialize_ns, std::uint64_t store_ns,
                   std::uint64_t bytes);

  /// The samples of one fetch WITHOUT counting a miss — a background
  /// refresh, whose request the foreground caller already counted as a
  /// hit.  `store_ns`/`bytes` are zero when the response was not stored
  /// (policy/directive suppression): then only the deserialize sample is
  /// added, no store sample or bytes-per-entry row.
  void record_fetch(std::string_view service, std::string_view operation,
                    std::string_view representation,
                    std::uint64_t deserialize_ns, std::uint64_t store_ns,
                    std::uint64_t bytes);

  /// Degraded-mode stale serve (availability, not a hit or a miss).
  void record_stale(std::string_view service, std::string_view operation,
                    std::string_view representation);

  /// Shadow probe of an alternative representation (adaptive selection):
  /// on a sampled store, the middleware captures the response in an
  /// alternative form WITHOUT serving it and measures what a store
  /// (`store_ns` = capture), a hit (`hit_ns` = one retrieve()) and an
  /// entry (`bytes`) would have cost.  Latency/bytes feeds only — the
  /// hit/miss counters (and therefore every ratio) are untouched, so
  /// probes never distort traffic attribution.
  void record_probe(std::string_view service, std::string_view operation,
                    std::string_view representation, std::uint64_t hit_ns,
                    std::uint64_t store_ns, std::uint64_t bytes);

  struct LatencyStat {
    std::uint64_t count = 0;
    std::uint64_t sum_ns = 0;  // exact lifetime sum: delta feeds stay exact
    double mean_ns = 0;
    double p50_ns = 0;
    double p99_ns = 0;
    double p999_ns = 0;
    std::uint64_t window_count = 0;
    double window_p99_ns = 0;
  };

  struct Row {
    std::string service;
    std::string operation;
    std::string representation;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stale_serves = 0;
    std::uint64_t window_hits = 0;
    std::uint64_t window_misses = 0;
    double hit_ratio = 0;         // hits / (hits + misses)
    double window_hit_ratio = 0;
    LatencyStat hit_ns;
    LatencyStat store_ns;
    LatencyStat deserialize_ns;
    std::uint64_t stored_entries = 0;  // misses that stored a value
    std::uint64_t bytes_sum = 0;
    double bytes_per_entry = 0;
  };

  /// All rows, sorted by (service, operation, representation).
  std::vector<Row> snapshot() const;

  /// The rows as a JSON array (the /profiles endpoint embeds this).
  std::string json_rows() const;

  /// The window span label of every windowed column (e.g. "60s").
  const std::string& window_label() const noexcept { return window_label_; }

 private:
  struct Cell {
    explicit Cell(const WindowOptions& window)
        : hits(window),
          misses(window),
          stale_serves(window),
          hit_ns(5, window),
          store_ns(5, window),
          deserialize_ns(5, window) {}
    WindowedCounter hits;
    WindowedCounter misses;
    WindowedCounter stale_serves;
    WindowedSummary hit_ns;
    WindowedSummary store_ns;
    WindowedSummary deserialize_ns;
    std::uint64_t stored_entries = 0;  // guarded by the registry mutex
    std::uint64_t bytes_sum = 0;
  };

  Cell& cell_locked(std::string_view service, std::string_view operation,
                    std::string_view representation);
  static void fetch_locked(Cell& cell, std::uint64_t deserialize_ns,
                           std::uint64_t store_ns, std::uint64_t bytes);

  WindowOptions window_;
  std::string window_label_;
  mutable std::mutex mu_;
  // Key: service '\0' operation '\0' representation — sorted, so snapshots
  // come out in a deterministic order.
  std::map<std::string, std::unique_ptr<Cell>, std::less<>> cells_;
};

}  // namespace wsc::obs

// Cost-profile registry: live per-(service, operation, representation)
// cost rows — the measured counterpart of the paper's static Tables 6-9,
// and the direct input for adaptive representation selection.  Where the
// paper selects the optimal data representation from type traits known at
// deployment time, these rows carry what that choice actually costs in
// production: hit latency (the Retrieve stage, Table 7's cost), store
// latency (capture + insert), response deserialization latency, bytes per
// cached entry, and hit ratios — each with a lifetime view and a
// rolling-window view.
//
// Feeding discipline (the <=2% hit-path overhead budget): every sample is
// a finished CallTrace record, the same one the tracer publishes.  The
// client samples hits — every Nth hit per thread is timed and weighs N, so
// counters stay unbiased while the common hit pays only a thread-local
// tick.  Misses are always sampled (the wire round trip dwarfs it).
//
// A hit, the only per-call feed, writes nothing another thread writes: a
// row keeps its hit counter and hit summary in util::kStripes stripes,
// each thread feeds its own stripe, and snapshot() sums the counts and
// merges the histograms.  A thread finds its stripe through a per-thread
// memo keyed by the registry's id and the label text, so the registry
// mutex is taken only on the thread's first hit on a row.  Every other
// feed takes the registry mutex.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "obs/trace.hpp"
#include "obs/windowed.hpp"
#include "util/stripe.hpp"

namespace wsc::obs {

class CostProfiles {
 public:
  explicit CostProfiles(WindowOptions window = {});

  /// One finished call.  Its outcome picks what it feeds: a hit adds
  /// `weight` hits and one Retrieve sample; a miss counts one miss, a
  /// background refresh none, and both add a Deserialize sample plus,
  /// when they stored an entry, a Store sample and its bytes; a stale
  /// serve (either grace) counts one stale serve.  Other outcomes feed
  /// nothing.
  void record(const CallSample& call);

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
  /// A row's hit instruments for the threads of one stripe, on cache
  /// lines of their own.
  struct alignas(64) HitStripe {
    explicit HitStripe(const WindowOptions& window)
        : hits(window), hit_ns(5, window) {}
    WindowedCounter hits;
    WindowedSummary hit_ns;
  };

  struct Cell {
    explicit Cell(const WindowOptions& window);
    std::array<HitStripe, util::kStripes> hit_stripes;
    WindowedCounter misses;
    WindowedCounter stale_serves;
    WindowedSummary store_ns;
    WindowedSummary deserialize_ns;
    std::uint64_t stored_entries = 0;  // guarded by the registry mutex
    std::uint64_t bytes_sum = 0;
  };

  /// This thread's hit stripe of `call`'s row (created if need be).
  HitStripe& hit_stripe(const CallSample& call);

  Cell& cell_locked(std::string_view service, std::string_view operation,
                    std::string_view representation);

  /// Never reused, so a memo entry of a destroyed registry never matches.
  const std::uint64_t id_;
  WindowOptions window_;
  std::string window_label_;
  mutable std::mutex mu_;
  // Key: (service, operation, representation) — sorted, so snapshots come
  // out in a deterministic order; found by views, so a feed into an
  // existing row allocates nothing.
  std::map<std::tuple<std::string, std::string, std::string>,
           std::unique_ptr<Cell>, std::less<>>
      cells_;
};

}  // namespace wsc::obs

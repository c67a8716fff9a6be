// Windowed aggregation: a ring of time-bucketed sub-aggregates behind the
// lifetime counters/summaries, so every metric can answer "what happened
// in the last minute" next to "what happened since boot".
//
// Both instruments keep the exact lifetime aggregate they always had and
// add a fixed ring of buckets, one per `bucket_width` slice of time
// (default 12 x 5s = a rolling 60s window).  A bucket is reused once its
// epoch falls out of the window, so memory is constant and no background
// rotation thread exists — rotation happens lazily on the write path.
//
// Accuracy contract:
//   * lifetime totals are exact (same atomics / histogram as before);
//   * WindowedCounter's window value is approximate at bucket boundaries:
//     a reader racing the bucket-reclaim CAS can miss increments that land
//     in the instant of rotation.  The loss is bounded to writes racing
//     one rotation — fine for a rate/ratio display, never for billing;
//   * WindowedSummary rotates under its existing mutex, so its window is
//     exact.
//
// Every mutating/reading entry point has an overload taking an explicit
// `now_ns` so tests drive rotation with a manual clock; the default pulls
// from WindowOptions::now (obs::now_ns() when unset).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "util/histogram.hpp"

namespace wsc::obs {

std::uint64_t now_ns();  // trace.cpp — the steady telemetry timeline

struct WindowOptions {
  std::size_t buckets = 12;
  std::chrono::nanoseconds bucket_width = std::chrono::seconds(5);
  /// Injectable time source (nanoseconds); empty means obs::now_ns().
  std::function<std::uint64_t()> now;

  std::uint64_t width_ns() const {
    auto w = bucket_width.count();
    return w > 0 ? static_cast<std::uint64_t>(w) : 1;
  }
  /// Window span as a label suffix: 12 x 5s -> "60s".
  std::string span_label() const;
};

/// Monotonic counter with an exact lifetime total and an approximate
/// rolling-window total.  inc() is lock-free: one relaxed fetch_add on the
/// lifetime total plus one fetch_add (and, once per bucket_width, a CAS)
/// on the current bucket.
class WindowedCounter {
 public:
  explicit WindowedCounter(WindowOptions options = {});

  void inc(std::uint64_t n = 1) { inc(n, now_()); }
  void inc(std::uint64_t n, std::uint64_t now_ns);

  /// Exact lifetime total.
  std::uint64_t value() const {
    return total_.load(std::memory_order_relaxed);
  }

  /// Sum over buckets still inside the window ending at `now_ns`.
  std::uint64_t windowed() const { return windowed(now_()); }
  std::uint64_t windowed(std::uint64_t now_ns) const;

 private:
  struct Bucket {
    std::atomic<std::uint64_t> epoch{0};  // 0 = never used
    std::atomic<std::uint64_t> value{0};
  };

  std::uint64_t now_() const { return now_fn_ ? now_fn_() : obs::now_ns(); }
  std::uint64_t epoch_of(std::uint64_t now_ns) const {
    return now_ns / width_ns_ + 1;  // +1 keeps 0 as the "empty" sentinel
  }

  std::atomic<std::uint64_t> total_{0};
  std::vector<Bucket> buckets_;
  std::uint64_t width_ns_;
  std::function<std::uint64_t()> now_fn_;
};

/// Latency distribution with an exact lifetime histogram and an exact
/// rolling-window histogram (both behind the instrument's one mutex, as
/// the pre-windowed Summary already was).  Each histogram allocates its
/// buckets at its first sample and a rotated slot is zeroed in place, so
/// an idle summary owns no bucket arrays and a warm record() allocates
/// nothing.
class WindowedSummary {
 public:
  explicit WindowedSummary(int sub_bucket_bits = 5, WindowOptions options = {});

  void record(std::uint64_t value) { record(value, now_()); }
  void record(std::uint64_t value, std::uint64_t now_ns);
  void record(std::chrono::nanoseconds d) {
    record(static_cast<std::uint64_t>(d.count() < 0 ? 0 : d.count()));
  }

  /// Lifetime distribution.
  util::Histogram snapshot() const;

  /// Distribution over the window ending at `now_ns` (merged buckets).
  /// An empty window yields an empty histogram: count()==0, percentiles 0.
  util::Histogram windowed_snapshot() const {
    return windowed_snapshot(now_());
  }
  util::Histogram windowed_snapshot(std::uint64_t now_ns) const;

 private:
  struct Slot {
    std::uint64_t epoch = 0;
    util::Histogram hist;
    Slot(int bits) : hist(bits) {}
  };

  std::uint64_t now_() const { return now_fn_ ? now_fn_() : obs::now_ns(); }
  std::uint64_t epoch_of(std::uint64_t now_ns) const {
    return now_ns / width_ns_ + 1;
  }

  mutable std::mutex mu_;
  int sub_bits_;
  util::Histogram lifetime_;
  std::vector<Slot> slots_;
  std::uint64_t width_ns_;
  std::function<std::uint64_t()> now_fn_;
};

}  // namespace wsc::obs

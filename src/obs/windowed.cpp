#include "obs/windowed.hpp"

namespace wsc::obs {

std::string WindowOptions::span_label() const {
  const std::uint64_t span_ns = buckets * width_ns();
  const std::uint64_t seconds = span_ns / 1'000'000'000ull;
  if (seconds > 0) return std::to_string(seconds) + "s";
  return std::to_string(span_ns / 1'000'000ull) + "ms";
}

WindowedCounter::WindowedCounter(WindowOptions options)
    : buckets_(options.buckets ? options.buckets : 1),
      width_ns_(options.width_ns()),
      now_fn_(std::move(options.now)) {}

void WindowedCounter::inc(std::uint64_t n, std::uint64_t now_ns) {
  total_.fetch_add(n, std::memory_order_relaxed);
  const std::uint64_t epoch = epoch_of(now_ns);
  Bucket& b = buckets_[epoch % buckets_.size()];
  std::uint64_t seen = b.epoch.load(std::memory_order_acquire);
  if (seen != epoch) {
    // Reclaim the slot for the new epoch.  The winner of the CAS resets
    // the value; a concurrent writer that already moved past the CAS may
    // add its increment before the reset and lose it from the WINDOW view
    // (never from the lifetime total) — the documented boundary error.
    if (b.epoch.compare_exchange_strong(seen, epoch,
                                        std::memory_order_acq_rel)) {
      b.value.store(0, std::memory_order_relaxed);
    } else if (seen != epoch) {
      // A third epoch won the race (reader clock skew); drop the window
      // contribution rather than corrupt someone else's bucket.
      return;
    }
  }
  b.value.fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t WindowedCounter::windowed(std::uint64_t now_ns) const {
  const std::uint64_t now_epoch = epoch_of(now_ns);
  const std::uint64_t n = buckets_.size();
  std::uint64_t sum = 0;
  for (const Bucket& b : buckets_) {
    const std::uint64_t e = b.epoch.load(std::memory_order_acquire);
    // Window = the current (partial) bucket plus the n-1 preceding ones.
    if (e != 0 && e <= now_epoch && e + n > now_epoch)
      sum += b.value.load(std::memory_order_relaxed);
  }
  return sum;
}

WindowedSummary::WindowedSummary(int sub_bucket_bits, WindowOptions options)
    : sub_bits_(sub_bucket_bits),
      lifetime_(sub_bucket_bits),
      width_ns_(options.width_ns()),
      now_fn_(std::move(options.now)) {
  const std::size_t n = options.buckets ? options.buckets : 1;
  slots_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) slots_.emplace_back(sub_bucket_bits);
}

void WindowedSummary::record(std::uint64_t value, std::uint64_t now_ns) {
  const std::uint64_t epoch = epoch_of(now_ns);
  std::lock_guard lock(mu_);
  lifetime_.record(value);
  Slot& slot = slots_[epoch % slots_.size()];
  if (slot.epoch != epoch) {
    slot.epoch = epoch;
    slot.hist.reset();  // lazy rotation, in place: no allocation
  }
  slot.hist.record(value);
}

util::Histogram WindowedSummary::snapshot() const {
  std::lock_guard lock(mu_);
  return lifetime_;
}

util::Histogram WindowedSummary::windowed_snapshot(std::uint64_t now_ns) const {
  const std::uint64_t now_epoch = epoch_of(now_ns);
  const std::uint64_t n = slots_.size();
  util::Histogram out(sub_bits_);
  std::lock_guard lock(mu_);
  for (const Slot& slot : slots_) {
    if (slot.epoch != 0 && slot.epoch <= now_epoch && slot.epoch + n > now_epoch)
      out.merge(slot.hist);
  }
  return out;
}

}  // namespace wsc::obs

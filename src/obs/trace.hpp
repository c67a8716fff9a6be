// Per-call pipeline tracing: which stage of the middleware spent the time.
//
// The paper's whole argument is a *per-stage* cost decomposition — key
// generation (Tables 6/8) vs. value retrieval (Tables 7/9) — so the
// runtime grows the same decomposition as a first-class facility: every
// CachingServiceClient::invoke() can be covered by a CallTrace whose
// StageTimers attribute nanoseconds to key generation, cache lookup, deep
// copy / SAX replay, wire transport, retry backoff, XML parse,
// deserialization, and store, labeled by
// (service, operation, representation, outcome).
//
// CallTrace is the client's one per-call clock.  Its finished record
// (CallSample) goes to two sinks: the Tracer (/trace, /metrics) when the
// tracer was enabled as the call began, and CostProfiles (/profiles, the
// adaptive policy) when the client sampled the call for it.  Both read
// the same stage totals, so they cannot disagree.
//
// Cost model:
//   * untimed (tracer disabled, call not sampled): one relaxed atomic load
//     + branch per call and per stage timer — no clock reads, no
//     allocation, no locking;
//   * timed: two clock reads per stage (the first stage of a call sampled
//     after it began starts its clock, sharing that reading);
//   * published: two more clock reads for the total, and one uncontended
//     per-thread mutex acquisition per call to publish into that thread's
//     aggregates and exemplar ring buffer.  Threads never share write
//     state; a snapshot() merges the per-thread states read-side.
//
// Exemplars: every `sample_every`-th call per thread keeps its full
// per-stage record in a bounded ring buffer (oldest overwritten), so a
// collector can show concrete slow calls next to the aggregates.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/histogram.hpp"

namespace wsc::obs {

enum class Stage : std::uint8_t {
  KeyGen,       // cache key generation (Table 6)
  Lookup,       // response-cache probe
  Retrieve,     // CachedValue::retrieve — deep copy / SAX replay (Table 7)
  Wire,         // transport round trips, all attempts, minus backoff sleeps
  Backoff,      // retry backoff sleeps (RetryingTransport)
  Parse,        // XML tokenization + SAX handling of the response
  Deserialize,  // building the application object from the parsed body
  Store,        // representation capture + cache insert
};
inline constexpr std::size_t kStageCount = 8;
std::string_view stage_name(Stage s);

enum class Outcome : std::uint8_t {
  Hit,          // fresh entry served
  Miss,         // full wire call + (possibly) store
  Revalidated,  // 304 renewed a stale entry
  StaleServe,   // wire failed; expired entry served within grace
  Uncacheable,  // policy bypassed the cache
  Error,        // call raised
  Coalesced,       // follower served from another caller's in-flight call
  StaleRevalidate, // expired-within-grace entry served; refresh in background
  Refresh,         // background refresh (SWR, refresh-ahead): no hit or miss
};
std::string_view outcome_name(Outcome o);

/// The label set every trace aggregate and exemplar carries.
struct CallLabels {
  std::string service;
  std::string operation;
  std::string representation;  // empty until the client resolves it
  Outcome outcome = Outcome::Error;
};

/// One finished call as its CallTrace measured it, handed to both sinks.
/// The labels are views of strings that outlive the call (the client's
/// service and operation names, the static representation names), so a
/// call that is timed but not published copies no label.
struct CallSample {
  std::string_view service;
  std::string_view operation;
  std::string_view representation;
  Outcome outcome = Outcome::Error;
  std::array<std::uint64_t, kStageCount> stage_ns{};
  std::uint64_t weight = 1;       // calls this sample stands for
  std::uint64_t entry_bytes = 0;  // key + value bytes stored (0 = none)

  std::uint64_t stage(Stage s) const {
    return stage_ns[static_cast<std::size_t>(s)];
  }
};

/// One fully traced call (an exemplar).
struct CallRecord {
  CallLabels labels;
  std::uint64_t total_ns = 0;
  std::array<std::uint64_t, kStageCount> stage_ns{};

  std::uint64_t stage(Stage s) const {
    return stage_ns[static_cast<std::size_t>(s)];
  }
  std::uint64_t stage_sum() const;
};

struct StageAgg {
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;
  std::uint64_t min_ns = UINT64_MAX;
  std::uint64_t max_ns = 0;

  void add(std::uint64_t ns);
  void merge(const StageAgg& other);
  double mean_ns() const {
    return count ? static_cast<double>(sum_ns) / static_cast<double>(count) : 0.0;
  }
};

/// Aggregate over every traced call with one label set.
struct GroupSummary {
  CallLabels labels;
  std::uint64_t calls = 0;
  std::uint64_t total_sum_ns = 0;
  std::array<StageAgg, kStageCount> stages{};
  /// End-to-end latency distribution (coarse buckets: ~12% relative error,
  /// small enough to keep one per thread per label set).
  util::Histogram total_hist{3};

  const StageAgg& stage(Stage s) const {
    return stages[static_cast<std::size_t>(s)];
  }
  double mean_total_ns() const {
    return calls ? static_cast<double>(total_sum_ns) / static_cast<double>(calls)
                 : 0.0;
  }
  /// Sum of per-stage mean costs — the traced decomposition of
  /// mean_total_ns(); the gap between the two is untraced glue.
  double mean_stage_sum_ns() const;
};

struct TraceSummary {
  std::vector<GroupSummary> groups;     // sorted by label key
  std::vector<CallRecord> exemplars;    // sampled full records
  std::uint64_t dropped_exemplars = 0;  // ring overwrites since reset

  const GroupSummary* find(std::string_view operation, Outcome outcome,
                           std::string_view representation = {}) const;
};

class CallTrace;
class CostProfiles;

/// Trace sink: per-thread aggregation plus sampled exemplars.  One
/// process-wide instance (`obs::tracer()`) is shared by the client
/// middleware, the transports, and the exporters; tests may construct
/// their own.
class Tracer {
 public:
  /// Opaque per-thread write state (defined in trace.cpp; public only so
  /// the thread-local cache can name it).
  struct ThreadState;

  explicit Tracer(std::size_t ring_capacity = 256);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Keep every n-th call per thread as a full exemplar (n >= 1).
  void set_sample_every(std::uint32_t n);
  std::uint32_t sample_every() const {
    return sample_every_.load(std::memory_order_relaxed);
  }

  /// Merge all per-thread aggregates and rings; non-destructive, so
  /// multiple scrapers see monotonic values.
  TraceSummary snapshot() const;

  /// Drop all aggregates and exemplars (e.g. between bench phases).
  void reset();

 private:
  friend class CallTrace;

  ThreadState& local_state();
  void publish(const CallSample& sample, std::uint64_t total_ns);

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint32_t> sample_every_{16};
  std::size_t ring_capacity_;
  std::uint64_t id_;  // process-unique, keys the thread-local cache
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<ThreadState>> states_;
};

/// The process-wide tracer the middleware stack reports to.
Tracer& tracer();

/// Monotonic nanosecond timestamp (steady clock).
std::uint64_t now_ns();

/// One middleware call, stack-scoped in invoke().  Timed from the start
/// when the tracer is enabled at construction (and then published to it);
/// otherwise untimed, all methods cheap no-ops, until the client samples
/// it with sample_into().  While timed it is the thread's `current_call()`,
/// which is how layers below the client (retrying transport, HTTP
/// transport) attribute time without any API plumbing.
class CallTrace {
 public:
  CallTrace(Tracer& tracer, std::string_view service,
            std::string_view operation);
  /// Binds to the process-wide tracer.
  CallTrace(std::string_view service, std::string_view operation);
  ~CallTrace();

  CallTrace(const CallTrace&) = delete;
  CallTrace& operator=(const CallTrace&) = delete;

  /// Time the rest of the call (if it is not timed already) and, when
  /// `profiles` is set, feed it the finished record as `weight` calls.
  /// An untimed call's clock starts at its next stage boundary.
  void sample_into(CostProfiles* profiles, std::uint64_t weight);

  bool active() const { return timed_; }
  void set_representation(std::string_view rep) {
    sample_.representation = rep;
  }
  void set_outcome(Outcome outcome) { sample_.outcome = outcome; }
  void set_entry_bytes(std::uint64_t bytes) { sample_.entry_bytes = bytes; }
  void add_stage(Stage s, std::uint64_t ns);
  std::uint64_t stage_ns(Stage s) const { return sample_.stage(s); }
  /// Nanoseconds since the call's clock started (0 while untimed).
  std::uint64_t elapsed_ns() const;

 private:
  friend class StageTimer;
  /// A stage boundary's clock reading; the first one starts the clock.
  std::uint64_t clock_ns();

  Tracer* tracer_ = nullptr;  // publish sink: null = not published
  CostProfiles* profiles_ = nullptr;
  CallTrace* prev_ = nullptr;
  bool timed_ = false;
  CallSample sample_;
  std::uint64_t start_ns_ = 0;
  std::uint64_t attributed_ns_ = 0;  // sum of every stage added so far
};

/// The innermost timed CallTrace on this thread (nullptr when none).
CallTrace* current_call();

/// RAII stage attribution.  The unbound form attaches to `current_call()`
/// so transports deep in the stack contribute stages to whatever call is
/// in flight above them.  Stages never overlap: time a nested timer
/// attributes (retry backoff inside the wire round trip) is subtracted
/// from the enclosing stage, so the stage sum stays an honest
/// decomposition of the call.
class StageTimer {
 public:
  StageTimer(CallTrace& trace, Stage stage)
      : StageTimer(trace.active() ? &trace : nullptr, stage) {}
  explicit StageTimer(Stage stage) : StageTimer(current_call(), stage) {}
  ~StageTimer() {
    if (!trace_) return;
    const std::uint64_t elapsed = now_ns() - start_;
    const std::uint64_t nested = trace_->attributed_ns_ - nested_before_;
    trace_->add_stage(stage_, elapsed > nested ? elapsed - nested : 0);
  }

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  StageTimer(CallTrace* trace, Stage stage) : trace_(trace), stage_(stage) {
    if (!trace_) return;
    start_ = trace_->clock_ns();
    nested_before_ = trace_->attributed_ns_;
  }

  CallTrace* trace_;
  Stage stage_;
  std::uint64_t start_ = 0;
  std::uint64_t nested_before_ = 0;
};

}  // namespace wsc::obs

// Adaptive representation selection: close the loop from live cost
// models (DESIGN.md §13).
//
// The paper selects each operation's optimal data representation ONCE,
// from type traits known at deployment time (§6, auto_select).  That
// choice is static: it cannot see that this deployment's payloads are
// tiny (serialization wins), that the JVM-equivalent reflection copy is
// slow on this host, or that the cache is out of memory and a compact
// form would halve the footprint.  This policy starts from the trait
// choice and then *measures*: a deterministic, seeded fraction of
// stores additionally shadow-probes an alternative applicable
// representation — building the alternative CachedValue from the same
// captured response, timing its store and one retrieve, and measuring
// its bytes — and feeds those samples into per-(operation,
// representation) EWMA score models.  On a decision interval the policy
// re-scores every applicable representation against a configurable
// objective and switches the operation's serving representation when a
// clearly better one (hysteresis) has enough evidence.
//
// Exploration is SHADOW-ONLY: the serving path always uses the current
// representation; probes ride the miss path (where one wire round trip
// already dwarfs an extra capture) and never the hit path.  That is
// what keeps the converged hit-path overhead inside the <=2% budget —
// a converged adaptive client serves byte-identical hits to a static
// one.
//
// Determinism: sampling uses a per-operation SplitMix64 stream seeded
// from Config::seed, decisions tick on an injectable util::Clock, and
// score inputs come from CostProfiles lifetime counters (exact sums).
// Same seed + same cost feed + same clock advances => same decisions.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/representation.hpp"
#include "obs/field_table.hpp"
#include "util/clock.hpp"
#include "util/random.hpp"

namespace wsc::obs {
class CostProfiles;
}

namespace wsc::cache {

class ResponseCache;

/// What the adaptive policy minimizes.
enum class AdaptiveObjective : std::uint8_t {
  Latency,   // expected per-call ns: hit_ewma + miss_ratio * store_ewma
  Bytes,     // bytes per cached entry
  Weighted,  // alpha * latency_score + beta * bytes_score
};
std::string_view adaptive_objective_name(AdaptiveObjective o);

class AdaptivePolicy {
 public:
  struct Config {
    AdaptiveObjective objective = AdaptiveObjective::Weighted;
    /// Weighted-objective coefficients (units: ns and bytes — with the
    /// defaults a nanosecond trades 1:1 against a byte, which values
    /// both roughly equally for the paper's payload scale).
    double alpha = 1.0;
    double beta = 1.0;
    /// Fraction of stores that also shadow-probe one alternative
    /// representation (deterministically sampled per operation).
    double sample_fraction = 1.0 / 16;
    /// Seed for every per-operation sampling stream (stream = seed XOR
    /// hash(operation)); one seed reproduces the whole run.
    std::uint64_t seed = 1;
    /// How often (per operation, on its store path) scores are
    /// re-evaluated and switches considered.
    std::chrono::milliseconds decision_interval{1000};
    /// A representation needs at least this many hit-latency samples
    /// before it can be scored at all.
    std::uint64_t min_samples = 3;
  };

  /// One store-path consultation: serve with `representation`; if
  /// `probe` != Auto, additionally shadow-probe that representation.
  struct Choice {
    Representation representation = Representation::Auto;
    Representation probe = Representation::Auto;  // Auto = no probe
  };

  explicit AdaptivePolicy(std::shared_ptr<obs::CostProfiles> profiles);
  AdaptivePolicy(std::shared_ptr<obs::CostProfiles> profiles, Config config,
                 const util::Clock& clock = util::steady_clock());

  /// Wire the memory-pressure signal to a cache's live footprint and
  /// configured byte budget: while cache bytes exceed 90% of the budget
  /// the effective objective becomes Bytes, reverting only below 70%
  /// (hysteresis).  First call wins; later calls are no-ops.
  void bind_cache(std::shared_ptr<const ResponseCache> cache);
  /// Or supply an arbitrary bytes signal (tests): `bytes_fn` is polled
  /// at each decision tick against `budget_bytes`.
  void set_bytes_signal(std::function<std::uint64_t()> bytes_fn,
                        std::size_t budget_bytes);

  /// Store-path consultation for one operation.  `static_choice` is the
  /// trait-based auto_select result (the starting incumbent);
  /// `applicable` lists every representation legal for the operation's
  /// result type.  Also drives the decision tick: when
  /// decision_interval has elapsed on this policy's clock, scores are
  /// refreshed and switches applied before choosing.
  Choice choose(std::string_view service, std::string_view operation,
                Representation static_choice,
                const std::vector<Representation>& applicable);

  /// Current serving representation for an operation (Auto if the
  /// policy has never seen it).
  Representation current(std::string_view operation) const;

  /// Force a decision pass now (tests and benches drive deterministic
  /// cadence with this instead of waiting out the interval).
  void decide_now();

  /// One operation's model state, for /adaptive and cachetop.
  struct OperationState {
    std::string service;
    std::string operation;
    Representation representation = Representation::Auto;
    Representation static_choice = Representation::Auto;
    AdaptiveObjective effective_objective = AdaptiveObjective::Weighted;
    double current_score = 0;  // incumbent's score (0 until first decide)
    std::uint64_t switches = 0;
    std::uint64_t probes = 0;
    struct RepScore {
      Representation representation = Representation::Auto;
      double score = 0;          // objective score; <0 = not enough data
      double hit_ns = 0;         // EWMA inputs
      double store_ns = 0;
      double bytes_per_entry = 0;
      std::uint64_t samples = 0;  // lifetime hit samples seen
    };
    std::vector<RepScore> candidates;  // applicable reps, enum order
  };
  std::vector<OperationState> snapshot() const;

  /// The /adaptive endpoint body: config, pressure state, counters, and
  /// every operation's model.
  std::string json() const;

  // Counters (metrics bridge).
  std::uint64_t decisions() const noexcept {
    return decisions_.load(std::memory_order_relaxed);
  }
  std::uint64_t switches() const noexcept {
    return switches_.load(std::memory_order_relaxed);
  }
  std::uint64_t explore_stores() const noexcept {
    return explore_stores_.load(std::memory_order_relaxed);
  }
  std::uint64_t pressure_transitions() const noexcept {
    return pressure_transitions_.load(std::memory_order_relaxed);
  }
  bool memory_pressure() const noexcept {
    return pressure_.load(std::memory_order_relaxed);
  }
  std::size_t operation_count() const;

  /// The four counters above, declared once for json() and the
  /// wsc_adaptive_* families.
  static const std::array<
      obs::Field<AdaptivePolicy, std::atomic<std::uint64_t>>, 4>
      kCounterFields;

  const Config& config() const noexcept { return config_; }
  const std::shared_ptr<obs::CostProfiles>& profiles() const noexcept {
    return profiles_;
  }

 private:
  /// Per-representation EWMA model.  Score inputs are epoch deltas of
  /// the CostProfiles lifetime sums: each decide pass computes the
  /// since-last-pass mean and folds it into an EWMA, so one noisy
  /// window cannot flip a converged choice.
  struct RepModel {
    bool seen = false;
    double hit_ewma = 0;       // ns
    double store_ewma = 0;     // ns
    double bytes_ewma = 0;     // bytes per entry
    std::uint64_t samples = 0;  // lifetime hit-latency samples
    // Last-seen lifetime totals (delta base for the next epoch).
    std::uint64_t last_hit_count = 0;
    std::uint64_t last_hit_sum = 0;
    std::uint64_t last_store_count = 0;
    std::uint64_t last_store_sum = 0;
    std::uint64_t last_entries = 0;
    std::uint64_t last_bytes = 0;
  };

  struct OpState {
    std::string service;
    Representation current = Representation::Auto;
    Representation static_choice = Representation::Auto;
    std::vector<Representation> applicable;
    util::Rng rng{0};
    std::size_t probe_cursor = 0;  // round-robins alternatives
    std::uint64_t switches = 0;
    std::uint64_t probes = 0;
    double current_score = 0;
    // EWMA of the operation's miss ratio (weights store cost in the
    // latency score by how often a store actually happens).
    double miss_ratio_ewma = 0;
    bool miss_ratio_seen = false;
    std::uint64_t last_hits = 0;
    std::uint64_t last_misses = 0;
    std::array<RepModel, kConcreteRepresentationCount> models{};
  };

  OpState& op_locked(std::string_view service, std::string_view operation,
                     Representation static_choice,
                     const std::vector<Representation>& applicable);
  void maybe_decide_locked();
  void decide_locked();
  void refresh_models_locked();
  void update_pressure_locked();
  /// Objective score for one candidate; negative = insufficient data.
  double score_locked(const OpState& op, Representation r,
                      AdaptiveObjective objective) const;
  AdaptiveObjective effective_objective_locked() const {
    return pressure_flag_ ? AdaptiveObjective::Bytes : config_.objective;
  }

  Config config_;
  std::shared_ptr<obs::CostProfiles> profiles_;
  const util::Clock* clock_;

  mutable std::mutex mu_;
  std::map<std::string, OpState, std::less<>> ops_;  // keyed by operation
  util::TimePoint last_decision_{};   // guarded by mu_
  std::function<std::uint64_t()> bytes_fn_;  // guarded by mu_
  std::size_t budget_bytes_ = 0;             // guarded by mu_
  bool pressure_flag_ = false;               // guarded by mu_
  std::shared_ptr<const ResponseCache> cache_;  // keeps bytes_fn_ alive

  std::atomic<std::uint64_t> decisions_{0};
  std::atomic<std::uint64_t> switches_{0};
  std::atomic<std::uint64_t> explore_stores_{0};
  std::atomic<std::uint64_t> pressure_transitions_{0};
  std::atomic<bool> pressure_{false};
};

}  // namespace wsc::cache

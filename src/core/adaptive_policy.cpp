#include "core/adaptive_policy.hpp"

#include <algorithm>
#include <cstdio>

#include "core/response_cache.hpp"
#include "obs/events.hpp"
#include "obs/profiles.hpp"
#include "util/json.hpp"

namespace wsc::cache {

namespace {

/// EWMA smoothing for per-epoch score inputs (1 = latest epoch only).
constexpr double kEwmaAlpha = 0.4;
/// A challenger must beat the incumbent's score by this fraction to take
/// over (hysteresis against measurement noise flapping).
constexpr double kMinImprovement = 0.05;
/// Memory-pressure watermarks, as fractions of the byte budget: above the
/// high one the objective becomes Bytes until bytes drop below the low one.
constexpr double kHighWatermark = 0.90;
constexpr double kLowWatermark = 0.70;

/// Fold one epoch's mean into an EWMA; the first epoch seeds it.
double fold(double ewma, double epoch, bool seeded) {
  return seeded ? kEwmaAlpha * epoch + (1 - kEwmaAlpha) * ewma : epoch;
}

/// FNV-1a: deterministic across platforms (std::hash is not guaranteed
/// to be), so one Config::seed reproduces per-operation sample streams
/// everywhere.
std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

std::string_view adaptive_objective_name(AdaptiveObjective o) {
  switch (o) {
    case AdaptiveObjective::Latency: return "latency";
    case AdaptiveObjective::Bytes: return "bytes";
    case AdaptiveObjective::Weighted: return "weighted";
  }
  return "?";
}

const std::array<obs::Field<AdaptivePolicy, std::atomic<std::uint64_t>>, 4>
    AdaptivePolicy::kCounterFields = {{
        {"pressure_transitions",
         "Memory-pressure watermark crossings (enter + exit)", obs::kCounter,
         &AdaptivePolicy::pressure_transitions_},
        {"decisions", "Adaptive decision passes (score refresh + switch check)",
         obs::kCounter, &AdaptivePolicy::decisions_},
        {"switches", "Representation switches applied by the adaptive policy",
         obs::kCounter, &AdaptivePolicy::switches_},
        {"explore_stores",
         "Stores that shadow-probed an alternative representation",
         obs::kCounter, &AdaptivePolicy::explore_stores_},
    }};

AdaptivePolicy::AdaptivePolicy(std::shared_ptr<obs::CostProfiles> profiles)
    : AdaptivePolicy(std::move(profiles), Config{}) {}

AdaptivePolicy::AdaptivePolicy(std::shared_ptr<obs::CostProfiles> profiles,
                               Config config, const util::Clock& clock)
    : config_(config),
      profiles_(std::move(profiles)),
      clock_(&clock) {}

void AdaptivePolicy::bind_cache(std::shared_ptr<const ResponseCache> cache) {
  if (!cache) return;
  std::lock_guard lock(mu_);
  if (bytes_fn_) return;  // first signal wins
  cache_ = std::move(cache);
  const ResponseCache* raw = cache_.get();
  bytes_fn_ = [raw] {
    return static_cast<std::uint64_t>(raw->footprint().bytes);
  };
  if (budget_bytes_ == 0) budget_bytes_ = cache_->max_bytes();
}

void AdaptivePolicy::set_bytes_signal(std::function<std::uint64_t()> bytes_fn,
                                      std::size_t budget_bytes) {
  std::lock_guard lock(mu_);
  if (bytes_fn_) return;  // first signal wins
  bytes_fn_ = std::move(bytes_fn);
  if (budget_bytes > 0) budget_bytes_ = budget_bytes;
}

AdaptivePolicy::OpState& AdaptivePolicy::op_locked(
    std::string_view service, std::string_view operation,
    Representation static_choice,
    const std::vector<Representation>& applicable) {
  auto it = ops_.find(operation);
  if (it != ops_.end()) return it->second;
  OpState op;
  op.service.assign(service);
  op.static_choice = static_choice;
  op.current = static_choice;
  op.applicable.reserve(applicable.size());
  for (Representation r : applicable)
    if (r != Representation::Auto) op.applicable.push_back(r);
  op.rng = util::Rng(config_.seed ^ fnv1a(operation));
  return ops_.emplace(std::string(operation), std::move(op)).first->second;
}

AdaptivePolicy::Choice AdaptivePolicy::choose(
    std::string_view service, std::string_view operation,
    Representation static_choice,
    const std::vector<Representation>& applicable) {
  std::lock_guard lock(mu_);
  OpState& op = op_locked(service, operation, static_choice, applicable);
  maybe_decide_locked();
  Choice choice;
  choice.representation = op.current;
  // Always draw, even when no probe can result: the per-operation stream
  // position then depends only on how many stores the operation has seen,
  // never on the current representation — reproducibility survives
  // switches.
  const double draw = op.rng.next_double();
  if (op.applicable.size() > 1 && draw < config_.sample_fraction) {
    // Round-robin the alternatives so every candidate accrues evidence
    // at the same rate.
    for (std::size_t i = 0; i < op.applicable.size(); ++i) {
      const Representation r =
          op.applicable[op.probe_cursor++ % op.applicable.size()];
      if (r != op.current) {
        choice.probe = r;
        op.probes += 1;
        explore_stores_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
    }
  }
  return choice;
}

Representation AdaptivePolicy::current(std::string_view operation) const {
  std::lock_guard lock(mu_);
  auto it = ops_.find(operation);
  return it == ops_.end() ? Representation::Auto : it->second.current;
}

void AdaptivePolicy::decide_now() {
  std::lock_guard lock(mu_);
  decide_locked();
}

std::size_t AdaptivePolicy::operation_count() const {
  std::lock_guard lock(mu_);
  return ops_.size();
}

void AdaptivePolicy::maybe_decide_locked() {
  const util::TimePoint now = clock_->now();
  if (last_decision_ == util::TimePoint{}) {
    last_decision_ = now;  // first store arms the interval
    return;
  }
  if (now - last_decision_ >= config_.decision_interval) decide_locked();
}

void AdaptivePolicy::refresh_models_locked() {
  if (!profiles_) return;
  // Fold this epoch's per-(operation, representation) deltas of the
  // lifetime profile sums into the EWMA models.  Deltas of exact sums —
  // not windowed means — so no sample is ever double-counted or lost
  // between decision passes.
  const std::vector<obs::CostProfiles::Row> rows = profiles_->snapshot();
  for (const obs::CostProfiles::Row& row : rows) {
    auto it = ops_.find(row.operation);
    if (it == ops_.end() || it->second.service != row.service) continue;
    OpState& op = it->second;
    const auto rep = representation_from_name(row.representation);
    if (!rep || *rep == Representation::Auto) continue;
    RepModel& m = op.models[static_cast<std::size_t>(*rep)];

    const std::uint64_t dhc = row.hit_ns.count - m.last_hit_count;
    const std::uint64_t dhs = row.hit_ns.sum_ns - m.last_hit_sum;
    if (dhc > 0) {
      const double epoch = static_cast<double>(dhs) / static_cast<double>(dhc);
      m.hit_ewma = fold(m.hit_ewma, epoch, m.last_hit_count > 0);
    }
    m.last_hit_count = row.hit_ns.count;
    m.last_hit_sum = row.hit_ns.sum_ns;
    m.samples = row.hit_ns.count;

    const std::uint64_t dsc = row.store_ns.count - m.last_store_count;
    const std::uint64_t dss = row.store_ns.sum_ns - m.last_store_sum;
    if (dsc > 0) {
      const double epoch = static_cast<double>(dss) / static_cast<double>(dsc);
      m.store_ewma = fold(m.store_ewma, epoch, m.last_store_count > 0);
    }
    m.last_store_count = row.store_ns.count;
    m.last_store_sum = row.store_ns.sum_ns;

    const std::uint64_t dec = row.stored_entries - m.last_entries;
    const std::uint64_t dby = row.bytes_sum - m.last_bytes;
    if (dec > 0) {
      const double epoch = static_cast<double>(dby) / static_cast<double>(dec);
      m.bytes_ewma = fold(m.bytes_ewma, epoch, m.last_entries > 0);
    }
    m.last_entries = row.stored_entries;
    m.last_bytes = row.bytes_sum;
    // "Seen" means ANY data: a serving representation in an all-miss
    // workload has store/bytes feeds but no hit samples, and must still
    // be scoreable under the bytes objective.
    if (dhc > 0 || dsc > 0 || dec > 0) m.seen = true;
  }
  // Operation-level miss ratio: hits/misses land only on the SERVING
  // representation's row (probes never touch counters), so aggregating
  // the per-representation rows per operation tracks real traffic.
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>, std::less<>>
      totals;
  for (const obs::CostProfiles::Row& row : rows) {
    auto it = ops_.find(row.operation);
    if (it == ops_.end() || it->second.service != row.service) continue;
    auto& t = totals[row.operation];
    t.first += row.hits;
    t.second += row.misses;
  }
  for (auto& [operation, t] : totals) {
    OpState& op = ops_.find(operation)->second;
    const std::uint64_t dh = t.first - op.last_hits;
    const std::uint64_t dm = t.second - op.last_misses;
    if (dh + dm > 0) {
      const double epoch =
          static_cast<double>(dm) / static_cast<double>(dh + dm);
      op.miss_ratio_ewma = fold(op.miss_ratio_ewma, epoch, op.miss_ratio_seen);
      op.miss_ratio_seen = true;
    }
    op.last_hits = t.first;
    op.last_misses = t.second;
  }
}

void AdaptivePolicy::update_pressure_locked() {
  if (!bytes_fn_ || budget_bytes_ == 0) return;
  const double bytes = static_cast<double>(bytes_fn_());
  const double budget = static_cast<double>(budget_bytes_);
  if (!pressure_flag_ && bytes > kHighWatermark * budget) {
    pressure_flag_ = true;
    pressure_.store(true, std::memory_order_relaxed);
    pressure_transitions_.fetch_add(1, std::memory_order_relaxed);
    obs::event_log().emit(
        obs::EventKind::MemoryPressure, "adaptive",
        "cache bytes over high watermark; objective forced to bytes",
        static_cast<std::uint64_t>(bytes));
  } else if (pressure_flag_ && bytes < kLowWatermark * budget) {
    pressure_flag_ = false;
    pressure_.store(false, std::memory_order_relaxed);
    pressure_transitions_.fetch_add(1, std::memory_order_relaxed);
    obs::event_log().emit(
        obs::EventKind::MemoryPressure, "adaptive",
        "cache bytes back under low watermark; objective restored",
        static_cast<std::uint64_t>(bytes));
  }
}

double AdaptivePolicy::score_locked(const OpState& op, Representation r,
                                    AdaptiveObjective objective) const {
  const RepModel& m = op.models[static_cast<std::size_t>(r)];
  if (!m.seen) return -1;
  // Bytes needs no latency confidence: entry sizes are near-deterministic
  // and the incumbent's come from real stores.  Critically, an all-miss
  // churn workload (exactly where memory pressure arises) produces NO hit
  // samples for the serving representation — gating bytes on the latency
  // sample floor would deadlock the pressure escape hatch.
  if (objective == AdaptiveObjective::Bytes)
    return m.bytes_ewma > 0 ? m.bytes_ewma : -1;
  if (m.samples < config_.min_samples) return -1;
  // Unknown miss ratio weighs stores fully (conservative) — it becomes
  // real as soon as the first decision epoch sees traffic.
  const double miss_ratio = op.miss_ratio_seen ? op.miss_ratio_ewma : 1.0;
  const double latency = m.hit_ewma + miss_ratio * m.store_ewma;
  switch (objective) {
    case AdaptiveObjective::Latency:
      return latency;
    case AdaptiveObjective::Bytes:
      break;  // handled above
    case AdaptiveObjective::Weighted:
      if (m.bytes_ewma <= 0) return -1;
      return config_.alpha * latency + config_.beta * m.bytes_ewma;
  }
  return -1;
}

void AdaptivePolicy::decide_locked() {
  last_decision_ = clock_->now();
  decisions_.fetch_add(1, std::memory_order_relaxed);
  refresh_models_locked();
  update_pressure_locked();
  const AdaptiveObjective objective = effective_objective_locked();
  for (auto& [operation, op] : ops_) {
    op.current_score = score_locked(op, op.current, objective);
    if (op.current_score < 0) continue;  // incumbent unmeasured: hold
    Representation best = op.current;
    double best_score = op.current_score;
    for (Representation r : op.applicable) {
      if (r == op.current) continue;
      const double s = score_locked(op, r, objective);
      if (s >= 0 && s < best_score) {
        best = r;
        best_score = s;
      }
    }
    if (best != op.current &&
        best_score < op.current_score * (1 - kMinImprovement)) {
      const Representation from = op.current;
      op.current = best;
      op.switches += 1;
      switches_.fetch_add(1, std::memory_order_relaxed);
      std::string detail;
      detail.reserve(96);
      detail.append(representation_name(from));
      detail.append(" -> ");
      detail.append(representation_name(best));
      detail.append(" (");
      detail.append(adaptive_objective_name(objective));
      detail.append(" ");
      detail.append(num(op.current_score));
      detail.append(" -> ");
      detail.append(num(best_score));
      detail.append(")");
      obs::event_log().emit(obs::EventKind::AdaptiveSwitch,
                            op.service + "." + operation, detail,
                            static_cast<std::uint64_t>(best_score));
      op.current_score = best_score;
    }
  }
}

std::vector<AdaptivePolicy::OperationState> AdaptivePolicy::snapshot() const {
  std::lock_guard lock(mu_);
  const AdaptiveObjective objective = effective_objective_locked();
  std::vector<OperationState> out;
  out.reserve(ops_.size());
  for (const auto& [operation, op] : ops_) {
    OperationState s;
    s.service = op.service;
    s.operation = operation;
    s.representation = op.current;
    s.static_choice = op.static_choice;
    s.effective_objective = objective;
    s.current_score = op.current_score;
    s.switches = op.switches;
    s.probes = op.probes;
    s.candidates.reserve(op.applicable.size());
    for (Representation r : op.applicable) {
      const RepModel& m = op.models[static_cast<std::size_t>(r)];
      OperationState::RepScore rs;
      rs.representation = r;
      rs.score = score_locked(op, r, objective);
      rs.hit_ns = m.hit_ewma;
      rs.store_ns = m.store_ewma;
      rs.bytes_per_entry = m.bytes_ewma;
      rs.samples = m.samples;
      s.candidates.push_back(rs);
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::string AdaptivePolicy::json() const {
  std::vector<OperationState> ops = snapshot();
  std::string out = "{\n  \"objective\": \"";
  out += adaptive_objective_name(config_.objective);
  out += "\",\n  \"alpha\": " + num(config_.alpha) +
         ",\n  \"beta\": " + num(config_.beta) +
         ",\n  \"sample_fraction\": " + num(config_.sample_fraction) +
         ",\n  \"seed\": " + std::to_string(config_.seed) +
         ",\n  \"decision_interval_ms\": " +
         std::to_string(config_.decision_interval.count()) +
         ",\n  \"memory_pressure\": " +
         (memory_pressure() ? "true" : "false");
  for (const auto& field : kCounterFields)
    out += ",\n  \"" + std::string(field.name) +
           "\": " + std::to_string(obs::field_value(*this, field));
  out += ",\n  \"operations\": [";
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const OperationState& s = ops[i];
    out += i ? ",\n    " : "\n    ";
    out += "{\"service\": \"" + util::json::escape(s.service) +
           "\", \"operation\": \"" + util::json::escape(s.operation) +
           "\", \"representation\": \"" +
           std::string(representation_name(s.representation)) +
           "\", \"static_choice\": \"" +
           std::string(representation_name(s.static_choice)) +
           "\", \"effective_objective\": \"" +
           std::string(adaptive_objective_name(s.effective_objective)) +
           "\", \"score\": " + num(s.current_score) +
           ", \"switches\": " + std::to_string(s.switches) +
           ", \"probes\": " + std::to_string(s.probes) +
           ", \"candidates\": [";
    for (std::size_t j = 0; j < s.candidates.size(); ++j) {
      const OperationState::RepScore& rs = s.candidates[j];
      out += j ? ", " : "";
      out += "{\"representation\": \"" +
             std::string(representation_name(rs.representation)) +
             "\", \"score\": " + num(rs.score) +
             ", \"hit_ns\": " + num(rs.hit_ns) +
             ", \"store_ns\": " + num(rs.store_ns) +
             ", \"bytes_per_entry\": " + num(rs.bytes_per_entry) +
             ", \"samples\": " + std::to_string(rs.samples) + "}";
    }
    out += "]}";
  }
  out += ops.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

}  // namespace wsc::cache

#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <unordered_map>

#include "obs/profiles.hpp"

namespace wsc::obs {

namespace {

/// Aggregation key: the four labels, NUL-separated (none of them may
/// contain NUL — they are operation/representation names), built into a
/// reused buffer.
void group_key(const CallSample& sample, std::string& key) {
  key.assign(sample.service);
  key += '\0';
  key += sample.operation;
  key += '\0';
  key += sample.representation;
  key += '\0';
  key += static_cast<char>('0' + static_cast<int>(sample.outcome));
}

std::atomic<std::uint64_t> g_next_tracer_id{1};

}  // namespace

std::string_view stage_name(Stage s) {
  switch (s) {
    case Stage::KeyGen: return "keygen";
    case Stage::Lookup: return "lookup";
    case Stage::Retrieve: return "retrieve";
    case Stage::Wire: return "wire";
    case Stage::Backoff: return "backoff";
    case Stage::Parse: return "parse";
    case Stage::Deserialize: return "deserialize";
    case Stage::Store: return "store";
  }
  return "unknown";
}

std::string_view outcome_name(Outcome o) {
  switch (o) {
    case Outcome::Hit: return "hit";
    case Outcome::Miss: return "miss";
    case Outcome::Revalidated: return "revalidated";
    case Outcome::StaleServe: return "stale_serve";
    case Outcome::Uncacheable: return "uncacheable";
    case Outcome::Error: return "error";
    case Outcome::Coalesced: return "coalesced";
    case Outcome::StaleRevalidate: return "stale_revalidate";
    case Outcome::Refresh: return "refresh";
  }
  return "unknown";
}

std::uint64_t CallRecord::stage_sum() const {
  std::uint64_t sum = 0;
  for (std::uint64_t ns : stage_ns) sum += ns;
  return sum;
}

void StageAgg::add(std::uint64_t ns) {
  ++count;
  sum_ns += ns;
  min_ns = std::min(min_ns, ns);
  max_ns = std::max(max_ns, ns);
}

void StageAgg::merge(const StageAgg& other) {
  count += other.count;
  sum_ns += other.sum_ns;
  min_ns = std::min(min_ns, other.min_ns);
  max_ns = std::max(max_ns, other.max_ns);
}

double GroupSummary::mean_stage_sum_ns() const {
  if (calls == 0) return 0.0;
  double sum = 0;
  for (const StageAgg& agg : stages)
    sum += static_cast<double>(agg.sum_ns);
  return sum / static_cast<double>(calls);
}

const GroupSummary* TraceSummary::find(std::string_view operation,
                                       Outcome outcome,
                                       std::string_view representation) const {
  for (const GroupSummary& g : groups) {
    if (g.labels.operation != operation || g.labels.outcome != outcome)
      continue;
    if (!representation.empty() && g.labels.representation != representation)
      continue;
    return &g;
  }
  return nullptr;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Tracer

struct Tracer::ThreadState {
  std::mutex mu;
  std::unordered_map<std::string, GroupSummary> groups;
  std::vector<CallRecord> ring;
  std::size_t ring_next = 0;
  std::uint64_t calls = 0;
  std::uint64_t dropped = 0;  // exemplars overwritten in the ring
  std::string key;            // group_key() buffer
};

namespace {
/// Thread-local cache of (tracer id -> state) so each thread resolves its
/// state without the tracer-wide lock after first use.  Entries for dead
/// tracers are harmless: ids are never reused.
struct TlsEntry {
  std::uint64_t tracer_id;
  std::shared_ptr<Tracer::ThreadState> state;
};
thread_local std::vector<TlsEntry> t_states;
thread_local CallTrace* t_current_call = nullptr;
}  // namespace

Tracer::Tracer(std::size_t ring_capacity)
    : ring_capacity_(std::max<std::size_t>(1, ring_capacity)),
      id_(g_next_tracer_id.fetch_add(1, std::memory_order_relaxed)) {}

Tracer::~Tracer() = default;

void Tracer::set_sample_every(std::uint32_t n) {
  sample_every_.store(std::max<std::uint32_t>(1, n),
                      std::memory_order_relaxed);
}

Tracer::ThreadState& Tracer::local_state() {
  for (const TlsEntry& entry : t_states) {
    if (entry.tracer_id == id_) return *entry.state;
  }
  auto state = std::make_shared<ThreadState>();
  state->ring.reserve(ring_capacity_);
  {
    std::lock_guard lock(mu_);
    states_.push_back(state);
  }
  t_states.push_back({id_, state});
  return *state;
}

void Tracer::publish(const CallSample& sample, std::uint64_t total_ns) {
  ThreadState& state = local_state();
  std::uint32_t every = sample_every();
  std::lock_guard lock(state.mu);
  group_key(sample, state.key);
  GroupSummary& group = state.groups[state.key];
  if (group.calls == 0)
    group.labels = {std::string(sample.service), std::string(sample.operation),
                    std::string(sample.representation), sample.outcome};
  ++group.calls;
  group.total_sum_ns += total_ns;
  group.total_hist.record(total_ns);
  for (std::size_t i = 0; i < kStageCount; ++i) {
    if (sample.stage_ns[i] != 0)
      group.stages[i].add(sample.stage_ns[i]);
  }
  if (state.calls++ % every == 0) {
    CallRecord record{group.labels, total_ns, sample.stage_ns};
    if (state.ring.size() < ring_capacity_) {
      state.ring.push_back(std::move(record));
    } else {
      state.ring[state.ring_next] = std::move(record);
      state.ring_next = (state.ring_next + 1) % ring_capacity_;
      ++state.dropped;
    }
  }
}

TraceSummary Tracer::snapshot() const {
  std::vector<std::shared_ptr<ThreadState>> states;
  {
    std::lock_guard lock(mu_);
    states = states_;
  }
  std::unordered_map<std::string, GroupSummary> merged;
  TraceSummary out;
  for (const auto& state : states) {
    std::lock_guard lock(state->mu);
    for (const auto& [key, group] : state->groups) {
      auto [it, inserted] = merged.try_emplace(key, GroupSummary{});
      GroupSummary& dst = it->second;
      if (inserted) dst.labels = group.labels;
      dst.calls += group.calls;
      dst.total_sum_ns += group.total_sum_ns;
      dst.total_hist.merge(group.total_hist);
      for (std::size_t i = 0; i < kStageCount; ++i)
        dst.stages[i].merge(group.stages[i]);
    }
    // Ring order: oldest first (the slot about to be overwritten is the
    // oldest once the ring has wrapped).
    for (std::size_t i = 0; i < state->ring.size(); ++i) {
      std::size_t idx = state->ring.size() == ring_capacity_
                            ? (state->ring_next + i) % ring_capacity_
                            : i;
      out.exemplars.push_back(state->ring[idx]);
    }
    out.dropped_exemplars += state->dropped;
  }
  std::vector<std::pair<std::string, GroupSummary>> sorted(
      std::make_move_iterator(merged.begin()),
      std::make_move_iterator(merged.end()));
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  out.groups.reserve(sorted.size());
  for (auto& [key, group] : sorted) out.groups.push_back(std::move(group));
  return out;
}

void Tracer::reset() {
  std::vector<std::shared_ptr<ThreadState>> states;
  {
    std::lock_guard lock(mu_);
    states = states_;
  }
  for (const auto& state : states) {
    std::lock_guard lock(state->mu);
    state->groups.clear();
    state->ring.clear();
    state->ring_next = 0;
    state->calls = 0;
    state->dropped = 0;
  }
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

// ---------------------------------------------------------------------------
// CallTrace

CallTrace::CallTrace(Tracer& tracer, std::string_view service,
                     std::string_view operation) {
  sample_.service = service;
  sample_.operation = operation;
  if (!tracer.enabled()) return;
  tracer_ = &tracer;
  sample_into(nullptr, 1);
  start_ns_ = now_ns();
}

CallTrace::CallTrace(std::string_view service, std::string_view operation)
    : CallTrace(obs::tracer(), service, operation) {}

CallTrace::~CallTrace() {
  if (!timed_) return;
  const std::uint64_t end = tracer_ ? now_ns() : 0;
  t_current_call = prev_;
  if (profiles_) profiles_->record(sample_);
  if (tracer_) tracer_->publish(sample_, end - start_ns_);
}

void CallTrace::sample_into(CostProfiles* profiles, std::uint64_t weight) {
  profiles_ = profiles;
  sample_.weight = weight;
  if (timed_) return;
  timed_ = true;
  prev_ = t_current_call;
  t_current_call = this;
}

void CallTrace::add_stage(Stage s, std::uint64_t ns) {
  if (!timed_) return;
  sample_.stage_ns[static_cast<std::size_t>(s)] += ns;
  attributed_ns_ += ns;
}

std::uint64_t CallTrace::elapsed_ns() const {
  return start_ns_ ? now_ns() - start_ns_ : 0;
}

std::uint64_t CallTrace::clock_ns() {
  const std::uint64_t now = now_ns();
  if (!start_ns_) start_ns_ = now;
  return now;
}

CallTrace* current_call() { return t_current_call; }

}  // namespace wsc::obs

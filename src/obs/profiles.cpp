#include "obs/profiles.hpp"

#include <atomic>
#include <cstdio>
#include <utility>

#include "util/json.hpp"

namespace wsc::obs {

namespace {

/// Registry ids start at 1: 0 marks an empty memo entry.
std::atomic<std::uint64_t> g_next_registry_id{1};

/// Rows one thread remembers; a thread hitting more rows than this
/// re-finds the oldest under the registry mutex.
constexpr std::size_t kHitMemoRows = 16;

CostProfiles::LatencyStat latency_stat(const util::Histogram& life,
                                       const util::Histogram& window) {
  CostProfiles::LatencyStat stat;
  stat.count = life.count();
  stat.sum_ns = life.sum();
  stat.mean_ns = life.mean();
  stat.p50_ns = static_cast<double>(life.percentile(0.5));
  stat.p99_ns = static_cast<double>(life.percentile(0.99));
  stat.p999_ns = static_cast<double>(life.percentile(0.999));
  stat.window_count = window.count();
  stat.window_p99_ns = static_cast<double>(window.percentile(0.99));
  return stat;
}

CostProfiles::LatencyStat latency_stat(const WindowedSummary& summary,
                                       std::uint64_t now) {
  return latency_stat(summary.snapshot(), summary.windowed_snapshot(now));
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void append_latency(std::string& out, const char* name,
                    const CostProfiles::LatencyStat& s) {
  out += std::string("\"") + name + "\": {\"count\": " +
         std::to_string(s.count) + ", \"mean_ns\": " + num(s.mean_ns) +
         ", \"p50_ns\": " + num(s.p50_ns) + ", \"p99_ns\": " + num(s.p99_ns) +
         ", \"p999_ns\": " + num(s.p999_ns) +
         ", \"window_count\": " + std::to_string(s.window_count) +
         ", \"window_p99_ns\": " + num(s.window_p99_ns) + "}";
}

}  // namespace

CostProfiles::Cell::Cell(const WindowOptions& window)
    : hit_stripes([&]<std::size_t... I>(std::index_sequence<I...>) {
        return std::array<HitStripe, util::kStripes>{
            ((void)I, HitStripe(window))...};
      }(std::make_index_sequence<util::kStripes>())),
      misses(window),
      stale_serves(window),
      store_ns(5, window),
      deserialize_ns(5, window) {}

CostProfiles::CostProfiles(WindowOptions window)
    : id_(g_next_registry_id.fetch_add(1, std::memory_order_relaxed)),
      window_(std::move(window)),
      window_label_(window_.span_label()) {}

CostProfiles::Cell& CostProfiles::cell_locked(
    std::string_view service, std::string_view operation,
    std::string_view representation) {
  const auto key = std::tie(service, operation, representation);
  auto it = cells_.find(key);
  if (it == cells_.end())
    it = cells_.emplace(key, std::make_unique<Cell>(window_)).first;
  return *it->second;
}

CostProfiles::HitStripe& CostProfiles::hit_stripe(const CallSample& call) {
  // Keyed by the label text, never by its address: a label's storage can
  // be freed and the address reused for another label.
  struct Memo {
    std::uint64_t registry = 0;
    std::string service, operation, representation;
    HitStripe* stripe = nullptr;
  };
  thread_local std::array<Memo, kHitMemoRows> memo;
  thread_local std::size_t next_slot = 0;
  for (const Memo& m : memo) {
    if (m.registry == id_ && m.service == call.service &&
        m.operation == call.operation &&
        m.representation == call.representation)
      return *m.stripe;
  }
  HitStripe* stripe;
  {
    std::lock_guard lock(mu_);
    stripe = &cell_locked(call.service, call.operation, call.representation)
                  .hit_stripes[util::thread_stripe()];
  }
  Memo& m = memo[next_slot];
  next_slot = (next_slot + 1) % kHitMemoRows;
  m.registry = id_;
  m.service.assign(call.service);
  m.operation.assign(call.operation);
  m.representation.assign(call.representation);
  m.stripe = stripe;
  return *stripe;
}

void CostProfiles::record(const CallSample& call) {
  switch (call.outcome) {
    case Outcome::Hit:
    case Outcome::Miss:
    case Outcome::Refresh:
    case Outcome::StaleServe:
    case Outcome::StaleRevalidate:
      break;
    default:
      return;  // no cost-row input: never create an empty row for it
  }
  // One window timestamp for every instrument this call feeds.
  const std::uint64_t now = window_.now ? window_.now() : now_ns();
  if (call.outcome == Outcome::Hit) {
    HitStripe& stripe = hit_stripe(call);
    stripe.hits.inc(call.weight, now);
    stripe.hit_ns.record(call.stage(Stage::Retrieve), now);
    return;
  }
  std::lock_guard lock(mu_);
  Cell& cell = cell_locked(call.service, call.operation, call.representation);
  switch (call.outcome) {
    case Outcome::Miss:
      cell.misses.inc(1, now);
      [[fallthrough]];
    case Outcome::Refresh:
      cell.deserialize_ns.record(call.stage(Stage::Deserialize), now);
      if (call.entry_bytes > 0) {
        cell.store_ns.record(call.stage(Stage::Store), now);
        cell.stored_entries += 1;
        cell.bytes_sum += call.entry_bytes;
      }
      return;
    default:
      cell.stale_serves.inc(1, now);
      return;
  }
}

void CostProfiles::record_probe(std::string_view service,
                                std::string_view operation,
                                std::string_view representation,
                                std::uint64_t hit_ns, std::uint64_t store_ns,
                                std::uint64_t bytes) {
  std::lock_guard lock(mu_);
  Cell& cell = cell_locked(service, operation, representation);
  cell.hit_stripes[util::thread_stripe()].hit_ns.record(hit_ns);
  cell.store_ns.record(store_ns);
  if (bytes > 0) {
    cell.stored_entries += 1;
    cell.bytes_sum += bytes;
  }
}

std::vector<CostProfiles::Row> CostProfiles::snapshot() const {
  const std::uint64_t now = window_.now ? window_.now() : now_ns();
  std::vector<Row> rows;
  std::lock_guard lock(mu_);
  rows.reserve(cells_.size());
  for (const auto& [key, cell] : cells_) {
    Row row;
    std::tie(row.service, row.operation, row.representation) = key;
    util::Histogram hit_life, hit_window;
    for (const HitStripe& stripe : cell->hit_stripes) {
      row.hits += stripe.hits.value();
      row.window_hits += stripe.hits.windowed(now);
      hit_life.merge(stripe.hit_ns.snapshot());
      hit_window.merge(stripe.hit_ns.windowed_snapshot(now));
    }
    row.misses = cell->misses.value();
    row.stale_serves = cell->stale_serves.value();
    row.window_misses = cell->misses.windowed(now);
    const std::uint64_t total = row.hits + row.misses;
    row.hit_ratio =
        total ? static_cast<double>(row.hits) / static_cast<double>(total) : 0;
    const std::uint64_t wtotal = row.window_hits + row.window_misses;
    row.window_hit_ratio =
        wtotal ? static_cast<double>(row.window_hits) /
                     static_cast<double>(wtotal)
               : 0;
    row.hit_ns = latency_stat(hit_life, hit_window);
    row.store_ns = latency_stat(cell->store_ns, now);
    row.deserialize_ns = latency_stat(cell->deserialize_ns, now);
    row.stored_entries = cell->stored_entries;
    row.bytes_sum = cell->bytes_sum;
    row.bytes_per_entry =
        cell->stored_entries
            ? static_cast<double>(cell->bytes_sum) /
                  static_cast<double>(cell->stored_entries)
            : 0;
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string CostProfiles::json_rows() const {
  std::vector<Row> rows = snapshot();
  std::string out = "[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out += i ? ",\n    " : "\n    ";
    out += "{\"service\": \"" + util::json::escape(r.service) +
           "\", \"operation\": \"" + util::json::escape(r.operation) +
           "\", \"representation\": \"" +
           util::json::escape(r.representation) +
           "\", \"hits\": " + std::to_string(r.hits) +
           ", \"misses\": " + std::to_string(r.misses) +
           ", \"stale_serves\": " + std::to_string(r.stale_serves) +
           ", \"window_hits\": " + std::to_string(r.window_hits) +
           ", \"window_misses\": " + std::to_string(r.window_misses) +
           ", \"hit_ratio\": " + num(r.hit_ratio) +
           ", \"window_hit_ratio\": " + num(r.window_hit_ratio) + ", ";
    append_latency(out, "hit", r.hit_ns);
    out += ", ";
    append_latency(out, "store", r.store_ns);
    out += ", ";
    append_latency(out, "deserialize", r.deserialize_ns);
    out += ", \"stored_entries\": " + std::to_string(r.stored_entries) +
           ", \"bytes_sum\": " + std::to_string(r.bytes_sum) +
           ", \"bytes_per_entry\": " + num(r.bytes_per_entry) + "}";
  }
  out += rows.empty() ? "]" : "\n  ]";
  return out;
}

}  // namespace wsc::obs

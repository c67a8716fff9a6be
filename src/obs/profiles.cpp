#include "obs/profiles.hpp"

#include <cstdio>

#include "util/json.hpp"

namespace wsc::obs {

namespace {

CostProfiles::LatencyStat latency_stat(const WindowedSummary& summary,
                                       std::uint64_t now) {
  CostProfiles::LatencyStat stat;
  util::Histogram life = summary.snapshot();
  stat.count = life.count();
  stat.sum_ns = life.sum();
  stat.mean_ns = life.mean();
  stat.p50_ns = static_cast<double>(life.percentile(0.5));
  stat.p99_ns = static_cast<double>(life.percentile(0.99));
  stat.p999_ns = static_cast<double>(life.percentile(0.999));
  util::Histogram window = summary.windowed_snapshot(now);
  stat.window_count = window.count();
  stat.window_p99_ns = static_cast<double>(window.percentile(0.99));
  return stat;
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

CostProfiles::CostProfiles(WindowOptions window)
    : window_(std::move(window)), window_label_(window_.span_label()) {}

CostProfiles::Cell& CostProfiles::cell_locked(
    std::string_view service, std::string_view operation,
    std::string_view representation) {
  const auto key = std::tie(service, operation, representation);
  auto it = cells_.find(key);
  if (it == cells_.end())
    it = cells_.emplace(key, std::make_unique<Cell>(window_)).first;
  return *it->second;
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
  std::lock_guard lock(mu_);
  Cell& cell = cell_locked(call.service, call.operation, call.representation);
  switch (call.outcome) {
    case Outcome::Hit:
      cell.hits.inc(call.weight, now);
      cell.hit_ns.record(call.stage(Stage::Retrieve), now);
      return;
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
  cell.hit_ns.record(hit_ns);
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
    row.hits = cell->hits.value();
    row.misses = cell->misses.value();
    row.stale_serves = cell->stale_serves.value();
    row.window_hits = cell->hits.windowed(now);
    row.window_misses = cell->misses.windowed(now);
    const std::uint64_t total = row.hits + row.misses;
    row.hit_ratio =
        total ? static_cast<double>(row.hits) / static_cast<double>(total) : 0;
    const std::uint64_t wtotal = row.window_hits + row.window_misses;
    row.window_hit_ratio =
        wtotal ? static_cast<double>(row.window_hits) /
                     static_cast<double>(wtotal)
               : 0;
    row.hit_ns = latency_stat(cell->hit_ns, now);
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

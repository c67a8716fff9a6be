// Declared stats fields: a stats struct lists every value it exports as
// one constexpr table of Field rows, and each exporter loops over that
// table.  Adding a row is the whole job of adding a field; the JSON
// object, the `name=value` text and the Prometheus families all pick it
// up, and no exporter can drop or misspell one on its own.
//
// Prometheus family names follow one rule: prefix + name + "_total" for
// counters, prefix + name for gauges.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace wsc::obs {

inline constexpr auto kCounter = MetricsRegistry::Kind::Counter;
inline constexpr auto kGauge = MetricsRegistry::Kind::Gauge;

/// One exported value of stats struct `S`: its name (JSON key and family
/// stem), its HELP text, its kind, and the member holding it — a plain
/// count in a snapshot struct, or a live atomic.
template <class S, class T = std::uint64_t>
struct Field {
  const char* name;
  const char* help;
  MetricsRegistry::Kind kind;
  T S::*member;
};

template <class S, class T>
std::uint64_t field_value(const S& s, const Field<S, T>& field) {
  if constexpr (std::is_same_v<T, std::atomic<std::uint64_t>>)
    return (s.*field.member).load(std::memory_order_relaxed);
  else
    return s.*field.member;
}

template <class S, class T>
std::string family_name(std::string_view prefix, const Field<S, T>& field) {
  std::string out(prefix);
  out += field.name;
  if (field.kind == kCounter) out += "_total";
  return out;
}

/// `"name": value` for every row, joined by ", " (no braces, so callers
/// can embed the members in a larger object).
template <class S, class T, std::size_t N>
std::string fields_json(const S& s, const std::array<Field<S, T>, N>& table) {
  std::string out;
  for (const Field<S, T>& field : table) {
    if (!out.empty()) out += ", ";
    out += '"';
    out += field.name;
    out += "\": " + std::to_string(field_value(s, field));
  }
  return out;
}

/// `name=value` for every row, joined by spaces.
template <class S, class T, std::size_t N>
std::string fields_text(const S& s, const std::array<Field<S, T>, N>& table) {
  std::string out;
  for (const Field<S, T>& field : table) {
    if (!out.empty()) out += ' ';
    out += field.name;
    out += '=' + std::to_string(field_value(s, field));
  }
  return out;
}

/// Declare one family per row, and one collector that emits every row
/// from a SINGLE `read()` per scrape, so exported values never tear
/// against each other.  `read` returns an `S` (a snapshot) or a reference
/// to a live one; `table` and whatever `read` refers to must outlive the
/// registry's exports.
template <class S, class T, std::size_t N, class Read>
void register_fields(MetricsRegistry& registry, std::string_view prefix,
                     const std::array<Field<S, T>, N>& table, Labels labels,
                     Read read) {
  std::array<std::string, N> names;
  for (std::size_t i = 0; i < N; ++i) {
    names[i] = family_name(prefix, table[i]);
    registry.family(names[i], table[i].help, table[i].kind);
  }
  registry.collector([rows = &table, names = std::move(names),
                      labels = std::move(labels),
                      read = std::move(read)](std::vector<Sample>& out) {
    decltype(auto) s = read();
    for (std::size_t i = 0; i < N; ++i)
      out.push_back(
          {names[i], labels, static_cast<double>(field_value(s, (*rows)[i]))});
  });
}

}  // namespace wsc::obs

// Small string helpers used across the HTTP, XML and cache layers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace wsc::util {

/// Remove leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// Split on a single-character separator; empty fields are kept.
std::vector<std::string> split(std::string_view s, char sep);

/// Join with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// ASCII case-insensitive equality (HTTP header names).
bool iequals(std::string_view a, std::string_view b);

/// ASCII lower-casing.
std::string to_lower(std::string_view s);

/// True if `s` starts with / ends with `prefix` / `suffix`.
bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

/// Append-style formatters: to_chars into a stack buffer, then append to
/// `out` — no temporary string, so a caller reusing `out`'s capacity pays
/// zero heap allocations (the cache-key fast path).  Integers match
/// std::to_string; a double is the shortest text that round-trips, as
/// SOAP emits xsd:double values.
void append_i64(std::string& out, std::int64_t v);
void append_double(std::string& out, double v);

/// Strict integer parse; throws wsc::ParseError on garbage or overflow.
std::int64_t parse_i64(std::string_view s);
std::int32_t parse_i32(std::string_view s);
double parse_double(std::string_view s);
bool parse_bool(std::string_view s);  // accepts "true"/"false"/"1"/"0"

}  // namespace wsc::util

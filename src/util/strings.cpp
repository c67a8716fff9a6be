#include "util/strings.hpp"

#include <cctype>
#include <charconv>
#include <cstdint>

#include "util/error.hpp"

namespace wsc::util {

namespace {
bool is_ws(char c) { return c == ' ' || c == '\t' || c == '\r' || c == '\n'; }
}  // namespace

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && is_ws(s[b])) ++b;
  while (e > b && is_ws(s[e - 1])) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i])))
      return false;
  }
  return true;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

void append_i64(std::string& out, std::int64_t v) {
  char buf[32];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;  // 32 bytes always suffice for a 64-bit integer
  out.append(buf, ptr);
}

void append_double(std::string& out, double v) {
  char buf[64];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc{}) throw Error("append_double failed");
  out.append(buf, ptr);
}

std::int64_t parse_i64(std::string_view s) {
  s = trim(s);
  std::int64_t v = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size())
    throw ParseError("invalid integer: '" + std::string(s) + "'");
  return v;
}

std::int32_t parse_i32(std::string_view s) {
  std::int64_t v = parse_i64(s);
  if (v < INT32_MIN || v > INT32_MAX)
    throw ParseError("integer out of int32 range: " + std::string(s));
  return static_cast<std::int32_t>(v);
}

double parse_double(std::string_view s) {
  s = trim(s);
  double v = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size())
    throw ParseError("invalid double: '" + std::string(s) + "'");
  return v;
}

bool parse_bool(std::string_view s) {
  s = trim(s);
  if (s == "true" || s == "1") return true;
  if (s == "false" || s == "0") return false;
  throw ParseError("invalid boolean: '" + std::string(s) + "'");
}

}  // namespace wsc::util

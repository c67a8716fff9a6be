#include "xml/escape.hpp"

#include <array>

#include "util/error.hpp"

namespace wsc::xml {

namespace {

/// The character references the escapers emit.  An escape table maps
/// each byte to 0 (copied verbatim) or to 1 + its reference's index here.
constexpr std::array<std::string_view, 7> kReferences = {
    "&amp;", "&lt;", "&gt;", "&quot;", "&#10;", "&#9;", "&#13;"};

using EscapeTable = std::array<std::uint8_t, 256>;

constexpr EscapeTable make_escape_table(bool attribute) {
  EscapeTable table{};
  table['&'] = 1;
  table['<'] = 2;
  table['>'] = 3;
  if (attribute) {
    // Attribute-value normalization would turn raw newline, tab and CR
    // into spaces, so they travel as character references.
    table['"'] = 4;
    table['\n'] = 5;
    table['\t'] = 6;
    table['\r'] = 7;
  }
  return table;
}

constexpr EscapeTable kTextEscapes = make_escape_table(false);
constexpr EscapeTable kAttributeEscapes = make_escape_table(true);

/// Append `s` to `out`, replacing each byte `table` maps to a reference.
/// The runs between replacements are appended whole.
void append_escaped(std::string& out, std::string_view s,
                    const EscapeTable& table) {
  const char* run = s.data();
  const char* const end = run + s.size();
  for (const char* p = run; p != end; ++p) {
    const std::uint8_t ref = table[static_cast<unsigned char>(*p)];
    if (ref == 0) [[likely]]
      continue;
    out.append(run, static_cast<std::size_t>(p - run));
    out.append(kReferences[ref - 1]);
    run = p + 1;
  }
  out.append(run, static_cast<std::size_t>(end - run));
}

[[noreturn]] void reference_error(const std::string& msg, std::size_t offset) {
  throw ParseError("XML: " + msg, offset);
}

}  // namespace

void append_escaped_text(std::string& out, std::string_view s) {
  append_escaped(out, s, kTextEscapes);
}

void append_escaped_attribute(std::string& out, std::string_view s) {
  append_escaped(out, s, kAttributeEscapes);
}

std::string escape_text(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_escaped_text(out, s);
  return out;
}

std::string escape_attribute(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_escaped_attribute(out, s);
  return out;
}

void append_utf8(std::string& out, std::uint32_t cp) {
  if (cp <= 0x7F) {
    out.push_back(static_cast<char>(cp));
  } else if (cp <= 0x7FF) {
    out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp <= 0xFFFF) {
    out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp <= 0x10FFFF) {
    out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    throw ParseError("code point out of Unicode range");
  }
}

std::size_t append_reference(std::string& out, std::string_view s,
                             std::size_t i, std::size_t base) {
  const std::size_t at = base + i;
  auto end = s.find(';', i + 1);
  if (end == std::string_view::npos)
    reference_error("unterminated entity reference", at);
  std::string_view name = s.substr(i + 1, end - i - 1);
  if (name == "amp") out.push_back('&');
  else if (name == "lt") out.push_back('<');
  else if (name == "gt") out.push_back('>');
  else if (name == "apos") out.push_back('\'');
  else if (name == "quot") out.push_back('"');
  else if (!name.empty() && name[0] == '#') {
    std::uint32_t cp = 0;
    bool hex = name.size() > 1 && (name[1] == 'x' || name[1] == 'X');
    std::string_view digits = name.substr(hex ? 2 : 1);
    if (digits.empty()) reference_error("empty character reference", at);
    for (char d : digits) {
      std::uint32_t v;
      if (d >= '0' && d <= '9') v = static_cast<std::uint32_t>(d - '0');
      else if (hex && d >= 'a' && d <= 'f') v = static_cast<std::uint32_t>(d - 'a' + 10);
      else if (hex && d >= 'A' && d <= 'F') v = static_cast<std::uint32_t>(d - 'A' + 10);
      else reference_error("bad digit in character reference", at);
      cp = cp * (hex ? 16 : 10) + v;
      if (cp > 0x10FFFF) reference_error("character reference out of range", at);
    }
    append_utf8(out, cp);
  } else {
    reference_error("unknown entity '&" + std::string(name) + ";'", at);
  }
  return end + 1;
}

void unescape_append(std::string& out, std::string_view s, std::size_t base) {
  std::size_t run = 0;
  for (std::size_t i = s.find('&'); i != std::string_view::npos;
       i = s.find('&', run)) {
    out.append(s.data() + run, i - run);
    run = append_reference(out, s, i, base);
  }
  out.append(s.data() + run, s.size() - run);
}

std::string unescape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  unescape_append(out, s);
  return out;
}

}  // namespace wsc::xml

// XML text/attribute escaping and entity expansion.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace wsc::xml {

/// Append character data to `out` with & < > escaped (everything else
/// verbatim).  Unescaped runs are appended whole, not byte by byte.
void append_escaped_text(std::string& out, std::string_view s);

/// Append a value for a double-quoted attribute to `out`: & < > " plus
/// newline/tab/CR as character references (attribute-value normalization
/// would otherwise turn them into spaces).
void append_escaped_attribute(std::string& out, std::string_view s);

/// The same escapes, returned as new strings.
std::string escape_text(std::string_view s);
std::string escape_attribute(std::string_view s);

/// Append the expansion of `s` to `out`: the five predefined entities
/// (&amp; &lt; &gt; &apos; &quot;) and numeric character references (&#NN;
/// &#xHH;, emitted as UTF-8).  Throws wsc::ParseError on an unknown or
/// malformed reference; its offset is `base` plus the position of the
/// reference's '&' in `s`, so a parser passing the document offset of `s`
/// gets document offsets.
void unescape_append(std::string& out, std::string_view s, std::size_t base = 0);

/// Append the expansion of the one reference starting at s[i] (an '&') to
/// `out` and return the index just past its ';'.  Errors as for
/// unescape_append(), at offset `base + i`.
std::size_t append_reference(std::string& out, std::string_view s,
                             std::size_t i, std::size_t base = 0);

/// unescape_append() into a new string.
std::string unescape(std::string_view s);

/// Append a Unicode code point as UTF-8.
void append_utf8(std::string& out, std::uint32_t cp);

}  // namespace wsc::xml

#include "http/message.hpp"

#include <charconv>

#include "util/strings.hpp"

namespace wsc::http {

void Headers::set(std::string name, std::string value) {
  for (auto& [n, v] : items_) {
    if (util::iequals(n, name)) {
      v = std::move(value);
      return;
    }
  }
  items_.emplace_back(std::move(name), std::move(value));
}

void Headers::add(std::string name, std::string value) {
  items_.emplace_back(std::move(name), std::move(value));
}

std::optional<std::string_view> Headers::get(std::string_view name) const {
  for (const auto& [n, v] : items_) {
    if (util::iequals(n, name)) return std::string_view(v);
  }
  return std::nullopt;
}

namespace {

constexpr std::string_view kContentLength = "Content-Length";

// The decimal digits of `v`, written into `buf`.
template <class T>
std::string_view decimal(char (&buf)[24], T v) {
  const char* end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
  return {buf, static_cast<std::size_t>(end - buf)};
}

// "<a> <b> <c>\r\n", the headers, Content-Length unless one is set, a
// blank line and the body: sized first, then appended into one buffer.
std::string serialize(std::string_view a, std::string_view b,
                      std::string_view c, const Headers& headers,
                      std::string_view body) {
  char digits[24];
  std::string_view length;  // the added Content-Length value, if any
  if (!headers.contains(kContentLength)) length = decimal(digits, body.size());
  std::size_t size = a.size() + b.size() + c.size() + 4 + 2 + body.size();
  for (const auto& [n, v] : headers.all()) size += n.size() + v.size() + 4;
  if (!length.empty()) size += kContentLength.size() + length.size() + 4;

  std::string out;
  out.reserve(size);
  out.append(a).append(" ").append(b).append(" ").append(c).append("\r\n");
  for (const auto& [n, v] : headers.all())
    out.append(n).append(": ").append(v).append("\r\n");
  if (!length.empty())
    out.append(kContentLength).append(": ").append(length).append("\r\n");
  out.append("\r\n").append(body);
  return out;
}

}  // namespace

std::string Request::to_bytes() const {
  return serialize(method, target, "HTTP/1.1", headers, body);
}

std::string Response::to_bytes() const {
  char digits[24];
  return serialize("HTTP/1.1", decimal(digits, status),
                   reason.empty() ? reason_phrase(status) : reason, headers,
                   body);
}

std::string_view reason_phrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 202: return "Accepted";
    case 204: return "No Content";
    case 304: return "Not Modified";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Content Too Large";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

bool request_keep_alive(const Request& request) {
  auto conn = request.headers.get("Connection");
  if (request.minor_version == 0)
    return conn && util::iequals(*conn, "keep-alive");
  return !(conn && util::iequals(*conn, "close"));
}

}  // namespace wsc::http

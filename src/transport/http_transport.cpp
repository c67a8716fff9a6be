#include "transport/http_transport.hpp"

#include "util/error.hpp"

namespace wsc::transport {

namespace {
std::string pool_key(const std::string& host, std::uint16_t port) {
  return host + ":" + std::to_string(port);
}
}  // namespace

HttpTransport::ConnPtr HttpTransport::acquire(const std::string& host,
                                              std::uint16_t port) {
  {
    std::lock_guard lock(mu_);
    auto it = idle_.find(pool_key(host, port));
    if (it != idle_.end() && !it->second.empty()) {
      ConnPtr conn = std::move(it->second.back());
      it->second.pop_back();
      return conn;
    }
  }
  return std::make_unique<http::HttpConnection>(host, port, options_.socket);
}

void HttpTransport::release(ConnPtr conn) {
  std::lock_guard lock(mu_);
  idle_[pool_key(conn->host(), conn->port())].push_back(std::move(conn));
}

WireResponse HttpTransport::post(const util::Uri& endpoint,
                                 const WireRequest& wire_request) {
  if (endpoint.scheme != "http")
    throw TransportError("HttpTransport: unsupported scheme '" +
                             endpoint.scheme + "'",
                         /*retryable=*/false);
  http::Request request;
  request.method = "POST";
  request.target = endpoint.path;
  request.headers.set("Host", endpoint.host);
  request.headers.set("Content-Type", "text/xml; charset=utf-8");
  request.headers.set("SOAPAction", "\"" + wire_request.soap_action + "\"");
  if (wire_request.if_modified_since) {
    request.headers.set(
        "If-Modified-Since",
        http::format_http_date(*wire_request.if_modified_since));
  }
  request.body = wire_request.body;

  // A round trip that throws drops the connection: one in an unknown state
  // is never pooled.
  ConnPtr conn = acquire(endpoint.host, endpoint.effective_port());
  http::Response response = conn->round_trip(request);
  release(std::move(conn));

  // SOAP/1.1 over HTTP: faults arrive as 500 with an envelope body, which
  // the deserializer upgrades to SoapFault; 304 answers conditional
  // requests; other statuses are transport errors.
  if (response.status != 200 && response.status != 304 &&
      response.status != 500)
    throw HttpError(response.status, "unexpected status from " + endpoint.to_string());
  WireResponse out;
  out.body = std::move(response.body);
  out.directives = http::cache_directives(response);
  out.not_modified = response.status == 304;
  if (auto lm = response.headers.get("Last-Modified"))
    out.last_modified = http::parse_http_date(*lm);
  return out;
}

}  // namespace wsc::transport

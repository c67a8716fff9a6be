// SOAP-over-HTTP transport with a keep-alive connection pool.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "http/client.hpp"
#include "transport/transport.hpp"

namespace wsc::transport {

class HttpTransport final : public Transport {
 public:
  struct Options {
    /// Socket deadlines applied to every pooled connection (zero = no
    /// bound).  Wrap this transport in a RetryingTransport to turn the
    /// resulting TimeoutErrors into bounded retries.
    http::SocketOptions socket;
  };

  HttpTransport() = default;
  explicit HttpTransport(Options options) : options_(options) {}

  WireResponse post(const util::Uri& endpoint,
                    const WireRequest& request) override;
  using Transport::post;

  const Options& options() const noexcept { return options_; }

 private:
  using ConnPtr = std::unique_ptr<http::HttpConnection>;

  /// Borrow an idle pooled connection to host:port (or open a new one).
  ConnPtr acquire(const std::string& host, std::uint16_t port);
  void release(ConnPtr conn);

  Options options_;
  std::mutex mu_;
  std::unordered_map<std::string, std::vector<ConnPtr>> idle_;
};

}  // namespace wsc::transport

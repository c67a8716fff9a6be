#include "services/google/stub.hpp"

namespace wsc::services::google {

using reflect::Object;
using soap::Parameter;

cache::CachePolicy default_google_policy(cache::Representation representation,
                                         std::chrono::milliseconds ttl) {
  cache::CachePolicy policy;
  for (const char* op :
       {"doSpellingSuggestion", "doGetCachedPage", "doGoogleSearch"}) {
    policy.cacheable(op, ttl, representation);
  }
  return policy;
}

GoogleClient::GoogleClient(std::shared_ptr<transport::Transport> transport,
                           std::string endpoint_url,
                           std::shared_ptr<cache::ResponseCache> response_cache,
                           cache::CachingServiceClient::Options options)
    : client_(std::move(transport), google_description(),
              std::move(endpoint_url), std::move(response_cache),
              std::move(options)) {}

std::string GoogleClient::doSpellingSuggestion(const std::string& phrase) {
  return client_
      .invoke("doSpellingSuggestion", {Parameter{"key", Object::make(key_)},
                                       Parameter{"phrase", Object::make(phrase)}})
      .take<std::string>();
}

std::vector<std::uint8_t> GoogleClient::doGetCachedPage(const std::string& url) {
  return client_
      .invoke("doGetCachedPage", {Parameter{"key", Object::make(key_)},
                                  Parameter{"url", Object::make(url)}})
      .take<std::vector<std::uint8_t>>();
}

GoogleSearchResult GoogleClient::doGoogleSearch(
    const std::string& q, std::int32_t start, std::int32_t max_results,
    bool filter, const std::string& restrict, bool safe_search,
    const std::string& lr, const std::string& ie, const std::string& oe) {
  // take() hands the application its own value either way: it moves out
  // of the object a copying representation just built for this call, and
  // copies out of a pass-by-reference entry the cache still shares.
  // Callers needing zero-copy semantics use middleware().invoke() directly.
  return client_
      .invoke("doGoogleSearch",
              {Parameter{"key", Object::make(key_)},
               Parameter{"q", Object::make(q)},
               Parameter{"start", Object::make(start)},
               Parameter{"maxResults", Object::make(max_results)},
               Parameter{"filter", Object::make(filter)},
               Parameter{"restrict", Object::make(restrict)},
               Parameter{"safeSearch", Object::make(safe_search)},
               Parameter{"lr", Object::make(lr)},
               Parameter{"ie", Object::make(ie)},
               Parameter{"oe", Object::make(oe)}})
      .take<GoogleSearchResult>();
}

}  // namespace wsc::services::google

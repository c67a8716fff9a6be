// CachingServiceClient: the Web-services client middleware stub with the
// transparent response cache of Figure 1.
//
// The user application calls invoke(operation, params) exactly as it would
// on an uncached Axis stub; caching is configured by the administrator via
// CachePolicy and is invisible to the application ("the response cache can
// be used without any changes to the user client application").
//
// Per-call pipeline:
//   1. look the operation up in the WSDL contract,
//   2. policy check — uncacheable operations go straight to the wire,
//   3. generate the cache key with the configured KeyMethod,
//   4. hit  -> CachedValue::retrieve() (the Table 7 cost),
//   5. miss -> serialize, POST via the Transport, parse the reply —
//      teeing the parse into a CompactEventRecorder when the SAX
//      representation will be stored, so the miss path never parses twice —
//      store in the resolved representation, return the fresh object.
#pragma once

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "core/cache_key.hpp"
#include "core/cached_value.hpp"
#include "core/policy.hpp"
#include "core/refresh_queue.hpp"
#include "core/response_cache.hpp"
#include "obs/profiles.hpp"
#include "obs/trace.hpp"
#include "soap/message.hpp"
#include "transport/transport.hpp"
#include "util/uri.hpp"
#include "wsdl/description.hpp"

namespace wsc::transport {
class RetryingTransport;
}

namespace wsc::cache {

class AdaptivePolicy;

/// Fold RetryingTransport events (retries, breaker opens/probes, deadline
/// hits) into the cache's CacheStats counters so one snapshot tells the
/// whole availability story.  The listener closures co-own the cache, so
/// the counters cannot dangle if the cache is released before the
/// transport (the old `CacheStats&` signature's lifetime footgun).
void bind_transport_stats(transport::RetryingTransport& transport,
                          std::shared_ptr<ResponseCache> cache);

class CachingServiceClient {
 public:
  struct Options {
    KeyMethod key_method = KeyMethod::ToString;
    CachePolicy policy;
    bool caching_enabled = true;
    /// Live cost-model feed (null = off), fed the finished CallTrace
    /// record of every sampled call — the same stage totals the tracer
    /// publishes.  Misses are always sampled (the wire dwarfs it).
    std::shared_ptr<obs::CostProfiles> profiles;
    /// Every `profile_sample_every`-th cacheable call per thread times
    /// its hit's Retrieve stage as one sample weighing the period; the
    /// common hit pays only a thread-local tick.
    std::uint32_t profile_sample_every = 64;
    /// Adaptive representation selection (DESIGN.md §13, null = off).
    /// Consulted only for operations whose policy representation is Auto:
    /// the trait-based auto_select choice seeds the policy, then live
    /// cost-model feedback (shadow probes on sampled stores) steers it.
    /// Implies profiles: when unset, `profiles` is taken from the policy
    /// so the feedback loop always has a feed.
    std::shared_ptr<AdaptivePolicy> adaptive;
    /// Miss-path calls slower than this (by their CallTrace's elapsed
    /// time) emit a SlowCall event to obs::event_log(); 0 disables.
    /// Hit-path latency is never checked here (a hit cannot be wire-slow).
    std::uint64_t slow_call_threshold_ns = 0;
    /// Single-flight miss coalescing: concurrent identical misses share
    /// ONE backend call — the first caller leads, the rest park on the
    /// leader's flight.  Disabled, every miss makes its own wire call.
    bool coalesce_misses = true;
    /// How long a follower waits for its leader before giving up (a
    /// FlightWait::Timeout falls back to stale-if-error, else throws
    /// TimeoutError).  Each follower applies its own deadline.
    std::chrono::milliseconds coalesce_wait{5000};
  };

  /// `description` is shared because cache entries (XML / SAX
  /// representations) reference its OperationInfos and may outlive this
  /// stub.
  CachingServiceClient(std::shared_ptr<transport::Transport> transport,
                       std::shared_ptr<const wsdl::ServiceDescription> description,
                       std::string endpoint_url,
                       std::shared_ptr<ResponseCache> cache, Options options);
  /// Joins the background refresh worker (pending refreshes whose flights
  /// were never run are failed, releasing any parked followers).
  ~CachingServiceClient();

  /// Invoke an operation.  Returns the response application object (null
  /// for void operations).  Throws:
  ///   soap::SoapFault        - server-side fault
  ///   wsc::TransportError    - delivery failure
  ///   wsc::SerializationError - configured key method / representation
  ///                             cannot handle the operation's types
  reflect::Object invoke(const std::string& operation,
                         std::vector<soap::Parameter> params);

  /// The key this client would use for a request (exposed for explicit
  /// invalidation and for the key benchmarks).
  CacheKey key_for(const std::string& operation,
                   const std::vector<soap::Parameter>& params) const;

  /// Drop the cached entry for one exact request; true if present.
  bool invalidate(const std::string& operation,
                  const std::vector<soap::Parameter>& params);

  ResponseCache& cache() noexcept { return *cache_; }
  const wsdl::ServiceDescription& description() const noexcept {
    return *description_;
  }
  const std::string& endpoint() const noexcept { return endpoint_url_; }
  void set_caching_enabled(bool enabled) noexcept {
    options_.caching_enabled = enabled;
  }

 private:
  struct CallResult {
    reflect::Object object;
    std::string response_xml;
    xml::CompactEventSequence events;  // filled when recording events
    http::CacheDirectives directives;
    bool not_modified = false;  // 304 answer to a conditional request
    std::optional<std::chrono::seconds> last_modified;
  };

  /// `record_events` tees the parse into a recorder, decided per
  /// representation BEFORE parsing so the response is never tokenized twice.
  CallResult remote_call(
      obs::CallTrace& trace, const soap::RpcRequest& request,
      const wsdl::OperationInfo& op, bool record_events,
      std::optional<std::chrono::seconds> if_modified_since = std::nullopt);

  /// Degraded mode: after the wire call failed for good, serve an
  /// expired-but-present entry if the operation's stale-if-error grace
  /// covers it.  Returns nullopt when the policy (or the cache) cannot
  /// absorb the failure — the caller rethrows.
  std::optional<reflect::Object> serve_stale_on_error(
      obs::CallTrace& trace, const std::string& operation, const CacheKey& key,
      const OperationPolicy& policy);

  /// Representation resolution, shared by the foreground miss path and
  /// background refreshes.  Starts from the static (WSDL trait) choice;
  /// when the adaptive policy is wired and the operation's configured
  /// representation is Auto, the policy's current choice wins and may
  /// additionally request a shadow probe of an alternative.  Throws
  /// SerializationError when the administrator configured an
  /// inapplicable representation.
  struct ResolvedRepresentation {
    Representation representation = Representation::Auto;
    Representation probe = Representation::Auto;  // Auto = no probe
  };
  ResolvedRepresentation resolve_representation(
      const OperationPolicy& policy, const wsdl::OperationInfo& op,
      const std::string& operation) const;

  /// Shadow probe (adaptive exploration): build `probe`'s CachedValue
  /// from the already-captured response, time its capture and one
  /// retrieve, measure its bytes, and feed CostProfiles::record_probe.
  /// Never serves, never stores, never throws — a probe failure only
  /// means no sample.  Rides the miss path, where the wire round trip
  /// dwarfs the extra capture.
  void run_probe(const wsdl::OperationInfo& op, const std::string& operation,
                 Representation probe, const CallResult& result,
                 const CacheKey& key);

  /// Leader-side RAII over a single-flight handle (defined in the .cpp).
  class FlightGuard;

  /// Arrange ONE asynchronous refresh of `key` (SWR and refresh-ahead).
  /// Returns true when a refresh is now running or already was in flight;
  /// false when none will happen (queue saturated or flights shut down) —
  /// the caller must fall back to a synchronous call or let the entry
  /// expire.  The refresh runs fetch_and_store() on the RefreshQueue
  /// worker.
  bool schedule_refresh(const soap::RpcRequest& request,
                        const wsdl::OperationInfo& op,
                        const OperationPolicy& policy, const CacheKey& key);

  /// What fetch_and_store() ended with.
  struct Fetched {
    /// The stored or renewed entry's value; null when directives
    /// suppressed the store.
    std::shared_ptr<const CachedValue> value;
    reflect::Object object;    // the fresh answer (empty after a 304)
    bool revalidated = false;  // 304: `value` is the renewed entry
  };

  /// The one fetch-and-store of the foreground miss path and background
  /// refreshes: wire call (conditional when `since` is set); on 304, renew
  /// the entry with refresh() and hand back its value, refetching
  /// unconditionally if it vanished; otherwise store under the policy's
  /// effective TTL.  Then complete `guard`'s flight (if any), put the
  /// entry's bytes on the trace and run any shadow probe.  The caller
  /// labels the fetch (Miss or Refresh).  Throws on wire, parse and SOAP
  /// failures.
  Fetched fetch_and_store(obs::CallTrace& trace,
                          const soap::RpcRequest& request,
                          const wsdl::OperationInfo& op,
                          const OperationPolicy& policy, const CacheKey& key,
                          const ResolvedRepresentation& resolved,
                          std::optional<std::chrono::seconds> since,
                          FlightGuard* guard);

  soap::RpcRequest build_request(const std::string& operation,
                                 std::vector<soap::Parameter> params) const;

  std::shared_ptr<const wsdl::OperationInfo> share_op(
      const wsdl::OperationInfo& op) const;

  std::shared_ptr<transport::Transport> transport_;
  std::shared_ptr<const wsdl::ServiceDescription> description_;
  std::string endpoint_url_;
  util::Uri endpoint_;
  std::shared_ptr<ResponseCache> cache_;
  Options options_;
  std::unique_ptr<KeyGenerator> keygen_;
  /// Declared LAST so it is destroyed FIRST: background refresh jobs use
  /// every other member, and the queue's destructor joins the worker
  /// before any of them can die.
  RefreshQueue refresh_queue_;
};

}  // namespace wsc::cache

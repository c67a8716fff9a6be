#include "core/client.hpp"

#include "core/adaptive_policy.hpp"
#include "obs/events.hpp"
#include "soap/deserializer.hpp"
#include "soap/serializer.hpp"
#include "transport/retry.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "xml/sax_parser.hpp"

namespace wsc::cache {

namespace {

/// The soft TTL store()/refresh() arm for an operation: the configured
/// fraction of the hard TTL, or zero (disabled) outside (0, 1).
std::chrono::milliseconds soft_ttl_for(const OperationPolicy& policy) {
  if (policy.refresh_ahead <= 0.0 || policy.refresh_ahead >= 1.0)
    return std::chrono::milliseconds(0);
  return std::chrono::milliseconds(static_cast<std::chrono::milliseconds::rep>(
      static_cast<double>(policy.ttl.count()) * policy.refresh_ahead));
}

/// The common tail of every serve from a cached value (hit, stale-while-
/// revalidate, coalesced follower, raced leader, 304, stale-on-error):
/// label the trace, then one timed retrieve().
reflect::Object serve(obs::CallTrace& trace, const CachedValue& value,
                      obs::Outcome outcome) {
  trace.set_representation(representation_name(value.representation()));
  trace.set_outcome(outcome);
  obs::StageTimer timer(trace, obs::Stage::Retrieve);
  return value.retrieve();
}

/// This thread's profile sampling tick: every `period`-th cacheable call
/// times its hit for the cost profile, weighing `period` calls; 0 = not
/// sampled.
std::uint64_t hit_sample_weight(std::uint32_t period) {
  thread_local std::uint32_t tick = 0;
  if (++tick < period) return 0;
  tick = 0;
  return period ? period : 1;
}

/// Whether a failed call is an availability failure that a stale-if-error
/// grace may absorb.  A SoapFault (or any other error) is the origin's
/// answer, not its absence.
bool origin_unavailable(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const HttpError& e) {
    // 5xx without a SOAP fault envelope: the origin itself is failing.
    return e.status() >= 500;
  } catch (const TransportError&) {
    // Retries, deadline, and breaker are all below us (RetryingTransport);
    // reaching here means the wire call failed for good.
    return true;
  } catch (const ParseError&) {
    // The origin answered, but with a document we cannot parse (truncated
    // or corrupt XML from a degrading server) — an availability failure
    // from the application's point of view, same as no answer at all.
    return true;
  } catch (...) {
    return false;
  }
}

}  // namespace

/// Leader-side RAII over a single-flight handle: the flight is finished
/// exactly once no matter how the leader's frame exits.  An armed guard
/// destroyed without an explicit outcome FAILS the flight (rather than
/// strand followers until their timeouts) — that covers abandoned
/// background-refresh closures and any other unwinding path.
class CachingServiceClient::FlightGuard {
 public:
  FlightGuard(ResponseCache& cache, ResponseCache::FlightHandle handle)
      : cache_(&cache), handle_(std::move(handle)) {}
  FlightGuard(const FlightGuard&) = delete;
  FlightGuard& operator=(const FlightGuard&) = delete;
  ~FlightGuard() {
    if (!armed_) return;
    cache_->fail_flight(handle_,
                        std::make_exception_ptr(TransportError(
                            "coalesced leader abandoned its call",
                            /*retryable=*/false)));
  }
  void complete(std::shared_ptr<const CachedValue> value) {
    if (armed_) cache_->complete_flight(handle_, std::move(value));
    armed_ = false;
  }
  void fail(std::exception_ptr error) {
    if (armed_) cache_->fail_flight(handle_, std::move(error));
    armed_ = false;
  }

 private:
  ResponseCache* cache_;
  ResponseCache::FlightHandle handle_;
  bool armed_ = true;
};

void bind_transport_stats(transport::RetryingTransport& transport,
                          std::shared_ptr<ResponseCache> cache) {
  if (!cache) throw Error("bind_transport_stats: null cache");
  transport::RetryingTransport::Listener listener;
  // Each closure co-owns the cache: a transport that outlives the cache's
  // other owners keeps the counters it writes to alive.
  listener.on_retry = [cache] {
    cache->counters().add(&StatsSnapshot::transport_retries);
  };
  // Breaker transitions and deadline hits are rare, load-bearing state
  // changes: counted AND logged as structured events.
  listener.on_breaker_open = [cache] {
    cache->counters().add(&StatsSnapshot::breaker_opens);
    obs::event_log().emit(obs::EventKind::BreakerOpen, "transport",
                          "circuit breaker opened after repeated failures");
  };
  listener.on_breaker_probe = [cache] {
    cache->counters().add(&StatsSnapshot::breaker_probes);
    obs::event_log().emit(obs::EventKind::BreakerProbe, "transport",
                          "half-open probe call admitted");
  };
  listener.on_deadline_hit = [cache] {
    cache->counters().add(&StatsSnapshot::deadline_hits);
    obs::event_log().emit(obs::EventKind::DeadlineHit, "transport",
                          "per-call deadline exceeded");
  };
  transport.set_listener(std::move(listener));
}

CachingServiceClient::CachingServiceClient(
    std::shared_ptr<transport::Transport> transport,
    std::shared_ptr<const wsdl::ServiceDescription> description,
    std::string endpoint_url, std::shared_ptr<ResponseCache> cache,
    Options options)
    : transport_(std::move(transport)),
      description_(std::move(description)),
      endpoint_url_(std::move(endpoint_url)),
      endpoint_(util::Uri::parse(endpoint_url_)),
      cache_(std::move(cache)),
      options_(std::move(options)),
      keygen_(make_key_generator(options_.key_method)) {
  if (!transport_) throw Error("CachingServiceClient: null transport");
  if (!description_) throw Error("CachingServiceClient: null description");
  if (!cache_) throw Error("CachingServiceClient: null cache");
  if (options_.adaptive) {
    // The loop needs a feed: share the policy's profile registry unless
    // the caller wired an explicit one, and give the policy the cache's
    // live byte footprint as its memory-pressure signal.
    if (!options_.profiles) options_.profiles = options_.adaptive->profiles();
    options_.adaptive->bind_cache(cache_);
  }
}

CachingServiceClient::~CachingServiceClient() {
  // Explicit (though refresh_queue_ is also declared last): join the
  // background worker before any member a pending job references dies.
  // Never-run jobs are destroyed, which fails their flights via the
  // FlightGuards the closures co-own.
  refresh_queue_.stop();
}

soap::RpcRequest CachingServiceClient::build_request(
    const std::string& operation, std::vector<soap::Parameter> params) const {
  soap::RpcRequest request;
  request.endpoint = endpoint_url_;
  request.ns = description_->target_namespace();
  request.operation = operation;
  request.params = std::move(params);
  return request;
}

std::shared_ptr<const wsdl::OperationInfo> CachingServiceClient::share_op(
    const wsdl::OperationInfo& op) const {
  // Aliasing share: co-owns the ServiceDescription, points at one op.
  return std::shared_ptr<const wsdl::OperationInfo>(description_, &op);
}

CacheKey CachingServiceClient::key_for(
    const std::string& operation,
    const std::vector<soap::Parameter>& params) const {
  return keygen_->generate(build_request(operation, params));
}

bool CachingServiceClient::invalidate(
    const std::string& operation, const std::vector<soap::Parameter>& params) {
  return cache_->invalidate(key_for(operation, params));
}

reflect::Object CachingServiceClient::invoke(
    const std::string& operation, std::vector<soap::Parameter> params) {
  const wsdl::OperationInfo& op = description_->require_operation(operation);
  if (params.size() != op.params.size())
    throw Error("operation '" + operation + "' expects " +
                std::to_string(op.params.size()) + " parameters, got " +
                std::to_string(params.size()));

  // Timed from here only when obs::tracer() is enabled (a branch on a
  // relaxed load); the sampling decision below may time the rest.
  obs::CallTrace trace(description_->name(), operation);

  soap::RpcRequest request = build_request(operation, std::move(params));
  const OperationPolicy& policy = options_.policy.lookup(operation);

  if (!options_.caching_enabled || !policy.cacheable) {
    cache_->counters().add(&StatsSnapshot::uncacheable);
    trace.set_outcome(obs::Outcome::Uncacheable);
    return remote_call(trace, request, op, /*record_events=*/false).object;
  }

  // The one sampling decision.  A call the tracer publishes is timed from
  // the start.  Otherwise a hit is timed only on the profile tick, from its
  // Retrieve stage on (the one representation-dependent part, Table 7),
  // and a call that leaves the hit path is timed whenever profiles or the
  // slow-call watchdog want it.  Unsampled hits read no clock.
  obs::CostProfiles* const profiles = options_.profiles.get();
  const std::uint64_t hit_weight =
      profiles ? hit_sample_weight(options_.profile_sample_every) : 0;

  // Zero-allocation keygen fast path: the key material is built into a
  // per-thread reusable scratch (no owned CacheKey, no heap traffic once
  // the buffer capacity has warmed up), and the cache is probed with the
  // borrowed ref.  The owned key is only materialized on the slow paths
  // (miss/store/stale handling), where a wire round trip dwarfs the copy.
  // thread_local rather than a member so one client shared by concurrent
  // callers (integration/concurrency_test) stays race-free.
  thread_local KeyScratch scratch;
  {
    obs::StageTimer timer(trace, obs::Stage::KeyGen);
    keygen_->generate_into(request, scratch);
  }
  const bool swr_on = policy.staleness.stale_while_revalidate.count() > 0;
  // Revalidation (§3.2 HTTP hook): a stale entry with a Last-Modified may
  // be renewed by a conditional request instead of refetched.  A
  // stale-if-error grace needs the stale-exposing lookup too: the Fresh
  // lookup eagerly evicts an expired entry, which would destroy the
  // degraded-mode fallback before the wire call gets a chance to fail.
  // stale-while-revalidate needs it for the same reason, and refresh-ahead
  // needs it because only a Stale lookup can win the soft-TTL claim.
  const bool needs_stale = policy.revalidate || swr_on ||
                           policy.staleness.stale_if_error.count() > 0 ||
                           policy.refresh_ahead > 0.0;
  const ResponseCache::LookupResult found = [&] {
    obs::StageTimer timer(trace, obs::Stage::Lookup);
    return cache_->lookup(scratch.ref(), needs_stale
                                             ? ResponseCache::Lookup::Stale
                                             : ResponseCache::Lookup::Fresh);
  }();
  if (found.fresh) {
    if (hit_weight) [[unlikely]]
      trace.sample_into(profiles, hit_weight);
    reflect::Object object = serve(trace, *found.value, obs::Outcome::Hit);
    if (found.refresh_ahead) {
      // This hit won the entry's one-shot soft-TTL claim: renew the entry
      // in the background before it ever expires.  If scheduling fails
      // (queue saturated, flights down), nothing is lost — the entry
      // simply expires and the next miss fetches synchronously.
      cache_->counters().add(&StatsSnapshot::refresh_ahead_triggered);
      obs::event_log().emit(obs::EventKind::RefreshAhead,
                            description_->name() + "." + operation,
                            "soft TTL elapsed; refreshing ahead of expiry");
      schedule_refresh(request, op, policy, scratch.to_key());
    }
    return object;
  }
  // Off the hit path: time the rest for the profile and the watchdog.
  if (profiles || options_.slow_call_threshold_ns)
    trace.sample_into(profiles, 1);
  // Only a Stale lookup exposes an expired entry.
  const bool had_stale_entry = found.value != nullptr;
  std::optional<std::chrono::seconds> revalidate_since;
  if (had_stale_entry) {
    // RFC 5861 stale-while-revalidate: the entry expired within the grace,
    // so serve it NOW and let one background refresh renew it — a
    // TTL-expiry storm on a hot key never parks callers on the wire.  If
    // no refresh will run, fall through to the synchronous miss path.
    if (swr_on &&
        found.staleness <= policy.staleness.stale_while_revalidate &&
        schedule_refresh(request, op, policy, scratch.to_key())) {
      cache_->counters().add(&StatsSnapshot::stale_while_revalidate_served);
      return serve(trace, *found.value, obs::Outcome::StaleRevalidate);
    }
    if (policy.revalidate) revalidate_since = found.last_modified;
  }

  // Miss path from here on: materialize the owned key once.
  CacheKey key = scratch.to_key();

  // Resolve the representation — static WSDL traits, steered by the
  // adaptive policy when wired — so the miss path knows before parsing
  // whether to tee the events.
  const ResolvedRepresentation resolved =
      resolve_representation(policy, op, operation);
  trace.set_representation(representation_name(resolved.representation));

  // Single-flight: join (or open) this key's in-flight call.  First joiner
  // leads and makes the wire call below; everyone else parks here.
  ResponseCache::FlightHandle flight;
  if (options_.coalesce_misses) flight = cache_->join_flight(key.ref());
  if (flight && !flight.leader) {
    ResponseCache::FlightResult led =
        cache_->wait_flight(flight, options_.coalesce_wait);
    switch (led.outcome) {
      case ResponseCache::FlightWait::Value:
        // The leader stored a fresh entry and handed it over directly.
        if (had_stale_entry) cache_->counters().add(&StatsSnapshot::misses);
        return serve(trace, *led.value, obs::Outcome::Coalesced);
      case ResponseCache::FlightWait::Error:
        // The ONE broadcast failure.  Each follower makes its own
        // degraded-mode decision, exactly as if it had called and failed.
        if (std::optional<reflect::Object> fallback =
                serve_stale_on_error(trace, operation, key, policy))
          return *fallback;
        std::rethrow_exception(led.error);
      case ResponseCache::FlightWait::Timeout:
        // Our deadline, not the leader's: the leader may still succeed for
        // everyone else.  Degrade if the policy allows, else time out.
        if (std::optional<reflect::Object> fallback =
                serve_stale_on_error(trace, operation, key, policy))
          return *fallback;
        throw TimeoutError("timed out waiting for the in-flight call to '" +
                           operation + "'");
      case ResponseCache::FlightWait::Shutdown:
        throw Error("cache shut down while waiting for in-flight call to '" +
                    operation + "'");
      case ResponseCache::FlightWait::NoValue:
        break;  // leader's answer was not storable — make our own call
    }
    flight = {};  // NoValue: proceed uncoalesced
  }

  std::optional<FlightGuard> guard;
  if (flight && flight.leader) {
    // Close the lookup->join window: a previous leader may have completed
    // and stored between our miss and our winning leadership.  Peek so the
    // race check never pollutes hit/miss counts.
    ResponseCache::LookupResult raced =
        cache_->lookup(key.ref(), ResponseCache::Lookup::Peek);
    if (raced.fresh) {
      cache_->complete_flight(flight, raced.value);
      if (had_stale_entry) cache_->counters().add(&StatsSnapshot::misses);
      return serve(trace, *raced.value, obs::Outcome::Coalesced);
    }
    guard.emplace(*cache_, std::move(flight));
  }

  Fetched fetched;
  try {
    fetched = fetch_and_store(trace, request, op, policy, key, resolved,
                              revalidate_since, guard ? &*guard : nullptr);
  } catch (...) {
    // Broadcast the failure BEFORE degrading locally: followers wake with
    // the one error and make their own stale-if-error decisions.
    if (guard) guard->fail(std::current_exception());
    if (origin_unavailable(std::current_exception()))
      if (std::optional<reflect::Object> stale =
              serve_stale_on_error(trace, operation, key, policy))
        return *stale;
    throw;
  }
  if (fetched.revalidated) {
    // 304: the renewed entry answers this call as a hit.
    cache_->counters().add(&StatsSnapshot::hits);
    return serve(trace, *fetched.value, obs::Outcome::Revalidated);
  }
  trace.set_outcome(obs::Outcome::Miss);
  if (had_stale_entry)
    cache_->counters().add(&StatsSnapshot::misses);  // stale + changed
  if (options_.slow_call_threshold_ns) [[unlikely]] {
    const std::uint64_t elapsed = trace.elapsed_ns();
    if (elapsed > options_.slow_call_threshold_ns)
      obs::event_log().emit(obs::EventKind::SlowCall,
                            description_->name() + "." + operation,
                            "miss path exceeded slow-call threshold", elapsed);
  }
  return std::move(fetched.object);
}

CachingServiceClient::Fetched CachingServiceClient::fetch_and_store(
    obs::CallTrace& trace, const soap::RpcRequest& request,
    const wsdl::OperationInfo& op, const OperationPolicy& policy,
    const CacheKey& key, const ResolvedRepresentation& resolved,
    std::optional<std::chrono::seconds> since, FlightGuard* guard) {
  const std::string& operation = request.operation;
  const Representation rep = resolved.representation;
  const bool record_events = rep == Representation::SaxEvents;
  CallResult result = remote_call(trace, request, op, record_events, since);
  if (result.not_modified) {
    // 304: the stale representation is still current — renew its lease
    // and answer from the value refresh() hands back (no reparse, no
    // re-store, no second lookup that a concurrent eviction could miss).
    if (std::shared_ptr<const CachedValue> value =
            cache_->refresh(key, policy.ttl, soft_ttl_for(policy))) {
      if (guard) guard->complete(value);
      trace.set_outcome(obs::Outcome::Revalidated);
      return {std::move(value), {}, /*revalidated=*/true};
    }
    // The entry was evicted while we revalidated: refetch unconditionally.
    result = remote_call(trace, request, op, record_events);
  }

  std::shared_ptr<const CachedValue> value;
  if (std::optional<std::chrono::milliseconds> ttl =
          options_.policy.effective_ttl(policy, result.directives)) {
    obs::StageTimer timer(trace, obs::Stage::Store);
    ResponseCapture capture;
    capture.response_xml = &result.response_xml;
    capture.events = &result.events;
    capture.object = result.object;
    capture.op = share_op(op);
    value = make_cached_value(rep, capture);
    cache_->store(key, value, *ttl, result.last_modified,
                  soft_ttl_for(policy));
  } else {
    util::log(util::LogLevel::Debug, "server directives suppressed caching of ",
              operation);
  }
  // Wake followers AFTER the store, with the stored value itself: they
  // retrieve() directly, no second lookup, no window to miss in.  A null
  // value (nothing stored) wakes them with NoValue to call on their own.
  if (guard) guard->complete(value);
  if (value && options_.profiles)
    trace.set_entry_bytes(entry_bytes(key, *value));
  // Adaptive exploration: a sampled store also shadow-probes one
  // alternative representation from the same captured response.  After
  // the store and the flight completion, so probing never delays the
  // answer or any parked follower.
  if (value && resolved.probe != Representation::Auto) [[unlikely]]
    run_probe(op, operation, resolved.probe, result, key);
  return {std::move(value), std::move(result.object), /*revalidated=*/false};
}

CachingServiceClient::ResolvedRepresentation
CachingServiceClient::resolve_representation(
    const OperationPolicy& policy, const wsdl::OperationInfo& op,
    const std::string& operation) const {
  Representation rep = policy.representation;
  if (rep == Representation::Auto) {
    if (!op.result_type)
      return {Representation::Reference, Representation::Auto};  // void: null
    rep = auto_select(*op.result_type, policy.read_only, policy.prefer_clone);
    if (options_.adaptive) {
      // The adaptive policy only ever steers within Auto: an explicit
      // administrator choice below is binding, exactly as in the paper.
      AdaptivePolicy::Choice choice = options_.adaptive->choose(
          description_->name(), operation, rep,
          applicable_representations(*op.result_type, policy.read_only));
      return {choice.representation, choice.probe};
    }
    return {rep, Representation::Auto};
  }
  if (op.result_type && !applicable(rep, *op.result_type, policy.read_only)) {
    // Table 3's Limitation column: the administrator configured a
    // representation this operation's type cannot support.
    throw SerializationError(
        std::string("representation '") +
        std::string(representation_name(rep)) +
        "' is not applicable to result type '" + op.result_type->name +
        "' of operation '" + operation + "'");
  }
  return {rep, Representation::Auto};
}

void CachingServiceClient::run_probe(const wsdl::OperationInfo& op,
                                     const std::string& operation,
                                     Representation probe,
                                     const CallResult& result,
                                     const CacheKey& key) {
  obs::CostProfiles* const profiles = options_.profiles.get();
  if (!profiles) return;
  try {
    // The serving store may have CONSUMED the teed event sequence
    // (ResponseCapture moves from it), and a SAX probe under a non-SAX
    // serving representation never had it — so SAX probes re-record from
    // the kept response text.  The re-parse is untimed: the serving path's
    // store cost does not include its tee either (recording rides the
    // Parse stage there), so probe and serving samples stay comparable.
    xml::CompactEventSequence events;
    if (probe == Representation::SaxEvents) {
      xml::CompactEventRecorder recorder;
      xml::SaxParser{}.parse(result.response_xml, recorder);
      events = recorder.take();
    }
    ResponseCapture capture;
    capture.response_xml = &result.response_xml;
    capture.events = &events;
    capture.object = result.object;
    capture.op = share_op(op);
    // What a store of this representation would cost...
    const std::uint64_t store_t0 = obs::now_ns();
    std::shared_ptr<const CachedValue> value = make_cached_value(probe, capture);
    const std::uint64_t store_ns = obs::now_ns() - store_t0;
    // ...and what a hit from it would cost (retrieve; keygen + lookup
    // are representation-independent and cancel in every comparison).
    const std::uint64_t hit_t0 = obs::now_ns();
    (void)value->retrieve();
    const std::uint64_t hit_ns = obs::now_ns() - hit_t0;
    profiles->record_probe(description_->name(), operation,
                           representation_name(probe), hit_ns, store_ns,
                           entry_bytes(key, *value));
  } catch (...) {
    // A probe must never fail the call it rides on; a failed probe is
    // simply a missing sample (the candidate scores as "no data").
  }
}

bool CachingServiceClient::schedule_refresh(const soap::RpcRequest& request,
                                            const wsdl::OperationInfo& op,
                                            const OperationPolicy& policy,
                                            const CacheKey& key) {
  // The in-flight table deduplicates refreshes the same way it coalesces
  // misses: only the joiner that LEADS enqueues work, so a storm of SWR
  // hits on one key costs one background wire call.
  ResponseCache::FlightHandle handle = cache_->join_flight(key.ref());
  if (!handle) return false;        // flights shut down: no background work
  if (!handle.leader) return true;  // a refresh is already in flight
  // std::function requires a copyable closure, so the RAII guard rides in
  // a shared_ptr; whichever copy dies last (queue slot, worker frame, or
  // this frame) settles the flight if nothing else did.
  auto guard = std::make_shared<FlightGuard>(*cache_, std::move(handle));
  auto job = [this, guard, request, shared = share_op(op), policy, key]() {
    try {
      // Background refreshes are sampled like any miss (they show up in
      // /trace and feed the profile's fetch costs) under their own Refresh
      // outcome, which counts NO hit or miss anywhere: the foreground
      // caller already accounted for this request.
      obs::CallTrace trace(description_->name(), request.operation);
      if (options_.profiles) trace.sample_into(options_.profiles.get(), 1);
      const ResolvedRepresentation resolved =
          resolve_representation(policy, *shared, request.operation);
      trace.set_representation(representation_name(resolved.representation));
      std::optional<std::chrono::seconds> since;
      if (policy.revalidate)
        since = cache_->lookup(key.ref(), ResponseCache::Lookup::Peek)
                    .last_modified;
      if (!fetch_and_store(trace, request, *shared, policy, key, resolved,
                           since, guard.get())
               .revalidated)
        trace.set_outcome(obs::Outcome::Refresh);
    } catch (...) {
      guard->fail(std::current_exception());
    }
  };
  if (refresh_queue_.submit(std::move(job))) return true;
  // Queue saturated or stopping: nobody will refresh.  Settle the flight
  // so any followers fall back to their own synchronous calls.
  guard->complete(nullptr);
  return false;
}

std::optional<reflect::Object> CachingServiceClient::serve_stale_on_error(
    obs::CallTrace& trace, const std::string& operation, const CacheKey& key,
    const OperationPolicy& policy) {
  if (policy.staleness.stale_if_error.count() <= 0) return std::nullopt;
  // Re-read at failure time, not from the pre-call lookup: the entry may
  // have been refreshed by a concurrent caller (serve that), and the
  // staleness must be measured now — retries and backoff took time.
  ResponseCache::LookupResult entry =
      cache_->lookup(key.ref(), ResponseCache::Lookup::Peek);
  if (!entry.value) return std::nullopt;
  if (!entry.fresh && entry.staleness > policy.staleness.stale_if_error)
    return std::nullopt;  // too stale even for degraded mode
  cache_->counters().add(&StatsSnapshot::stale_serves);
  obs::event_log().emit(obs::EventKind::StaleServe,
                        description_->name() + "." + operation,
                        "origin failing; served stale entry within grace",
                        static_cast<std::uint64_t>(entry.staleness.count()));
  util::log(util::LogLevel::Debug,
            "origin unavailable: serving stale cache entry within "
            "stale_if_error grace");
  return serve(trace, *entry.value, obs::Outcome::StaleServe);
}

CachingServiceClient::CallResult CachingServiceClient::remote_call(
    obs::CallTrace& trace, const soap::RpcRequest& request,
    const wsdl::OperationInfo& op, bool record_events,
    std::optional<std::chrono::seconds> if_modified_since) {
  CallResult out;
  transport::WireRequest wire_request;
  wire_request.body = soap::serialize_request(request);
  wire_request.soap_action = request.ns + "#" + request.operation;
  wire_request.if_modified_since = if_modified_since;
  // Wire time is the transport round trip; the backoff sleeps the retry
  // layer times inside it are nested stages, subtracted from it.
  transport::WireResponse wire = [&] {
    obs::StageTimer timer(trace, obs::Stage::Wire);
    return transport_->post(endpoint_, wire_request);
  }();
  out.directives = wire.directives;
  out.response_xml = std::move(wire.body);
  out.last_modified = wire.last_modified;
  if (wire.not_modified) {
    out.not_modified = true;
    return out;  // empty body by definition of 304
  }

  soap::ResponseReader reader(op);
  {
    obs::StageTimer timer(trace, obs::Stage::Parse);
    if (record_events) {
      // One parse feeds both the deserializer and the recorder (the miss
      // path of the SAX representation never tokenizes twice).
      xml::CompactEventRecorder recorder;
      xml::TeeHandler tee(reader, recorder);
      xml::SaxParser{}.parse(out.response_xml, tee);
      out.events = recorder.take();
    } else {
      xml::SaxParser{}.parse(out.response_xml, reader);
    }
  }
  {
    obs::StageTimer timer(trace, obs::Stage::Deserialize);
    out.object = reader.take();  // throws SoapFault if the body was a fault
  }
  return out;
}

}  // namespace wsc::cache

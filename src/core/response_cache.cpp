#include "core/response_cache.hpp"

#include <bit>
#include <condition_variable>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#include "obs/events.hpp"

namespace wsc::cache {

namespace {
/// One store() evicting at least this many live entries is an eviction
/// burst — worth a structured event, not just a counter tick.
constexpr std::size_t kEvictionBurstThreshold = 8;
}  // namespace

/// One in-flight backend call.  Owns a copy of the key material (joiners
/// arrive with borrowed KeyScratch views that die when their caller's stack
/// unwinds) and the usual monitor state.  The table entry is erased when
/// the leader finishes, but waiters hold shared_ptrs, so a slow follower
/// can still read the published outcome afterwards.
class ResponseCache::Flight {
 public:
  Flight(std::string material, std::uint64_t h)
      : key_material(std::move(material)), hash(h) {}

  const std::string key_material;
  const std::uint64_t hash;

  std::mutex mu;
  std::condition_variable cv;
  bool done = false;                     // outcome published, cv notified
  FlightWait outcome = FlightWait::Shutdown;
  std::shared_ptr<const CachedValue> value;
  std::exception_ptr error;
  std::size_t waiters = 0;  // currently parked followers (event detail)
};

/// string_view keys point into each Flight's owned key_material, so the
/// map allocates nothing per probe and nothing beyond the Flight per miss.
struct ResponseCache::FlightTable {
  std::mutex mu;
  std::unordered_map<std::string_view, std::shared_ptr<Flight>> map;
};

ResponseCache::Shard::Shard() : flights(std::make_unique<FlightTable>()) {}
ResponseCache::Shard::~Shard() = default;

std::size_t default_shard_count() noexcept {
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;  // the standard allows "unknown"
  return std::bit_ceil(std::min<std::size_t>(hw, 64));
}

ResponseCache::ResponseCache(Config config, const util::Clock& clock)
    : config_(config), clock_(&clock) {
  if (config_.shards == 0) config_.shards = 1;
  config_.shards = std::bit_ceil(config_.shards);  // mask-selectable
  shard_mask_ = config_.shards - 1;
  per_shard_entries_ =
      std::max<std::size_t>(1, config_.max_entries / config_.shards);
  per_shard_bytes_ =
      std::max<std::size_t>(1, config_.max_bytes / config_.shards);
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i)
    shards_.push_back(std::make_unique<Shard>());
}

ResponseCache::~ResponseCache() { shutdown_flights(); }

ResponseCache::LookupResult ResponseCache::lookup(const CacheKeyRef& key,
                                                  Lookup mode) {
  Shard& shard = shard_for_hash(key.hash);
  const bool counted = mode != Lookup::Peek;
  if (counted && hot_enabled_.load(std::memory_order_acquire)) [[unlikely]]
    offer_hot_key(shard, key);
  const Tick now = tick(clock_->now());
  LookupResult out;
  {
    // Fast path: shared lock only.  A hit reads the map, checks the atomic
    // expiry tick, sets the CLOCK mark (relaxed — it is a recency hint,
    // not a synchronization point) and copies the shared_ptr.  No list
    // splice, no allocation, no exclusive section: concurrent hits on one
    // shard proceed fully in parallel.
    std::shared_lock lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
      if (counted) stats_.add(&StatsSnapshot::misses);
      return out;
    }
    Entry& entry = it->second;
    const Tick expiry = entry.expiry.load(std::memory_order_acquire);
    if (now < expiry) {
      out.value = entry.value;
      out.fresh = true;
      out.last_modified = entry.last_modified;
      if (!counted) return out;
      entry.mark.store(true, std::memory_order_relaxed);
      stats_.add(&StatsSnapshot::hits);
      // Soft-TTL refresh-ahead: past the soft expiry, exactly one Stale hit
      // wins the claim (CAS to the 0 sentinel) and owes a background
      // refresh.
      Tick soft = entry.soft_expiry.load(std::memory_order_relaxed);
      if (mode == Lookup::Stale && soft != Tick{0} && now >= soft &&
          entry.soft_expiry.compare_exchange_strong(soft, Tick{0},
                                                    std::memory_order_relaxed))
        out.refresh_ahead = true;
      return out;
    }
    if (mode != Lookup::Fresh) {
      // Expose the expired entry and leave it alone: its outcome — refresh
      // vs re-store vs drop vs degraded serve — is the caller's.
      out.value = entry.value;
      out.last_modified = entry.last_modified;
      out.staleness = util::Duration(now - expiry);
      return out;
    }
  }
  // Rare Fresh path: the entry expired.  Re-find under the unique lock (it
  // may have been refreshed, replaced, or erased since we dropped the
  // shared lock) and lazily remove it if it is still dead.
  std::unique_lock lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    stats_.add(&StatsSnapshot::misses);
    return out;
  }
  Entry& entry = it->second;
  if (tick(clock_->now()) < entry.expiry.load(std::memory_order_acquire)) {
    // Raced with a concurrent store/refresh that revived the entry.
    entry.mark.store(true, std::memory_order_relaxed);
    stats_.add(&StatsSnapshot::hits);
    out.value = entry.value;
    out.fresh = true;
    out.last_modified = entry.last_modified;
    return out;
  }
  erase_locked(shard, it);
  stats_.add(&StatsSnapshot::expirations);
  stats_.add(&StatsSnapshot::misses);
  return out;
}

void ResponseCache::store(const CacheKey& key,
                          std::shared_ptr<const CachedValue> value,
                          std::chrono::milliseconds ttl,
                          std::optional<std::chrono::seconds> last_modified,
                          std::chrono::milliseconds soft_ttl) {
  if (ttl <= std::chrono::milliseconds::zero()) {
    stats_.add(&StatsSnapshot::rejected_stores);
    return;
  }
  std::size_t bytes = entry_bytes(key, *value);
  Shard& shard = shard_for_hash(key.hash());
  const util::TimePoint now = clock_->now();
  std::size_t evicted = 0;
  {
    std::unique_lock lock(shard.mu);
    // One hash lookup for both the insert and the replace case: replacing an
    // entry updates it in place (and reuses its ring slot) instead of the
    // old erase-then-reinsert, which hashed the key twice.
    auto [it, inserted] = shard.map.try_emplace(key);
    Entry& entry = it->second;
    if (inserted) {
      entry.key = &it->first;
      // Splice just behind the hand: the sweep reaches the newcomer last
      // (second-chance FIFO).  New entries enter with the mark CLEAR: CLOCK
      // earns its second chance from a hit, not from mere admission
      // (otherwise one sweep pass can never distinguish a hot entry from a
      // cold newcomer).
      if (shard.hand == nullptr) {
        entry.ring_prev = entry.ring_next = &entry;
        shard.hand = &entry;
      } else {
        Entry* hand = shard.hand;
        entry.ring_prev = hand->ring_prev;
        entry.ring_next = hand;
        hand->ring_prev->ring_next = &entry;
        hand->ring_prev = &entry;
      }
    } else {
      shard.bytes -= entry.bytes;
      // A replace is a use: spare the entry on the next sweep.
      entry.mark.store(true, std::memory_order_relaxed);
    }
    entry.value = std::move(value);
    entry.expiry.store(tick(now + ttl), std::memory_order_release);
    // Arm (or disarm) the one-shot refresh-ahead claim.  A soft TTL at or
    // past the hard TTL is meaningless — expiry handling owns that case.
    entry.soft_expiry.store(
        (soft_ttl > std::chrono::milliseconds::zero() && soft_ttl < ttl)
            ? tick(now + soft_ttl)
            : Tick{0},
        std::memory_order_relaxed);
    entry.last_modified = last_modified;
    entry.bytes = bytes;
    shard.bytes += bytes;
    stats_.add(&StatsSnapshot::stores);
    evicted = evict_for_budget_locked(shard, now);
  }
  // Emit outside the shard lock: the event log has its own mutex and the
  // detail string formatting should not extend the exclusive section.
  if (evicted >= kEvictionBurstThreshold) {
    obs::event_log().emit(
        obs::EventKind::EvictionBurst, "cache",
        "one store evicted " + std::to_string(evicted) + " live entries",
        evicted);
  }
}

std::shared_ptr<const CachedValue> ResponseCache::refresh(
    const CacheKey& key, std::chrono::milliseconds ttl,
    std::chrono::milliseconds soft_ttl) {
  Shard& shard = shard_for_hash(key.hash());
  // Renewing a lease mutates only the atomic expiry tick and the CLOCK
  // mark, so a shared lock suffices — revalidation storms do not serialize
  // against the hit path.
  std::shared_lock lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) return nullptr;
  const util::TimePoint now = clock_->now();
  it->second.expiry.store(tick(now + ttl), std::memory_order_release);
  it->second.soft_expiry.store(
      (soft_ttl > std::chrono::milliseconds::zero() && soft_ttl < ttl)
          ? tick(now + soft_ttl)
          : Tick{0},
      std::memory_order_relaxed);
  it->second.mark.store(true, std::memory_order_relaxed);
  stats_.add(&StatsSnapshot::revalidations);
  return it->second.value;
}

ResponseCache::FlightHandle ResponseCache::join_flight(const CacheKeyRef& key) {
  if (flights_down_.load(std::memory_order_acquire)) return {};
  FlightTable& table = *shard_for_hash(key.hash).flights;
  std::lock_guard lock(table.mu);
  // Re-check under the table mutex: shutdown_flights() drains each table
  // under this lock, so a join that sees the flag clear here is ordered
  // before the drain and its flight WILL be woken.
  if (flights_down_.load(std::memory_order_acquire)) return {};
  auto it = table.map.find(key.material);
  if (it != table.map.end()) return {it->second, /*leader=*/false};
  auto flight = std::make_shared<Flight>(std::string(key.material), key.hash);
  table.map.emplace(std::string_view(flight->key_material), flight);
  return {std::move(flight), /*leader=*/true};
}

ResponseCache::FlightResult ResponseCache::wait_flight(
    const FlightHandle& handle, std::chrono::milliseconds timeout) {
  FlightResult out;  // defaults to Shutdown
  if (!handle.flight || handle.leader) return out;
  Flight& flight = *handle.flight;
  stats_.add(&StatsSnapshot::coalesced_waits);
  std::unique_lock lock(flight.mu);
  ++flight.waiters;
  const bool finished =
      flight.cv.wait_for(lock, timeout, [&] { return flight.done; });
  --flight.waiters;
  if (!finished) {
    out.outcome = FlightWait::Timeout;
    return out;
  }
  out.outcome = flight.outcome;
  out.value = flight.value;
  out.error = flight.error;
  if (out.outcome == FlightWait::Error)
    stats_.add(&StatsSnapshot::coalesced_failures);
  return out;
}

void ResponseCache::finish_flight(const FlightHandle& handle,
                                  FlightWait outcome,
                                  std::shared_ptr<const CachedValue> value,
                                  std::exception_ptr error) {
  if (!handle.flight || !handle.leader) return;
  Flight& flight = *handle.flight;
  {
    // Retire the table entry first so a racing join opens a NEW flight
    // instead of boarding one that is already landing.
    FlightTable& table = *shard_for_hash(flight.hash).flights;
    std::lock_guard lock(table.mu);
    auto it = table.map.find(std::string_view(flight.key_material));
    if (it != table.map.end() && it->second == handle.flight)
      table.map.erase(it);
  }
  std::size_t parked = 0;
  {
    std::lock_guard lock(flight.mu);
    if (flight.done) return;  // shutdown_flights() already published
    flight.outcome = outcome;
    flight.value = std::move(value);
    flight.error = std::move(error);
    flight.done = true;
    parked = flight.waiters;
    flight.cv.notify_all();
  }
  // The one broadcast failure is an operational event: N callers saw ONE
  // error where an uncoalesced herd would have produced N backend calls
  // and N errors.  Emit outside both locks.
  if (outcome == FlightWait::Error)
    obs::event_log().emit(obs::EventKind::LeaderFailure, "cache",
                          "coalesced leader failed; one error broadcast to " +
                              std::to_string(parked) + " waiter(s)",
                          parked);
}

void ResponseCache::complete_flight(const FlightHandle& handle,
                                    std::shared_ptr<const CachedValue> value) {
  const FlightWait outcome =
      value ? FlightWait::Value : FlightWait::NoValue;
  finish_flight(handle, outcome, std::move(value), nullptr);
}

void ResponseCache::fail_flight(const FlightHandle& handle,
                                std::exception_ptr error) {
  finish_flight(handle, FlightWait::Error, nullptr, std::move(error));
}

void ResponseCache::shutdown_flights() {
  // Flag first (join_flight re-checks it under each table mutex), then
  // drain every table and wake the orphans.  Leaders that finish later
  // find their table entry gone and the outcome already published — their
  // complete/fail becomes a no-op.
  flights_down_.store(true, std::memory_order_release);
  std::vector<std::shared_ptr<Flight>> orphans;
  for (auto& shard : shards_) {
    FlightTable& table = *shard->flights;
    std::lock_guard lock(table.mu);
    for (auto& [material, flight] : table.map)
      orphans.push_back(std::move(flight));
    table.map.clear();
  }
  for (auto& flight : orphans) {
    std::lock_guard lock(flight->mu);
    if (flight->done) continue;
    flight->outcome = FlightWait::Shutdown;
    flight->done = true;
    flight->cv.notify_all();
  }
}

bool ResponseCache::invalidate(const CacheKey& key) {
  Shard& shard = shard_for_hash(key.hash());
  std::unique_lock lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) return false;
  erase_locked(shard, it);
  stats_.add(&StatsSnapshot::invalidations);
  return true;
}

void ResponseCache::clear() {
  for (auto& shard : shards_) {
    std::unique_lock lock(shard->mu);
    std::size_t n = shard->map.size();
    shard->map.clear();
    shard->hand = nullptr;
    shard->bytes = 0;
    stats_.add(&StatsSnapshot::invalidations, n);
  }
}

std::size_t ResponseCache::purge_expired() {
  const Tick now = tick(clock_->now());
  std::size_t removed = 0;
  for (auto& shard : shards_) {
    std::unique_lock lock(shard->mu);
    for (auto it = shard->map.begin(); it != shard->map.end();) {
      if (now >= it->second.expiry.load(std::memory_order_acquire)) {
        auto victim = it++;
        erase_locked(*shard, victim);
        stats_.add(&StatsSnapshot::expirations);
        ++removed;
      } else {
        ++it;
      }
    }
  }
  return removed;
}

ResponseCache::Footprint ResponseCache::footprint() const {
  Footprint f;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mu);
    f.entries += shard->map.size();
    f.bytes += shard->bytes;
  }
  return f;
}

StatsSnapshot ResponseCache::stats() const {
  Footprint f = footprint();
  return stats_.snapshot(f.entries, f.bytes);
}

void ResponseCache::erase_locked(Shard& shard, Map::iterator it) {
  Entry& entry = it->second;
  shard.bytes -= entry.bytes;
  if (entry.ring_next == &entry) {
    shard.hand = nullptr;  // last node
  } else {
    entry.ring_prev->ring_next = entry.ring_next;
    entry.ring_next->ring_prev = entry.ring_prev;
    if (shard.hand == &entry) shard.hand = entry.ring_next;
  }
  shard.map.erase(it);
}

std::size_t ResponseCache::evict_for_budget_locked(Shard& shard,
                                                   util::TimePoint now_tp) {
  const Tick now = tick(now_tp);
  std::size_t evicted = 0;
  while (shard.map.size() > per_shard_entries_ ||
         (shard.bytes > per_shard_bytes_ && shard.map.size() > 1)) {
    // CLOCK sweep: advance the hand until it finds an entry without a
    // reference mark (clearing marks as it passes — the "second chance").
    // Terminates because every pass over a marked entry clears its mark.
    Entry* victim = shard.hand;
    stats_.add(&StatsSnapshot::clock_sweeps);
    if (now >= victim->expiry.load(std::memory_order_acquire)) {
      // Dead anyway: reclaim it as an expiration, not an eviction.
      erase_locked(shard, shard.map.find(*victim->key));
      stats_.add(&StatsSnapshot::expirations);
      continue;
    }
    if (victim->mark.load(std::memory_order_relaxed)) {
      victim->mark.store(false, std::memory_order_relaxed);
      stats_.add(&StatsSnapshot::second_chances);
      shard.hand = victim->ring_next;
      continue;
    }
    erase_locked(shard, shard.map.find(*victim->key));
    stats_.add(&StatsSnapshot::evictions);
    ++evicted;
  }
  return evicted;
}

void ResponseCache::enable_hot_key_tracking(HotKeyOptions options) {
  if (hot_enabled_.load(std::memory_order_acquire)) return;
  if (options.sample_every == 0) options.sample_every = 1;
  hot_options_ = options;
  for (auto& shard : shards_) {
    std::unique_lock lock(shard->mu);
    if (!shard->hot)
      shard->hot = std::make_unique<HotShard>(hot_options_.capacity);
  }
  // Release AFTER the sketches exist: a lookup that sees the flag can
  // dereference shard.hot unconditionally.
  hot_enabled_.store(true, std::memory_order_release);
}

void ResponseCache::offer_hot_key(Shard& shard, const CacheKeyRef& key) {
  // Per-thread sampling: only every sample_every-th lookup pays the sketch
  // mutex + scan; the offer weight keeps estimates unbiased.
  thread_local std::uint32_t tick = 0;
  if (++tick < hot_options_.sample_every) return;
  tick = 0;
  HotStripe& stripe = shard.hot->stripes[util::thread_stripe()];
  std::lock_guard lock(stripe.mu);
  stripe.sketch.offer(key.hash, key.material, hot_options_.sample_every);
}

std::vector<obs::TopKSketch::HotKey> ResponseCache::hot_keys(
    std::size_t limit) const {
  if (!hot_enabled_.load(std::memory_order_acquire)) return {};
  std::vector<std::vector<obs::TopKSketch::HotKey>> parts;
  parts.reserve(shards_.size() * util::kStripes);
  for (const auto& shard : shards_) {
    for (HotStripe& stripe : shard->hot->stripes) {
      std::lock_guard lock(stripe.mu);
      parts.push_back(stripe.sketch.entries());
    }
  }
  return obs::merge_topk(std::move(parts), limit);
}

}  // namespace wsc::cache

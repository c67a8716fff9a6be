// The response cache table: key -> (CachedValue, expiry), with TTL expiry,
// CLOCK (second-chance) eviction under entry- and byte-budgets, and a
// contention-free hit path.
//
// The paper holds all cached objects in memory ("for fair comparison, we
// held all of the cached objects in memory") and notes small memory usage
// is desirable; the byte budget uses each representation's measured
// footprint (Table 9) so eviction pressure reflects the representation
// choice.
//
// Concurrency model (DESIGN.md §9): the paper's whole argument is that
// per-hit cost decides whether response caching pays off (Tables 6/7), so
// a hit must not serialize behind other hits.  Each shard is guarded by a
// std::shared_mutex:
//
//   hit      shared_lock + relaxed CLOCK-mark store + a stat bump on the
//            thread's own stripe; no list splice, no allocation, no
//            exclusive section.
//   expiry   a lock-free read of the entry's atomic expiry tick; an entry
//            found expired is removed on a rare unique_lock slow path.
//   store /  unique_lock; eviction sweeps a per-shard clock hand over a
//   evict    ring of entries, sparing (and unmarking) recently-hit ones.
//
// Recency is therefore *approximate* (one reference bit instead of exact
// LRU order) — the trade every reader-optimized cache in PAPERS.md makes
// (memcached's striped LRU, S3-FIFO/CLOCK) and faithful to the paper,
// whose policy knobs are TTL and capacity, not an eviction-order contract.
//
// The table can additionally be split into independently-locked shards
// (Config::shards); entry/byte budgets are split evenly across shards.
//
// Every probe of the table goes through ONE entry point,
// lookup(key, mode): the Fresh, Stale and Peek modes differ only in their
// side effects (counters, CLOCK mark, lazy expiry, refresh-ahead claim,
// hot-key offer), tabulated at the Lookup enum.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "core/cache_key.hpp"
#include "core/cached_value.hpp"
#include "core/stats.hpp"
#include "obs/topk.hpp"
#include "util/clock.hpp"
#include "util/stripe.hpp"

namespace wsc::cache {

/// Default shard count: the smallest power of two >= the hardware thread
/// count, clamped to [1, 64].  Power of two so the high-bit shard index
/// distributes evenly; clamped so a 256-vCPU host does not split a small
/// byte budget into homeopathic per-shard slices.
std::size_t default_shard_count() noexcept;

/// Bytes one entry charges its shard's budget: its key and its value, each
/// billed by util/mem_footprint.hpp's rule.  store(), the profiles' entry
/// bytes and the adaptive probes all read this one sum.
inline std::size_t entry_bytes(const CacheKey& key, const CachedValue& value) {
  return key.memory_size() + value.memory_size();
}

class ResponseCache {
 public:
  struct Config {
    std::size_t max_entries = 100'000;
    std::size_t max_bytes = 256 * 1024 * 1024;
    /// Number of independently locked shards (>= 1), rounded UP to the
    /// next power of two so shard selection is a mask, not a division
    /// (the old `% shards` cost a hardware divide on every lookup).
    /// Defaults to default_shard_count() — a power of two derived from
    /// std::thread::hardware_concurrency().  NOTE: budgets are split
    /// evenly across shards, so with S shards a single shard evicts once
    /// it holds max_entries/S entries (or max_bytes/S bytes) even if the
    /// table as a whole is under budget.  Tests that assert exact
    /// eviction behavior must pin shards = 1.
    std::size_t shards = default_shard_count();
  };

  ResponseCache() : ResponseCache(Config{}) {}
  explicit ResponseCache(Config config,
                         const util::Clock& clock = util::steady_clock());
  /// Wakes every parked single-flight waiter (shutdown_flights()).
  ~ResponseCache();

  /// How a lookup() treats the entry it finds (DESIGN.md §6):
  ///
  ///          counts     mark    expired entry       soft claim  hot key
  ///   Fresh  hit, miss  on hit  erased, counted     never       offered
  ///   Stale  hit, miss* on hit  exposed, uncounted  can win     offered
  ///   Peek   nothing    never   exposed, kept       never       never
  ///   (* a Stale miss is counted only when the key is absent)
  ///
  /// Fresh is the plain TTL cache.  Stale lets the caller decide what an
  /// expired entry is worth (revalidate it with §3.2's If-Modified-Since,
  /// serve it under a stale-while-revalidate grace, keep it as the
  /// stale-if-error fallback), and a fresh Stale hit past the soft TTL can
  /// win the refresh-ahead claim.  Peek has no side effect at all, so race
  /// checks and degraded-mode reads never pollute the counters or destroy
  /// the fallback entry they look for.
  enum class Lookup : std::uint8_t { Fresh, Stale, Peek };

  struct LookupResult {
    /// Shared; retrieve() is const and thread-safe.  Null on a miss, and
    /// on an expired entry under Fresh.
    std::shared_ptr<const CachedValue> value;
    bool fresh = false;
    std::optional<std::chrono::seconds> last_modified;
    /// How far past expiry the entry is (zero when fresh or missing), so
    /// stale-if-error graces compare against real staleness, not guesses.
    util::Duration staleness{0};
    /// True when THIS lookup won the entry's one-shot refresh-ahead claim
    /// (Stale only: a fresh hit past the soft TTL): the caller owns kicking
    /// off exactly one background refresh.  Re-armed by store()/refresh().
    bool refresh_ahead = false;
  };

  /// The one probe of the table.  Takes borrowed key material (a
  /// KeyScratch's ref(), or an owned CacheKey's ref()), so the hit path
  /// constructs no owned key.  Hits take only a shared lock: concurrent
  /// hits never serialize.
  LookupResult lookup(const CacheKeyRef& key, Lookup mode = Lookup::Fresh);

  /// Insert or replace.  `ttl` bounds the entry's life from now;
  /// `last_modified` (server-supplied) enables later revalidation.
  /// A non-positive TTL is a no-op counted as `rejected_stores`: an
  /// already-expired entry must never charge the byte budget (where it
  /// could evict live entries before lazy expiry noticed it).
  /// A positive `soft_ttl` (< ttl) arms the refresh-ahead claim: the first
  /// Stale lookup hit after `soft_ttl` elapses wins a one-shot claim
  /// (LookupResult::refresh_ahead) to refresh the entry in the background
  /// before it expires.
  void store(const CacheKey& key, std::shared_ptr<const CachedValue> value,
             std::chrono::milliseconds ttl,
             std::optional<std::chrono::seconds> last_modified = std::nullopt,
             std::chrono::milliseconds soft_ttl = std::chrono::milliseconds(0));

  /// Give an existing (possibly expired) entry a new lease after a 304 and
  /// return its value, or null if the entry vanished meanwhile.
  /// Shared-lock only: the new expiry is an atomic store on the entry's
  /// expiry tick.  `soft_ttl` re-arms the refresh-ahead claim exactly as
  /// store() does.
  std::shared_ptr<const CachedValue> refresh(
      const CacheKey& key, std::chrono::milliseconds ttl,
      std::chrono::milliseconds soft_ttl = std::chrono::milliseconds(0));

  // --- Single-flight miss coalescing (DESIGN.md §11) ----------------------
  //
  // A per-shard in-flight table (beside the CLOCK ring) keyed by the cache
  // key material.  The first caller to join a key's flight becomes the
  // LEADER and performs the backend call; every later joiner is a FOLLOWER
  // and blocks on the flight (condition-variable wait with its own
  // deadline).  The leader broadcasts exactly one outcome — a stored
  // value, "nothing stored", or ONE failure — so a herd of N identical
  // misses costs one wire call and one error at worst, never N.

  class Flight;  // opaque; shared so waiters outlive table erasure

  /// What a join returned.  A default-constructed (null) handle means
  /// coalescing is unavailable (flights shut down): proceed uncoalesced.
  struct FlightHandle {
    std::shared_ptr<Flight> flight;
    bool leader = false;
    explicit operator bool() const noexcept { return flight != nullptr; }
  };

  /// How a follower's wait ended.
  enum class FlightWait : std::uint8_t {
    Value,     // leader stored a fresh entry; FlightResult::value is set
    NoValue,   // leader finished without a storable value (e.g. no-store)
    Error,     // leader failed; FlightResult::error holds the one broadcast
    Timeout,   // this caller's deadline elapsed before the leader finished
    Shutdown,  // flights shut down; nobody will complete this one
  };
  struct FlightResult {
    FlightWait outcome = FlightWait::Shutdown;
    std::shared_ptr<const CachedValue> value;
    std::exception_ptr error;
  };

  /// Join (or open) the in-flight entry for `key`.  First joiner leads.
  FlightHandle join_flight(const CacheKeyRef& key);
  /// Follower: park until the leader completes or `timeout` elapses.
  /// Counts coalesced_waits (and coalesced_failures on an Error outcome).
  FlightResult wait_flight(const FlightHandle& handle,
                           std::chrono::milliseconds timeout);
  /// Leader: publish success and wake all followers.  A null `value` means
  /// "call succeeded but nothing was stored" (FlightWait::NoValue).
  /// No-op for followers / null handles / already-finished flights.
  void complete_flight(const FlightHandle& handle,
                       std::shared_ptr<const CachedValue> value);
  /// Leader: broadcast the one failure to all followers.
  void fail_flight(const FlightHandle& handle, std::exception_ptr error);
  /// Wake every parked waiter with FlightWait::Shutdown, drop the in-flight
  /// tables, and make join_flight() return null handles from now on.
  /// Idempotent; called by the destructor.
  void shutdown_flights();

  /// Remove one entry; true if it existed.
  bool invalidate(const CacheKey& key);

  /// Drop everything (administrative flush).
  void clear();

  /// Drop expired entries eagerly (periodic maintenance; a Fresh lookup()
  /// already lazily expires).  Returns the number removed.
  std::size_t purge_expired();

  /// Entry count and byte footprint, read together: each shard's pair is
  /// taken under that shard's lock in ONE pass, so entries and bytes can
  /// never disagree with each other (the old two-pass
  /// entry_count()+bytes_used() snapshot could interleave with writers and
  /// tear).
  struct Footprint {
    std::size_t entries = 0;
    std::size_t bytes = 0;
  };
  Footprint footprint() const;

  std::size_t entry_count() const { return footprint().entries; }
  std::size_t bytes_used() const { return footprint().bytes; }
  /// Configured budgets (the adaptive policy's memory-pressure signal
  /// compares footprint().bytes against max_bytes()).
  std::size_t max_bytes() const noexcept { return config_.max_bytes; }
  std::size_t max_entries() const noexcept { return config_.max_entries; }
  StatsSnapshot stats() const;
  CacheStats& counters() noexcept { return stats_; }

  /// Hot-key tracking: a per-shard space-saving top-K sketch fed from
  /// Fresh and Stale lookups (hits AND misses — "hot" means
  /// most-requested; Peek never offers).  Off by
  /// default; when off the only lookup-path cost is one relaxed load.
  /// When on, every `sample_every`-th lookup per thread offers its key
  /// material to the owning shard's sketch with the sampling period as
  /// the weight, so count estimates stay unbiased.
  struct HotKeyOptions {
    std::size_t capacity = 64;     // tracked keys per shard
    std::uint32_t sample_every = 64;
  };
  /// Idempotent; options are fixed by the first call.  Never disabled —
  /// sketches live for the cache's lifetime once allocated, so the
  /// sampled path can read them without lifetime checks.
  void enable_hot_key_tracking(HotKeyOptions options);
  void enable_hot_key_tracking() { enable_hot_key_tracking(HotKeyOptions{}); }
  bool hot_key_tracking_enabled() const noexcept {
    return hot_enabled_.load(std::memory_order_acquire);
  }
  /// Every shard's stripes merged: a key's stripes are summed (shards see
  /// disjoint key streams, so across shards the merge is concatenation),
  /// sorted by count, truncated to `limit`.
  std::vector<obs::TopKSketch::HotKey> hot_keys(std::size_t limit = 16) const;

 private:
  /// Expiry is an atomic tick (nanoseconds on the util::Clock timeline) so
  /// the hit path's freshness check is a lock-free load and refresh() can
  /// renew a lease under a shared lock.
  using Tick = util::Duration::rep;
  static Tick tick(util::TimePoint t) noexcept {
    return t.time_since_epoch().count();
  }

  struct Entry {
    std::shared_ptr<const CachedValue> value;  // replaced under unique_lock
    std::atomic<Tick> expiry{0};
    /// Refresh-ahead claim: the tick after which the FIRST fresh Stale
    /// lookup wins a one-shot background-refresh claim (CAS to 0, the
    /// "disabled/claimed" sentinel).  Re-armed by store()/refresh().
    std::atomic<Tick> soft_expiry{0};
    /// CLOCK reference bit: set (relaxed) by every hit, cleared by the
    /// sweeping hand.  The only thing a hit writes besides stats.
    std::atomic<bool> mark{false};
    std::optional<std::chrono::seconds> last_modified;
    std::size_t bytes = 0;
    const CacheKey* key = nullptr;  // the map node's key (stable address)
    /// Intrusive circular CLOCK ring links (mutated only under the unique
    /// lock; hits never touch them).  New entries are spliced just BEHIND
    /// the hand, so the sweep reaches them last — classic second-chance
    /// FIFO order, with no per-hit list mutation.
    Entry* ring_prev = nullptr;
    Entry* ring_next = nullptr;
  };

  // unordered_map: node-based, so Entry and key addresses are stable
  // across rehash (iterators are NOT — the CLOCK ring therefore links
  // Entry pointers, and eviction erases by key).
  using Map = std::unordered_map<CacheKey, Entry, CacheKey::Hasher,
                                 CacheKey::Eq>;

  /// One of a shard's hot-key sketches behind its own small mutex,
  /// separate from the shard's shared_mutex so an offer never holds up
  /// readers.  Each thread offers to its util::thread_stripe() sketch, so
  /// threads on different stripes never share a sketch's lock or lines.
  struct alignas(64) HotStripe {
    std::mutex mu;
    obs::TopKSketch sketch;
  };
  struct HotShard {
    std::array<HotStripe, util::kStripes> stripes;
    explicit HotShard(std::size_t capacity) {
      for (HotStripe& stripe : stripes)
        stripe.sketch = obs::TopKSketch(capacity);
    }
  };

  /// Per-shard single-flight table behind its own mutex (defined in the
  /// .cpp), separate from the shard's shared_mutex: joining a flight must
  /// not contend with the hit path.
  struct FlightTable;

  struct Shard {
    Shard();   // out-of-line: FlightTable is incomplete here
    ~Shard();
    mutable std::shared_mutex mu;
    Map map;
    Entry* hand = nullptr;  // next ring node the sweep examines
    std::size_t bytes = 0;
    std::unique_ptr<HotShard> hot;  // set once by enable_hot_key_tracking
    std::unique_ptr<FlightTable> flights;  // always allocated
  };

  Shard& shard_for_hash(std::uint64_t hash) {
    // The table index uses the low hash bits; pick shards from the high
    // ones so the two partitions stay independent.  Shard counts are
    // powers of two, so this is a mask, not a divide.
    return *shards_[(hash >> 48) & shard_mask_];
  }
  const Shard& shard_for_hash(std::uint64_t hash) const {
    return *shards_[(hash >> 48) & shard_mask_];
  }

  /// Sampled hot-key offer; the caller has already checked hot_enabled_.
  void offer_hot_key(Shard& shard, const CacheKeyRef& key);

  /// Common tail of complete_flight/fail_flight: erase the table entry (if
  /// it is still this flight), publish the outcome once, wake everyone.
  void finish_flight(const FlightHandle& handle, FlightWait outcome,
                     std::shared_ptr<const CachedValue> value,
                     std::exception_ptr error);

  void erase_locked(Shard& shard, Map::iterator it);
  /// Returns the number of budget evictions this call performed (expired
  /// reclaims excluded), so store() can flag eviction bursts.
  std::size_t evict_for_budget_locked(Shard& shard, util::TimePoint now);

  Config config_;
  std::size_t shard_mask_;
  std::size_t per_shard_entries_;
  std::size_t per_shard_bytes_;
  const util::Clock* clock_;
  std::vector<std::unique_ptr<Shard>> shards_;
  CacheStats stats_;
  std::atomic<bool> flights_down_{false};
  std::atomic<bool> hot_enabled_{false};
  HotKeyOptions hot_options_;  // fixed before hot_enabled_ is released
};

}  // namespace wsc::cache

// Ablation — the contention-free hit path under Figure-4-style concurrency.
//
// Two sweeps, both over one shared cache with a 16-key hot set and the
// cheap Reference representation (so the cache's own locking — not
// retrieval work — dominates):
//
//   1. Shard sweep (the original ablation): closed-loop clients vs the
//      shard count of the CLOCK cache.
//   2. Thread-scaling sweep (BENCH_ablation_hitpath.json): 1/4/16/32
//      threads, old-mutex-LRU baseline vs the new CLOCK + shared-lock
//      hit path, measured two ways per thread count:
//        lookup : the hit alone, prebuilt keys (lock-scaling signal)
//        e2e    : keygen + hit (owned allocating key vs KeyScratch ref)
//      The baseline reproduces the pre-CLOCK lookup faithfully: one
//      exclusive mutex, clock read + expiry check + LRU splice (with the
//      skip-if-already-front optimization) + relaxed stat bump under it.
//
// Note on interpreting the scaling rows: exclusive-vs-shared locking can
// only diverge when critical sections actually overlap, i.e. with >= 2
// hardware threads.  On a single-core host every thread timeslices and
// both lock kinds run uncontended, so expect ~1x there — the JSON's
// "meta.hardware_concurrency" records the context.
//
// `--smoke` shrinks iteration counts to a CI-sized bitrot check: same
// code paths, tiny constants, still writes the JSON.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <list>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/common.hpp"
#include "core/cache_key.hpp"
#include "core/response_cache.hpp"
#include "reflect/object.hpp"

using namespace wsc;
using namespace wsc::cache;

namespace {

class TinyValue final : public CachedValue {
 public:
  reflect::Object retrieve() const override {
    return reflect::Object::make(std::int32_t{1});
  }
  Representation representation() const override {
    return Representation::Reference;
  }
  std::size_t memory_size() const override { return 32; }
};

/// The pre-CLOCK hit path, kept verbatim as the ablation baseline: one
/// exclusive mutex guarding an unordered_map plus an std::list in exact
/// LRU order, with the old lookup's full critical section (wall-clock
/// read, expiry compare, conditional splice-to-front, relaxed hit count).
class MutexLruCache {
 public:
  MutexLruCache() { shards_.push_back(std::make_unique<Shard>()); }

  void store(CacheKey key, std::shared_ptr<const CachedValue> value,
             std::chrono::milliseconds ttl) {
    Shard& s = shard_for(key);
    std::lock_guard lock(s.mu);
    auto [it, inserted] = s.map.try_emplace(std::move(key));
    if (inserted) {
      s.order.push_front(&it->first);
      it->second.order = s.order.begin();
    }
    it->second.value = std::move(value);
    it->second.expiry = std::chrono::steady_clock::now() + ttl;
  }

  std::shared_ptr<const CachedValue> lookup(const CacheKey& key) {
    Shard& s = shard_for(key);
    std::lock_guard lock(s.mu);
    auto it = s.map.find(key);
    if (it == s.map.end()) return nullptr;
    if (std::chrono::steady_clock::now() >= it->second.expiry)
      return nullptr;  // (eviction elided: the bench never expires)
    // Exact LRU: every hit mutates the recency list under the lock.
    if (it->second.order != s.order.begin())
      s.order.splice(s.order.begin(), s.order, it->second.order);
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second.value;
  }

 private:
  struct Entry {
    std::shared_ptr<const CachedValue> value;
    std::chrono::steady_clock::time_point expiry;
    std::list<const CacheKey*>::iterator order;
  };
  struct Shard {
    std::mutex mu;
    std::unordered_map<CacheKey, Entry, CacheKey::Hasher, CacheKey::Eq> map;
    std::list<const CacheKey*> order;
  };
  Shard& shard_for(const CacheKey& key) {
    // The old per-call shard selection, runtime modulo included.
    return *shards_[(key.hash() >> 48) % shards_.size()];
  }
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> hits_{0};
};

/// 16 hot requests with realistic ToString key material (endpoint,
/// operation, five parameters) so keygen cost is representative.
std::vector<soap::RpcRequest> hot_requests() {
  std::vector<soap::RpcRequest> reqs;
  for (int i = 0; i < 16; ++i) {
    soap::RpcRequest r;
    r.endpoint = "http://api.example.com/search/beta2";
    r.ns = "urn:Search";
    r.operation = "doSearch";
    r.params = {{"key", reflect::Object::make(std::string(32, '0'))},
                {"q", reflect::Object::make(std::string("hot query ") +
                                            std::to_string(i))},
                {"start", reflect::Object::make(std::int32_t{i * 10})},
                {"maxResults", reflect::Object::make(std::int32_t{10})},
                {"safeSearch", reflect::Object::make(false)}};
    reqs.push_back(std::move(r));
  }
  return reqs;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Run `threads` closed-loop workers, each performing ops_per_thread calls
/// of per_op(thread_index, iteration); returns aggregate ops/sec.
template <typename PerOp>
double timed(int threads, int ops_per_thread, const PerOp& per_op) {
  auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = 0; i < ops_per_thread; ++i) per_op(t, i);
    });
  }
  for (auto& th : pool) th.join();
  return threads * static_cast<double>(ops_per_thread) / seconds_since(t0);
}

struct ScalePair {
  double mutex_lru = 0;
  double clock = 0;
};

/// Pure hit throughput: prebuilt keys, the lock + table + recency update
/// is the whole op.
ScalePair run_lookup_scaling(int threads, int ops_per_thread,
                             const std::vector<soap::RpcRequest>& reqs) {
  ToStringKeyGenerator gen;
  std::vector<CacheKey> keys;
  for (const auto& r : reqs) keys.push_back(gen.generate(r));

  MutexLruCache lru;
  for (const auto& k : keys)
    lru.store(k, std::make_shared<TinyValue>(), std::chrono::hours(1));
  ResponseCache::Config config;
  config.shards = 1;
  ResponseCache clk(config);
  for (const auto& k : keys)
    clk.store(k, std::make_shared<TinyValue>(), std::chrono::hours(1));

  ScalePair out;
  out.mutex_lru = timed(threads, ops_per_thread, [&](int t, int i) {
    if (lru.lookup(keys[(t + i) % keys.size()]) == nullptr) std::abort();
  });
  out.clock = timed(threads, ops_per_thread, [&](int t, int i) {
    if (clk.lookup(keys[(t + i) % keys.size()].ref()).value == nullptr)
      std::abort();
  });
  return out;
}

/// End-to-end hit: key generation + lookup per op.  Baseline pays the old
/// owned (allocating) CacheKey per call; the new path reuses a per-thread
/// KeyScratch and probes with the borrowed ref.
ScalePair run_e2e_scaling(int threads, int ops_per_thread,
                          const std::vector<soap::RpcRequest>& reqs) {
  ToStringKeyGenerator gen;
  MutexLruCache lru;
  ResponseCache::Config config;
  config.shards = 1;
  ResponseCache clk(config);
  for (const auto& r : reqs) {
    lru.store(gen.generate(r), std::make_shared<TinyValue>(),
              std::chrono::hours(1));
    clk.store(gen.generate(r), std::make_shared<TinyValue>(),
              std::chrono::hours(1));
  }

  ScalePair out;
  out.mutex_lru = timed(threads, ops_per_thread, [&](int t, int i) {
    CacheKey key = gen.generate(reqs[(t + i) % reqs.size()]);
    if (lru.lookup(key) == nullptr) std::abort();
  });
  std::vector<KeyScratch> scratches(threads);
  out.clock = timed(threads, ops_per_thread, [&](int t, int i) {
    KeyScratch& scratch = scratches[t];
    gen.generate_into(reqs[(t + i) % reqs.size()], scratch);
    if (clk.lookup(scratch.ref()).value == nullptr) std::abort();
  });
  return out;
}

double run_shard_sweep(std::size_t shards, int clients, int ops_per_client) {
  ResponseCache::Config config;
  config.shards = shards;
  ResponseCache cache(config);
  for (int k = 0; k < 16; ++k) {
    cache.store(CacheKey("hot" + std::to_string(k)),
                std::make_shared<TinyValue>(), std::chrono::hours(1));
  }
  return timed(clients, ops_per_client, [&](int c, int i) {
    CacheKey k("hot" + std::to_string((c + i) % 16));
    if (auto v = cache.lookup(k.ref()).value) {
      reflect::Object o = v->retrieve();
      (void)o;
    }
  });
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const int kShardClients = 25;
  const int kShardOps = smoke ? 400 : 40'000;
  const int kScaleOps = smoke ? 20'000 : 800'000;  // total ops per cell

  std::printf(
      "Ablation 1 (lock sharding): %d concurrent clients, %d lookups each,\n"
      "16-key hot set, Reference representation\n",
      kShardClients, kShardOps);
  std::printf("%8s %16s\n", "shards", "lookups/sec");
  wsc::bench::BenchJson json;
  for (std::size_t shards : {1u, 2u, 4u, 8u, 16u, 32u}) {
    // Warm + measure twice, report the better run (less scheduler noise).
    double a = run_shard_sweep(shards, kShardClients, kShardOps);
    double b = run_shard_sweep(shards, kShardClients, kShardOps);
    double best = std::max(a, b);
    std::printf("%8zu %16.0f\n", shards, best);
    json.add("shards=" + std::to_string(shards), "lookups_per_sec", best);
  }

  std::printf(
      "\nAblation 2 (hit-path scaling), 16-key hot set, 1 shard each:\n"
      "  mutex_lru : exclusive mutex, LRU splice per hit (pre-CLOCK)\n"
      "  clock     : shared lock, relaxed CLOCK mark per hit\n"
      "  lookup = prebuilt keys; e2e = keygen (owned vs KeyScratch) + hit\n");
  std::printf("%8s %14s %14s %8s %14s %14s %8s\n", "threads", "lru lookup/s",
              "clk lookup/s", "speedup", "lru e2e/s", "clk e2e/s", "speedup");
  auto reqs = hot_requests();
  for (int threads : {1, 4, 16, 32}) {
    int per_thread = std::max(1, kScaleOps / threads);
    ScalePair look, e2e;
    for (int rep = 0; rep < 2; ++rep) {  // best-of-2, as above
      ScalePair a = run_lookup_scaling(threads, per_thread, reqs);
      look.mutex_lru = std::max(look.mutex_lru, a.mutex_lru);
      look.clock = std::max(look.clock, a.clock);
      ScalePair b = run_e2e_scaling(threads, per_thread, reqs);
      e2e.mutex_lru = std::max(e2e.mutex_lru, b.mutex_lru);
      e2e.clock = std::max(e2e.clock, b.clock);
    }
    std::string row = "threads=" + std::to_string(threads);
    json.add(row, "mutex_lru_hits_per_sec", look.mutex_lru);
    json.add(row, "clock_hits_per_sec", look.clock);
    json.add(row, "speedup", look.clock / look.mutex_lru);
    json.add(row, "mutex_lru_e2e_per_sec", e2e.mutex_lru);
    json.add(row, "clock_e2e_per_sec", e2e.clock);
    json.add(row, "e2e_speedup", e2e.clock / e2e.mutex_lru);
    std::printf("%8d %14.0f %14.0f %7.2fx %14.0f %14.0f %7.2fx\n", threads,
                look.mutex_lru, look.clock, look.clock / look.mutex_lru,
                e2e.mutex_lru, e2e.clock, e2e.clock / e2e.mutex_lru);
  }
  // Single-thread latency guard (the ±5% criterion): ns per pure hit.
  {
    ScalePair lat;
    for (int rep = 0; rep < 2; ++rep) {
      ScalePair a = run_lookup_scaling(1, kScaleOps, reqs);
      lat.mutex_lru = std::max(lat.mutex_lru, a.mutex_lru);
      lat.clock = std::max(lat.clock, a.clock);
    }
    json.add("single_thread_latency", "mutex_lru_ns_per_hit",
             1e9 / lat.mutex_lru);
    json.add("single_thread_latency", "clock_ns_per_hit", 1e9 / lat.clock);
    json.add("single_thread_latency", "ratio", lat.mutex_lru / lat.clock);
    std::printf("\nsingle-thread latency: mutex_lru %.1f ns/hit, "
                "clock %.1f ns/hit\n", 1e9 / lat.mutex_lru, 1e9 / lat.clock);
  }
  json.add("meta", "hardware_concurrency",
           static_cast<double>(std::thread::hardware_concurrency()));
  json.add("meta", "default_shards",
           static_cast<double>(default_shard_count()));
  json.add("meta", "smoke", smoke ? 1 : 0);
  json.write_file("BENCH_ablation_hitpath.json");
  return 0;
}

// Zero-allocation key generation (Table 6: key-generation cost decides
// whether response caching pays off).
//
// The contract under test: after a warm-up that grows the KeyScratch
// buffer to its steady-state capacity, ToStringKeyGenerator::generate_into
// plus a ResponseCache lookup through the borrowed CacheKeyRef perform ZERO
// heap allocations — the owned CacheKey is only materialized on the miss
// path.  Verified with a counting global operator new, armed only inside
// the measuring test so the other suites in this binary are unaffected.
#include <gtest/gtest.h>

#include "core/cache_key.hpp"
#include "core/response_cache.hpp"
#include "reflect/object.hpp"
#include "tests/core/alloc_counter.hpp"
#include "tests/reflect/test_types.hpp"

namespace wsc::cache {
namespace {

using reflect::Object;
using std::chrono::minutes;

class IdValue final : public CachedValue {
 public:
  explicit IdValue(int id) : id_(id) {}
  reflect::Object retrieve() const override {
    return Object::make(std::int32_t{id_});
  }
  Representation representation() const override {
    return Representation::Reference;
  }
  std::size_t memory_size() const override { return 32; }

 private:
  std::int32_t id_;
};

soap::RpcRequest search_request(const std::string& q) {
  reflect::testing::ensure_test_types();
  soap::RpcRequest r;
  r.endpoint = "http://svc/search";
  r.ns = "urn:Test";
  r.operation = "doSearch";
  r.params = {{"key", Object::make(std::string("devkey"))},
              {"q", Object::make(q)},
              {"start", Object::make(std::int32_t{10})},
              {"maxResults", Object::make(std::int64_t{25})},
              {"score", Object::make(0.5)},
              {"safeSearch", Object::make(false)}};
  return r;
}

TEST(KeygenScratchTest, GenerateIntoMatchesGenerate) {
  ToStringKeyGenerator gen;
  soap::RpcRequest req = search_request("caching");
  CacheKey owned = gen.generate(req);
  KeyScratch scratch;
  gen.generate_into(req, scratch);
  // Byte-identical material and hash: refs and owned keys always agree, so
  // an entry stored under the owned key is found via the borrowed ref.
  EXPECT_EQ(scratch.ref().material, owned.material());
  EXPECT_EQ(scratch.ref().hash, owned.hash());
  EXPECT_EQ(scratch.to_key(), owned);
}

TEST(KeygenScratchTest, RefLookupFindsEntryStoredUnderOwnedKey) {
  ToStringKeyGenerator gen;
  soap::RpcRequest req = search_request("caching");
  ResponseCache cache;
  cache.store(gen.generate(req), std::make_shared<IdValue>(7), minutes(1));
  KeyScratch scratch;
  gen.generate_into(req, scratch);
  auto hit = cache.lookup(scratch.ref()).value;
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->retrieve().as<std::int32_t>(), 7);
  // And through the revalidation probe as well.
  EXPECT_TRUE(cache.lookup(scratch.ref(), ResponseCache::Lookup::Stale).fresh);
}

TEST(KeygenScratchTest, SteadyStateHitPathDoesNotAllocate) {
  ToStringKeyGenerator gen;
  soap::RpcRequest req = search_request("caching");
  ResponseCache cache(ResponseCache::Config{});
  cache.store(gen.generate(req), std::make_shared<IdValue>(1), minutes(1));

  KeyScratch scratch;
  // Warm-up: first calls may grow the scratch buffer to the material size.
  for (int i = 0; i < 4; ++i) {
    gen.generate_into(req, scratch);
    ASSERT_NE(cache.lookup(scratch.ref()).value, nullptr);
  }

  testing::arm_alloc_counter();
  for (int i = 0; i < 64; ++i) {
    gen.generate_into(req, scratch);
    auto hit = cache.lookup(scratch.ref()).value;
    if (hit == nullptr) break;  // would allocate in the assert below anyway
  }
  EXPECT_EQ(testing::disarm_alloc_counter(), 0u)
      << "steady-state generate_into + ref lookup must not touch the heap";
}

TEST(KeygenScratchTest, ScratchReusedAcrossDifferentRequests) {
  // One scratch serving many distinct requests (the per-thread usage in
  // CachingServiceClient): each generate_into fully resets the material.
  ToStringKeyGenerator gen;
  KeyScratch scratch;
  soap::RpcRequest a = search_request("alpha");
  soap::RpcRequest b = search_request("beta");
  gen.generate_into(a, scratch);
  CacheKey key_a = scratch.to_key();
  gen.generate_into(b, scratch);
  CacheKey key_b = scratch.to_key();
  EXPECT_NE(key_a, key_b);
  EXPECT_EQ(key_a, gen.generate(a));
  EXPECT_EQ(key_b, gen.generate(b));
}

TEST(KeygenScratchTest, DefaultGenerateIntoDelegatesToGenerate) {
  // Generators without an append-style implementation still satisfy the
  // generate_into contract via the assign() fallback.
  XmlMessageKeyGenerator gen;
  soap::RpcRequest req = search_request("caching");
  KeyScratch scratch;
  gen.generate_into(req, scratch);
  CacheKey owned = gen.generate(req);
  EXPECT_EQ(scratch.ref().material, owned.material());
  EXPECT_EQ(scratch.ref().hash, owned.hash());
}

}  // namespace
}  // namespace wsc::cache

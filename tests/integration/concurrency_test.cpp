// Concurrency: many client threads hammering one shared cache through the
// full middleware, with every representation (the Figure-4 stress shape).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/client.hpp"
#include "reflect/algorithms.hpp"
#include "services/google/service.hpp"
#include "services/google/stub.hpp"
#include "tests/core/representation_params.hpp"
#include "transport/inproc_transport.hpp"

namespace wsc {
namespace {

using reflect::Object;
using services::google::GoogleBackend;
using services::google::GoogleClient;
using services::google::GoogleSearchResult;

constexpr const char* kEndpoint = "inproc://google/api";

class ConcurrencyRepresentations
    : public ::testing::TestWithParam<cache::Representation> {};

TEST_P(ConcurrencyRepresentations, ParallelHitsAreConsistent) {
  auto backend = std::make_shared<GoogleBackend>();
  auto transport = std::make_shared<transport::InProcessTransport>();
  transport->bind(kEndpoint, services::google::make_google_service(backend));

  cache::CachingServiceClient::Options options;
  options.policy = services::google::default_google_policy(GetParam());
  auto cache_ptr = std::make_shared<cache::ResponseCache>();
  GoogleClient client(transport, kEndpoint, cache_ptr, options);

  // Warm one entry, then hit it from many threads while other threads
  // create fresh entries.
  GoogleSearchResult expected = client.doGoogleSearch("hot");
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      // Thread-local stub sharing the transport and cache.
      cache::CachingServiceClient::Options o;
      o.policy = services::google::default_google_policy(GetParam());
      GoogleClient local(transport, kEndpoint, cache_ptr, o);
      for (int i = 0; i < 30; ++i) {
        GoogleSearchResult hot = local.doGoogleSearch("hot");
        if (!(hot == expected)) failures.fetch_add(1);
        if (i % 5 == t % 5) {
          local.doGoogleSearch("cold-" + std::to_string(t) + "-" + std::to_string(i));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(cache_ptr->stats().hits, 8u * 30u - 10u);
}

INSTANTIATE_TEST_SUITE_P(
    Representations, ConcurrencyRepresentations,
    ::testing::ValuesIn(cache::testing::copying_representations_and_auto()));

TEST(ConcurrencyTest, MutationsUnderConcurrencyDoNotPoison) {
  // Copying representations: threads aggressively mutate their returned
  // objects; every later retrieval must still match the original.
  auto backend = std::make_shared<GoogleBackend>();
  auto transport = std::make_shared<transport::InProcessTransport>();
  transport->bind(kEndpoint, services::google::make_google_service(backend));

  cache::CachingServiceClient::Options options;
  options.policy = services::google::default_google_policy(
      cache::Representation::ReflectionCopy);
  auto cache_ptr = std::make_shared<cache::ResponseCache>();
  GoogleClient client(transport, kEndpoint, cache_ptr, options);

  GoogleSearchResult expected = client.doGoogleSearch("target");
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&] {
      cache::CachingServiceClient::Options o;
      o.policy = services::google::default_google_policy(
          cache::Representation::ReflectionCopy);
      GoogleClient local(transport, kEndpoint, cache_ptr, o);
      for (int i = 0; i < 50; ++i) {
        GoogleSearchResult r = local.doGoogleSearch("target");
        if (!(r == expected)) failures.fetch_add(1);
        // Trash the returned copy.
        r.resultElements.clear();
        r.searchQuery = "garbage";
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ConcurrencyTest, EvictionChurnUnderParallelLoad) {
  auto backend = std::make_shared<GoogleBackend>();
  auto transport = std::make_shared<transport::InProcessTransport>();
  transport->bind(kEndpoint, services::google::make_google_service(backend));

  cache::ResponseCache::Config small;
  small.max_entries = 8;  // force constant eviction
  auto cache_ptr = std::make_shared<cache::ResponseCache>(small);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      cache::CachingServiceClient::Options o;
      o.policy = services::google::default_google_policy();
      GoogleClient local(transport, kEndpoint, cache_ptr, o);
      for (int i = 0; i < 60; ++i) {
        std::string q = "q" + std::to_string((t + i) % 24);
        GoogleSearchResult r = local.doGoogleSearch(q);
        if (r.searchQuery != q) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(cache_ptr->entry_count(), 8u);
  EXPECT_GT(cache_ptr->stats().evictions, 0u);
}

}  // namespace
}  // namespace wsc

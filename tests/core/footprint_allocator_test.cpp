// The footprint rule against the allocator (DESIGN.md §7, Table 9).
//
// For every representation and every fixture — the three §5.1 Google
// operations, the Amazon KeywordSearch response and doGoogleSearch at the
// scaling sizes 1 to 50 — a CachedValue and its CacheKey are built inside
// the counting allocator's armed window.  Each is billed what it asked the
// allocator for plus util::kAllocOverhead per block, within the band
// stated up front: max(3%, 64 B) of the allocator figure.  The key's
// inline bytes live in the cache's map node, so the key is built in place
// and its sizeof joins the allocator side; the node itself is not billed.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/response_cache.hpp"
#include "reflect/algorithms.hpp"
#include "reflect/serialize.hpp"
#include "services/amazon/service.hpp"
#include "tests/core/alloc_counter.hpp"
#include "tests/core/representation_params.hpp"
#include "util/mem_footprint.hpp"

namespace wsc::cache {
namespace {

using bench::OperationCase;
using reflect::Object;
using wsc::testing::LiveBlocks;

/// The band, fixed before measuring: 3% of the allocator figure or 64 B,
/// whichever is larger.
constexpr double kBandFraction = 0.03;
constexpr std::size_t kBandFloor = 64;

std::size_t band(std::size_t allocator_bytes) {
  return std::max(kBandFloor, static_cast<std::size_t>(
                                  kBandFraction * allocator_bytes));
}

/// Checks `bill` against the blocks the armed window left live, plus
/// `inline_bytes` that sit in memory the window did not allocate: against
/// the requested bytes with the rule's per-block cost, and outside
/// sanitizer builds against what glibc holds (usable size plus its 8-byte
/// chunk header per block).
void expect_matches_allocator(std::size_t bill, const LiveBlocks& live,
                              std::size_t inline_bytes = 0) {
  ASSERT_FALSE(live.overflow);
  const std::size_t rule =
      live.requested + live.blocks * util::kAllocOverhead + inline_bytes;
  EXPECT_NEAR(static_cast<double>(bill), static_cast<double>(rule),
              static_cast<double>(band(rule)))
      << live.blocks << " blocks, " << live.requested << " B requested";
  if (live.usable == 0) return;  // sanitizer allocator, or no block
  const std::size_t held =
      live.usable + live.blocks * sizeof(std::size_t) + inline_bytes;
  EXPECT_NEAR(static_cast<double>(bill), static_cast<double>(held),
              static_cast<double>(band(held)))
      << live.blocks << " blocks, " << live.usable << " B usable";
}

OperationCase scaling_case(std::int32_t results) {
  services::google::GoogleBackend::Config config;
  config.results_per_page = results;
  services::google::GoogleBackend backend(config);
  soap::RpcRequest request = bench::google_cases()[2].request;
  return bench::make_case("Google Search", "doGoogleSearch",
                          std::move(request),
                          Object::make(backend.search("scaling sweep", 0,
                                                      results)));
}

OperationCase amazon_case() {
  services::amazon::AmazonBackend backend;
  auto desc = services::amazon::amazon_description();
  OperationCase c;
  c.display = "Amazon KeywordSearch";
  c.op_name = "KeywordSearch";
  c.op = {desc, &desc->require_operation("KeywordSearch")};
  c.request.endpoint = "http://soap.amazon.com/onca/soap3";
  c.request.ns = "urn:PI/DevCentral/SoapAPI";
  c.request.operation = "KeywordSearch";
  c.request.params = {
      {"keyword", Object::make(std::string("web services caching"))},
      {"page", Object::make(std::int32_t{1})}};
  c.response_object = Object::make(
      backend.search("KeywordSearch", "web services caching", 1));
  c.response_xml = soap::serialize_response(*c.op, c.request.ns,
                                            c.response_object);
  xml::CompactEventRecorder recorder;
  xml::SaxParser{}.parse(c.response_xml, recorder);
  c.response_events = recorder.take();
  return c;
}

const std::vector<OperationCase>& fixtures() {
  static const std::vector<OperationCase> all = [] {
    std::vector<OperationCase> out = bench::google_cases();
    out.push_back(amazon_case());
    for (std::int32_t results : {1, 5, 10, 20, 50}) {
      out.push_back(scaling_case(results));
      out.back().display += " x" + std::to_string(results);
    }
    return out;
  }();
  return all;
}

/// Build `rep`'s value for `c` inside an armed window, as the miss path
/// does: the SAX value takes its own copy of the recording, and a
/// Reference value keeps the response object itself, so the window sees
/// every block the value owns.
std::unique_ptr<CachedValue> build_value(const OperationCase& c,
                                         Representation rep,
                                         LiveBlocks& live) {
  wsc::testing::arm_alloc_counter();
  std::unique_ptr<CachedValue> value;
  {
    xml::CompactEventSequence events;
    if (rep == Representation::SaxEvents) events = c.response_events;
    ResponseCapture capture;
    capture.response_xml = &c.response_xml;
    capture.events = &events;
    capture.op = c.op;
    capture.object = rep == Representation::Reference
                         ? reflect::deep_copy(c.response_object)
                         : c.response_object;
    value = make_cached_value(rep, capture);
  }
  live = wsc::testing::live_blocks();
  wsc::testing::disarm_alloc_counter();
  return value;
}

class FootprintAllocatorTest
    : public ::testing::TestWithParam<Representation> {};

TEST_P(FootprintAllocatorTest, BillMatchesAllocator) {
  const Representation rep = GetParam();
  const ToStringKeyGenerator keygen;
  for (const OperationCase& c : fixtures()) {
    SCOPED_TRACE(c.display);
    if (!applicable(rep, c.response_object.type(), /*read_only=*/true))
      continue;  // Table 7's n/a cells: Spelling's string has no fields
    LiveBlocks value_live;
    std::unique_ptr<CachedValue> value = build_value(c, rep, value_live);
    expect_matches_allocator(value->memory_size(), value_live);

    // The table stores a copy of the client's key (KeyScratch::to_key),
    // built here in place of the map node.
    const CacheKey source = keygen.generate(c.request);
    wsc::testing::arm_alloc_counter();
    const CacheKey key(source);
    const LiveBlocks key_live = wsc::testing::live_blocks();
    wsc::testing::disarm_alloc_counter();
    expect_matches_allocator(key.memory_size(), key_live, sizeof(CacheKey));

    // The shard is charged exactly key + value.
    ResponseCache::Config config;
    config.shards = 1;
    ResponseCache cache(config);
    cache.store(key, std::shared_ptr<const CachedValue>(std::move(value)),
                std::chrono::minutes(1));
    const ResponseCache::LookupResult hit =
        cache.lookup(key.ref(), ResponseCache::Lookup::Peek);
    ASSERT_TRUE(hit.value);
    EXPECT_EQ(cache.bytes_used(),
              key.memory_size() + hit.value->memory_size());
  }
}

INSTANTIATE_TEST_SUITE_P(Representations, FootprintAllocatorTest,
                         ::testing::ValuesIn(kConcreteRepresentations),
                         testing::representation_test_name);

TEST(SerializedFootprintTest, EntryKeepsNoGrowthSlack) {
  // The serializer's buffer grows geometrically; the stored entry holds
  // the payload alone, in one block beside the value's own.
  for (const OperationCase& c : fixtures()) {
    SCOPED_TRACE(c.display);
    const std::size_t payload = reflect::serialize(c.response_object).size();
    SerializedValue value(c.response_object);
    EXPECT_LE(value.memory_size(), payload + sizeof(SerializedValue) +
                                       2 * util::kAllocOverhead);
  }
}

}  // namespace
}  // namespace wsc::cache

// Adaptive representation selection wired through the middleware: shadow
// probes ride real miss paths, profile rows always carry the RESOLVED
// representation (never "Auto"), switches change what new stores use,
// and an explicit administrator representation bypasses the policy.
#include <gtest/gtest.h>

#include "core/adaptive_policy.hpp"
#include "core/client.hpp"
#include "obs/profiles.hpp"
#include "tests/soap/test_service.hpp"
#include "transport/inproc_transport.hpp"

namespace wsc::cache {
namespace {

using reflect::Object;
using soap::Parameter;
using wsc::soap::testing::make_test_service;
using wsc::soap::testing::Polygon;
using wsc::soap::testing::test_description;

constexpr const char* kEndpoint = "inproc://svc/adaptive-test";

struct AdaptiveClientFixture : ::testing::Test {
  AdaptiveClientFixture() {
    transport = std::make_shared<transport::InProcessTransport>();
    transport->bind(kEndpoint, make_test_service());
  }

  /// Client with an Auto policy on echoPolygon/echoString and the given
  /// adaptive policy attached (profiles ride in from the policy).
  CachingServiceClient make_client(std::shared_ptr<AdaptivePolicy> adaptive) {
    CachingServiceClient::Options options;
    options.policy.cacheable("echoPolygon", std::chrono::hours(1),
                             Representation::Auto);
    options.policy.cacheable("echoString", std::chrono::hours(1),
                             Representation::Auto);
    options.adaptive = adaptive;
    if (adaptive) {
      last_profiles = adaptive->profiles();
    } else {
      last_profiles = std::make_shared<obs::CostProfiles>();
      options.profiles = last_profiles;
      options.profile_sample_every = 1;
    }
    return CachingServiceClient(transport, test_description(), kEndpoint,
                                std::make_shared<ResponseCache>(),
                                std::move(options));
  }

  static std::shared_ptr<AdaptivePolicy> make_policy(
      double sample_fraction = 1.0) {
    AdaptivePolicy::Config config;
    config.objective = AdaptiveObjective::Latency;
    config.sample_fraction = sample_fraction;
    // Decisions only when the test says so (decide_now).
    config.decision_interval = std::chrono::hours(24);
    return std::make_shared<AdaptivePolicy>(
        std::make_shared<obs::CostProfiles>(), config);
  }

  static std::vector<Parameter> poly_params(int seed) {
    Polygon p = reflect::testing::sample_polygon();
    p.name = "poly-" + std::to_string(seed);
    return {{"p", Object::make(p)}};
  }

  std::shared_ptr<transport::InProcessTransport> transport;
  /// Registry the most recent make_client() wired into the middleware.
  std::shared_ptr<obs::CostProfiles> last_profiles;
};

TEST_F(AdaptiveClientFixture, ProbesFeedProfilesWithoutTouchingCounters) {
  auto policy = make_policy(/*sample_fraction=*/1.0);
  auto client = make_client(policy);
  for (int i = 0; i < 8; ++i)
    client.invoke("echoPolygon", poly_params(i));  // 8 distinct misses
  EXPECT_EQ(policy->explore_stores(), 8u);

  bool saw_probe_row = false, saw_serving_row = false;
  for (const obs::CostProfiles::Row& row : policy->profiles()->snapshot()) {
    if (row.operation != "echoPolygon") continue;
    if (row.representation ==
        representation_name(Representation::ReflectionCopy)) {
      // The serving (auto_select) representation: real misses.
      saw_serving_row = true;
      EXPECT_EQ(row.misses, 8u);
    } else {
      // Alternatives exist only through probes: latency/byte samples,
      // but NO traffic attribution.
      saw_probe_row = true;
      EXPECT_EQ(row.hits, 0u);
      EXPECT_EQ(row.misses, 0u);
      EXPECT_GT(row.hit_ns.count, 0u);
      EXPECT_GT(row.store_ns.count, 0u);
      EXPECT_GT(row.bytes_per_entry, 0.0);
    }
  }
  EXPECT_TRUE(saw_serving_row);
  EXPECT_TRUE(saw_probe_row);
}

TEST_F(AdaptiveClientFixture, ProfileRowsNeverSayAuto) {
  // Regression: with the policy representation configured as Auto, every
  // profile row must carry the RESOLVED representation — with and without
  // the adaptive policy attached.
  for (const bool with_adaptive : {false, true}) {
    auto policy = with_adaptive ? make_policy() : nullptr;
    auto client = make_client(policy);
    const std::shared_ptr<obs::CostProfiles> profiles = last_profiles;
    ASSERT_TRUE(profiles);
    client.invoke("echoPolygon", poly_params(1));
    client.invoke("echoPolygon", poly_params(1));  // one hit
    client.invoke("echoString", {{"s", Object::make(std::string("q"))}});
    const std::vector<obs::CostProfiles::Row> rows = profiles->snapshot();
    ASSERT_FALSE(rows.empty()) << "adaptive=" << with_adaptive;
    for (const obs::CostProfiles::Row& row : rows) {
      EXPECT_NE(row.representation, representation_name(Representation::Auto))
          << row.operation;
      EXPECT_TRUE(representation_from_name(row.representation).has_value())
          << row.representation;
    }
  }
}

TEST_F(AdaptiveClientFixture, SwitchChangesWhatNewStoresUse) {
  auto policy = make_policy(/*sample_fraction=*/0);
  auto client = make_client(policy);
  client.invoke("echoPolygon", poly_params(0));  // registers the op
  ASSERT_EQ(policy->current("echoPolygon"), Representation::ReflectionCopy);

  // Synthetic evidence: serialization is 10x cheaper on this host.
  obs::CostProfiles& profiles = *policy->profiles();
  const std::string service = client.description().name();
  for (int i = 0; i < 5; ++i) {
    profiles.record_probe(service, "echoPolygon",
                          representation_name(Representation::ReflectionCopy),
                          5000, 0, 4000);
    profiles.record_probe(service, "echoPolygon",
                          representation_name(Representation::Serialized), 500,
                          0, 2000);
  }
  policy->decide_now();
  ASSERT_EQ(policy->current("echoPolygon"), Representation::Serialized);

  // A NEW key now stores in the switched representation...
  client.invoke("echoPolygon", poly_params(1));
  const CacheKey key = client.key_for("echoPolygon", poly_params(1));
  std::shared_ptr<const CachedValue> entry =
      client.cache().lookup(key.ref()).value;
  ASSERT_TRUE(entry);
  EXPECT_EQ(entry->representation(), Representation::Serialized);
  // ...and still round-trips the object.
  Object hit = client.invoke("echoPolygon", poly_params(1));
  EXPECT_EQ(hit.as<Polygon>().name, "poly-1");

  // The pre-switch entry is untouched (representation is per-store).
  const CacheKey old_key = client.key_for("echoPolygon", poly_params(0));
  std::shared_ptr<const CachedValue> old_entry =
      client.cache().lookup(old_key.ref()).value;
  ASSERT_TRUE(old_entry);
  EXPECT_EQ(old_entry->representation(), Representation::ReflectionCopy);
}

TEST_F(AdaptiveClientFixture, NeverSelectsInapplicableRepresentation) {
  auto policy = make_policy(/*sample_fraction=*/1.0);
  auto client = make_client(policy);
  // Fabricate absurdly good rows for Pass by reference — inapplicable to
  // the mutable Polygon result, so the policy must never pick it.
  obs::CostProfiles& profiles = *policy->profiles();
  const std::string service = client.description().name();
  for (int i = 0; i < 10; ++i)
    profiles.record_probe(service, "echoPolygon",
                          representation_name(Representation::Reference), 1, 0,
                          1);
  for (int i = 0; i < 16; ++i) {
    client.invoke("echoPolygon", poly_params(i));
    if (i % 4 == 3) policy->decide_now();
  }
  EXPECT_NE(policy->current("echoPolygon"), Representation::Reference);
  // And no probe ever measured it from the client (the fabricated rows
  // above are the only Reference samples).
  for (const obs::CostProfiles::Row& row : profiles.snapshot()) {
    if (row.operation == "echoPolygon" &&
        row.representation == representation_name(Representation::Reference)) {
      EXPECT_EQ(row.hit_ns.count, 10u);
    }
  }
}

TEST_F(AdaptiveClientFixture, ExplicitRepresentationBypassesThePolicy) {
  auto policy = make_policy(/*sample_fraction=*/1.0);
  CachingServiceClient::Options options;
  options.policy.cacheable("echoPolygon", std::chrono::hours(1),
                           Representation::Serialized);  // administrator says
  options.adaptive = policy;
  CachingServiceClient client(transport, test_description(), kEndpoint,
                              std::make_shared<ResponseCache>(),
                              std::move(options));
  client.invoke("echoPolygon", poly_params(0));
  EXPECT_EQ(policy->operation_count(), 0u);  // never consulted
  EXPECT_EQ(policy->explore_stores(), 0u);   // never probed
  const CacheKey key = client.key_for("echoPolygon", poly_params(0));
  ASSERT_TRUE(client.cache().lookup(key.ref()).value);
  EXPECT_EQ(client.cache().lookup(key.ref()).value->representation(),
            Representation::Serialized);
}

TEST_F(AdaptiveClientFixture, AdaptiveSuppliesProfilesWhenUnset) {
  auto policy = make_policy();
  auto client = make_client(policy);
  client.invoke("echoPolygon", poly_params(0));
  // The client recorded its miss into the POLICY's registry — proof the
  // ctor shared it (one feedback loop, one source of truth).
  bool saw_miss = false;
  for (const obs::CostProfiles::Row& row : policy->profiles()->snapshot())
    if (row.operation == "echoPolygon" && row.misses > 0) saw_miss = true;
  EXPECT_TRUE(saw_miss);
}

}  // namespace
}  // namespace wsc::cache

// AdaptivePolicy decision engine under deterministic synthetic cost
// feeds: convergence to the known optimum per objective, drift
// switching, hysteresis, the memory-pressure objective override, and
// seed-reproducible sampling.  Every test drives its own ManualClock and
// its own CostProfiles registry — no wall clock, no wall RNG.
#include "core/adaptive_policy.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "obs/events.hpp"
#include "obs/profiles.hpp"
#include "tests/core/representation_params.hpp"
#include "util/clock.hpp"

namespace wsc::cache {
namespace {

constexpr const char* kService = "TestService";
constexpr const char* kOp = "doGoogleSearch";

/// Synthetic cost feed: n probe samples of (hit_ns, store_ns, bytes) for
/// one representation, exactly what the client's shadow probes record.
void feed(obs::CostProfiles& profiles, Representation r, std::uint64_t hit_ns,
          std::uint64_t bytes, int n = 3, std::uint64_t store_ns = 0) {
  for (int i = 0; i < n; ++i)
    profiles.record_probe(kService, kOp, representation_name(r), hit_ns,
                          store_ns, bytes);
}

struct Harness {
  explicit Harness(AdaptivePolicy::Config config) {
    profiles = std::make_shared<obs::CostProfiles>();
    policy = std::make_unique<AdaptivePolicy>(profiles, config, clock);
  }
  AdaptivePolicy::Choice choose(
      Representation static_choice = Representation::ReflectionCopy,
      const std::vector<Representation>& applicable =
          testing::copying_representations()) {
    return policy->choose(kService, kOp, static_choice, applicable);
  }
  util::ManualClock clock;
  std::shared_ptr<obs::CostProfiles> profiles;
  std::unique_ptr<AdaptivePolicy> policy;
};

AdaptivePolicy::Config config_for(AdaptiveObjective objective) {
  AdaptivePolicy::Config config;
  config.objective = objective;
  config.sample_fraction = 0;  // decision tests: no probe noise
  return config;
}

TEST(AdaptivePolicyTest, FirstChoiceIsTheStaticTraitChoice) {
  Harness h(config_for(AdaptiveObjective::Latency));
  AdaptivePolicy::Choice choice = h.choose(Representation::ReflectionCopy);
  EXPECT_EQ(choice.representation, Representation::ReflectionCopy);
  EXPECT_EQ(choice.probe, Representation::Auto);  // sampling off
  EXPECT_EQ(h.policy->current(kOp), Representation::ReflectionCopy);
  EXPECT_EQ(h.policy->current("neverSeen"), Representation::Auto);
}

TEST(AdaptivePolicyTest, ConvergesToLatencyOptimum) {
  Harness h(config_for(AdaptiveObjective::Latency));
  h.choose(Representation::ReflectionCopy);
  feed(*h.profiles, Representation::ReflectionCopy, 1000, 100);
  feed(*h.profiles, Representation::Serialized, 200, 100);
  feed(*h.profiles, Representation::XmlMessage, 5000, 100);
  const std::uint64_t switch_events =
      obs::event_log().count(obs::EventKind::AdaptiveSwitch);
  h.policy->decide_now();
  EXPECT_EQ(h.policy->current(kOp), Representation::Serialized);
  EXPECT_EQ(h.policy->decisions(), 1u);
  EXPECT_EQ(h.policy->switches(), 1u);
  EXPECT_EQ(obs::event_log().count(obs::EventKind::AdaptiveSwitch),
            switch_events + 1);
}

TEST(AdaptivePolicyTest, ConvergesToBytesOptimum) {
  Harness h(config_for(AdaptiveObjective::Bytes));
  h.choose(Representation::ReflectionCopy);
  // Serialized is the SLOWEST here but the smallest: the bytes objective
  // must pick it anyway.
  feed(*h.profiles, Representation::ReflectionCopy, 100, 12994);
  feed(*h.profiles, Representation::Serialized, 9999, 2530);
  feed(*h.profiles, Representation::SaxEvents, 500, 4200);
  h.policy->decide_now();
  EXPECT_EQ(h.policy->current(kOp), Representation::Serialized);
}

TEST(AdaptivePolicyTest, WeightedObjectiveTradesLatencyAgainstBytes) {
  Harness h(config_for(AdaptiveObjective::Weighted));  // alpha = beta = 1
  h.choose(Representation::ReflectionCopy);
  feed(*h.profiles, Representation::ReflectionCopy, 1000, 10000);  // J = 11000
  feed(*h.profiles, Representation::Serialized, 5000, 2000);       // J = 7000
  feed(*h.profiles, Representation::SaxEvents, 100, 20000);  // J = 20100
  h.policy->decide_now();
  EXPECT_EQ(h.policy->current(kOp), Representation::Serialized);
}

TEST(AdaptivePolicyTest, HysteresisHoldsSmallImprovements) {
  Harness h(config_for(AdaptiveObjective::Latency));  // min_improvement 5%
  h.choose(Representation::ReflectionCopy);
  feed(*h.profiles, Representation::ReflectionCopy, 1000, 100);
  feed(*h.profiles, Representation::Serialized, 970, 100);  // only 3% better
  h.policy->decide_now();
  EXPECT_EQ(h.policy->current(kOp), Representation::ReflectionCopy);
  EXPECT_EQ(h.policy->switches(), 0u);
  // A decisive improvement in the next epoch does switch (EWMA folds the
  // new samples in: 0.4 * 500 + 0.6 * 970 = 782 < 950).
  feed(*h.profiles, Representation::Serialized, 500, 100);
  h.policy->decide_now();
  EXPECT_EQ(h.policy->current(kOp), Representation::Serialized);
  EXPECT_EQ(h.policy->switches(), 1u);
}

TEST(AdaptivePolicyTest, MinSamplesGateHoldsThinEvidence) {
  Harness h(config_for(AdaptiveObjective::Latency));  // min_samples 3
  h.choose(Representation::ReflectionCopy);
  feed(*h.profiles, Representation::ReflectionCopy, 1000, 100);
  feed(*h.profiles, Representation::Serialized, 10, 100, /*n=*/2);
  h.policy->decide_now();
  EXPECT_EQ(h.policy->current(kOp), Representation::ReflectionCopy);
  feed(*h.profiles, Representation::Serialized, 10, 100, /*n=*/1);  // third
  h.policy->decide_now();
  EXPECT_EQ(h.policy->current(kOp), Representation::Serialized);
}

TEST(AdaptivePolicyTest, UnmeasuredIncumbentHolds) {
  Harness h(config_for(AdaptiveObjective::Latency));
  h.choose(Representation::ReflectionCopy);
  // Only a challenger has data: with nothing to compare against, the
  // policy must not leap.
  feed(*h.profiles, Representation::Serialized, 10, 100);
  h.policy->decide_now();
  EXPECT_EQ(h.policy->current(kOp), Representation::ReflectionCopy);
  EXPECT_EQ(h.policy->switches(), 0u);
}

TEST(AdaptivePolicyTest, DriftTriggersReSwitch) {
  Harness h(config_for(AdaptiveObjective::Latency));
  h.choose(Representation::ReflectionCopy);
  feed(*h.profiles, Representation::ReflectionCopy, 1000, 100);
  feed(*h.profiles, Representation::Serialized, 200, 100);
  feed(*h.profiles, Representation::SaxEvents, 1500, 100);
  h.policy->decide_now();
  ASSERT_EQ(h.policy->current(kOp), Representation::Serialized);
  // Payload shape drifts: serialization degrades, SAX replay improves.
  // EWMA after one epoch: Serialized 0.4*5000 + 0.6*200 = 2120,
  // SaxEvents 0.4*100 + 0.6*1500 = 940 < 2014 -> switch.
  feed(*h.profiles, Representation::Serialized, 5000, 100);
  feed(*h.profiles, Representation::SaxEvents, 100, 100);
  h.policy->decide_now();
  EXPECT_EQ(h.policy->current(kOp), Representation::SaxEvents);
  EXPECT_EQ(h.policy->switches(), 2u);
}

TEST(AdaptivePolicyTest, NeverSelectsOrProbesInapplicable) {
  AdaptivePolicy::Config config = config_for(AdaptiveObjective::Latency);
  config.sample_fraction = 1.0;  // probe on every store
  Harness h(config);
  const std::vector<Representation> applicable = {
      Representation::XmlMessage, Representation::SaxEvents};
  // Reference and Serialized get spectacular (but inapplicable) rows —
  // the result type is a mutable non-serializable object, say.
  feed(*h.profiles, Representation::Reference, 1, 1);
  feed(*h.profiles, Representation::Serialized, 1, 1);
  feed(*h.profiles, Representation::XmlMessage, 5000, 100);
  feed(*h.profiles, Representation::SaxEvents, 800, 100);
  for (int i = 0; i < 200; ++i) {
    AdaptivePolicy::Choice c =
        h.choose(Representation::SaxEvents, applicable);
    EXPECT_TRUE(c.representation == Representation::XmlMessage ||
                c.representation == Representation::SaxEvents);
    EXPECT_TRUE(c.probe == Representation::Auto ||
                c.probe == Representation::XmlMessage ||
                c.probe == Representation::SaxEvents)
        << representation_name(c.probe);
    if (i == 100) h.policy->decide_now();
  }
  EXPECT_NE(h.policy->current(kOp), Representation::Reference);
  EXPECT_NE(h.policy->current(kOp), Representation::Serialized);
}

TEST(AdaptivePolicyTest, ProbesRoundRobinTheAlternatives) {
  AdaptivePolicy::Config config = config_for(AdaptiveObjective::Latency);
  config.sample_fraction = 1.0;
  Harness h(config);
  const std::vector<Representation> applicable = {
      Representation::XmlMessage, Representation::Serialized,
      Representation::ReflectionCopy};
  std::vector<Representation> probes;
  for (int i = 0; i < 6; ++i)
    probes.push_back(h.choose(Representation::ReflectionCopy, applicable).probe);
  // Current (ReflectionCopy) is never probed; the others alternate.
  EXPECT_EQ(probes, (std::vector<Representation>{
                        Representation::XmlMessage, Representation::Serialized,
                        Representation::XmlMessage, Representation::Serialized,
                        Representation::XmlMessage, Representation::Serialized}));
  EXPECT_EQ(h.policy->explore_stores(), 6u);
}

TEST(AdaptivePolicyTest, MemoryPressureForcesBytesObjectiveWithHysteresis) {
  Harness h(config_for(AdaptiveObjective::Latency));
  std::atomic<std::uint64_t> bytes{0};
  h.policy->set_bytes_signal([&] { return bytes.load(); },
                             /*budget_bytes=*/1000);
  h.choose(Representation::ReflectionCopy);
  // Latency favors ReflectionCopy; bytes favor Serialized.
  feed(*h.profiles, Representation::ReflectionCopy, 100, 12994);
  feed(*h.profiles, Representation::Serialized, 1000, 2530);
  const std::uint64_t pressure_events =
      obs::event_log().count(obs::EventKind::MemoryPressure);
  h.policy->decide_now();
  EXPECT_EQ(h.policy->current(kOp), Representation::ReflectionCopy);
  EXPECT_FALSE(h.policy->memory_pressure());

  bytes = 950;  // > 0.90 * budget: enter pressure
  h.policy->decide_now();
  EXPECT_TRUE(h.policy->memory_pressure());
  EXPECT_EQ(h.policy->current(kOp), Representation::Serialized);
  EXPECT_EQ(h.policy->pressure_transitions(), 1u);

  bytes = 800;  // inside the hysteresis band: stays under pressure
  h.policy->decide_now();
  EXPECT_TRUE(h.policy->memory_pressure());
  EXPECT_EQ(h.policy->current(kOp), Representation::Serialized);

  bytes = 500;  // < 0.70 * budget: exit, latency objective resumes
  h.policy->decide_now();
  EXPECT_FALSE(h.policy->memory_pressure());
  EXPECT_EQ(h.policy->current(kOp), Representation::ReflectionCopy);
  EXPECT_EQ(h.policy->pressure_transitions(), 2u);
  EXPECT_EQ(obs::event_log().count(obs::EventKind::MemoryPressure),
            pressure_events + 2);
}

TEST(AdaptivePolicyTest, DecisionsTickOnTheInjectedClockOnly) {
  AdaptivePolicy::Config config = config_for(AdaptiveObjective::Latency);
  config.decision_interval = std::chrono::milliseconds(1000);
  Harness h(config);
  h.choose();  // arms the interval
  h.clock.advance(std::chrono::milliseconds(999));
  h.choose();
  EXPECT_EQ(h.policy->decisions(), 0u);
  h.clock.advance(std::chrono::milliseconds(2));
  h.choose();
  EXPECT_EQ(h.policy->decisions(), 1u);
  // The tick re-arms from the decision, not from every store.
  h.clock.advance(std::chrono::milliseconds(500));
  h.choose();
  EXPECT_EQ(h.policy->decisions(), 1u);
}

TEST(AdaptivePolicyTest, SampleStreamIsSeedReproducible) {
  AdaptivePolicy::Config config = config_for(AdaptiveObjective::Latency);
  config.sample_fraction = 0.25;
  config.seed = 42;
  auto run = [](const AdaptivePolicy::Config& c) {
    Harness h(c);
    std::vector<Representation> probes;
    for (int i = 0; i < 400; ++i) probes.push_back(h.choose().probe);
    return probes;
  };
  const std::vector<Representation> a = run(config);
  const std::vector<Representation> b = run(config);
  EXPECT_EQ(a, b);  // same seed -> identical exploration, sample by sample
  AdaptivePolicy::Config other = config;
  other.seed = 43;
  EXPECT_NE(a, run(other));  // and the seed genuinely drives it
}

TEST(AdaptivePolicyTest, SnapshotAndJsonExposeTheModel) {
  Harness h(config_for(AdaptiveObjective::Weighted));
  h.choose(Representation::ReflectionCopy);
  feed(*h.profiles, Representation::ReflectionCopy, 1000, 10000);
  feed(*h.profiles, Representation::Serialized, 100, 2000);
  h.policy->decide_now();
  const std::vector<AdaptivePolicy::OperationState> ops = h.policy->snapshot();
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].service, kService);
  EXPECT_EQ(ops[0].operation, kOp);
  EXPECT_EQ(ops[0].representation, Representation::Serialized);
  EXPECT_EQ(ops[0].static_choice, Representation::ReflectionCopy);
  EXPECT_EQ(ops[0].switches, 1u);
  ASSERT_EQ(ops[0].candidates.size(),
            testing::copying_representations().size());
  bool saw_serialized = false;
  for (const auto& c : ops[0].candidates)
    if (c.representation == Representation::Serialized) {
      saw_serialized = true;
      EXPECT_NEAR(c.hit_ns, 100, 1e-6);
      EXPECT_NEAR(c.bytes_per_entry, 2000, 1e-6);
      EXPECT_GE(c.score, 0);
    }
  EXPECT_TRUE(saw_serialized);

  const std::string json = h.policy->json();
  EXPECT_NE(json.find("\"objective\": \"weighted\""), std::string::npos);
  EXPECT_NE(json.find("\"operation\": \"doGoogleSearch\""), std::string::npos);
  EXPECT_NE(json.find("\"representation\": \"Java serialization\""),
            std::string::npos);
  EXPECT_NE(json.find("\"memory_pressure\": false"), std::string::npos);
}

}  // namespace
}  // namespace wsc::cache

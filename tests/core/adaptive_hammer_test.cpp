// Adaptive-policy hammer: choose()/probe feeds raced against the decision
// tick, snapshots and JSON rendering.  The assertions are cheap global
// invariants — the real job is giving TSan (ctest -L adaptive under the
// tsan preset) dense interleavings of:
//   per-op RNG draws + probe cursor bumps    vs  decide_now()'s model refresh
//   CostProfiles::record_* feeds             vs  snapshot()/json() readers
//   the memory-pressure bytes signal         vs  watermark transitions
// Iteration counts are modest: the suite must stay fast under TSan's
// ~10x slowdown on single-core CI runners.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

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

TEST(AdaptiveHammerTest, ChooseAndFeedsRaceTheDecisionLoop) {
  constexpr int kThreads = 4;
  constexpr int kIters = 800;
  auto profiles = std::make_shared<obs::CostProfiles>();
  AdaptivePolicy::Config config;
  config.sample_fraction = 0.5;
  config.decision_interval = std::chrono::milliseconds(1);  // ticks constantly
  config.min_samples = 1;
  AdaptivePolicy policy(profiles, config);
  std::atomic<std::uint64_t> bytes{0};
  policy.set_bytes_signal([&] { return bytes.load(std::memory_order_relaxed); },
                          /*budget_bytes=*/1000);

  const std::vector<Representation> applicable = {
      Representation::XmlMessage, Representation::Serialized,
      Representation::ReflectionCopy};
  const char* const ops[] = {"opA", "opB", "opC"};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const std::string op = ops[(t + i) % 3];
        const AdaptivePolicy::Choice choice = policy.choose(
            "Svc", op, Representation::ReflectionCopy, applicable);
        // Whatever it picked must be applicable (and never Auto).
        EXPECT_NE(choice.representation, Representation::Auto);
        // Feed the models like the middleware would: the chosen rep takes
        // traffic, the probe (if any) takes a shadow sample.
        obs::CallSample call;
        call.service = "Svc";
        call.operation = op;
        call.representation = representation_name(choice.representation);
        call.outcome = obs::Outcome::Miss;
        call.stage_ns[static_cast<std::size_t>(obs::Stage::Deserialize)] = 1000;
        call.stage_ns[static_cast<std::size_t>(obs::Stage::Store)] = 2000;
        call.entry_bytes = 512;
        profiles->record(call);
        if (i % 3 == 0) {
          call.outcome = obs::Outcome::Hit;
          call.stage_ns[static_cast<std::size_t>(obs::Stage::Retrieve)] =
              700 + 100 * t;
          profiles->record(call);
        }
        if (choice.probe != Representation::Auto)
          profiles->record_probe("Svc", op, representation_name(choice.probe),
                                 500 + 50 * t, 900, 256 + 64 * (t % 3));
        // Oscillate the pressure signal across both watermarks.
        if (i % 50 == 0)
          bytes.store((i % 100 == 0) ? 990 : 100, std::memory_order_relaxed);
      }
    });
  }
  std::thread decider([&] {
    for (int i = 0; i < 200; ++i) {
      policy.decide_now();
      (void)policy.snapshot();
      if (i % 10 == 0) (void)policy.json();
      std::this_thread::yield();
    }
  });
  for (auto& th : threads) th.join();
  decider.join();

  EXPECT_EQ(policy.operation_count(), 3u);
  EXPECT_GE(policy.decisions(), 200u);
  EXPECT_GT(policy.explore_stores(), 0u);
  for (const char* op : ops) {
    const Representation current = policy.current(op);
    EXPECT_TRUE(current == Representation::XmlMessage ||
                current == Representation::Serialized ||
                current == Representation::ReflectionCopy)
        << representation_name(current);
  }
  // The final snapshot is internally consistent.
  for (const AdaptivePolicy::OperationState& op : policy.snapshot()) {
    EXPECT_EQ(op.candidates.size(), applicable.size());
    for (const AdaptivePolicy::OperationState::RepScore& c : op.candidates)
      EXPECT_NE(c.representation, Representation::Auto);
  }
}

TEST(AdaptiveHammerTest, ConcurrentClientInvokesWithProbesEverywhere) {
  // Whole-middleware version: real invokes over the in-process transport
  // with sample_fraction=1.0, so every miss runs a shadow probe while
  // other threads hit the same keys and a decider re-evaluates.
  auto transport = std::make_shared<transport::InProcessTransport>();
  transport->bind("inproc://svc/adaptive-hammer", make_test_service());

  AdaptivePolicy::Config config;
  config.sample_fraction = 1.0;
  config.decision_interval = std::chrono::milliseconds(1);
  config.min_samples = 1;
  auto policy = std::make_shared<AdaptivePolicy>(
      std::make_shared<obs::CostProfiles>(), config);

  CachingServiceClient::Options options;
  options.policy.cacheable("echoPolygon", std::chrono::hours(1),
                           Representation::Auto);
  options.adaptive = policy;
  CachingServiceClient client(transport, test_description(),
                              "inproc://svc/adaptive-hammer",
                              std::make_shared<ResponseCache>(),
                              std::move(options));

  constexpr int kThreads = 4;
  constexpr int kIters = 120;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        Polygon p = reflect::testing::sample_polygon();
        // Small key space: threads race hits on each other's stores.
        p.name = "h-" + std::to_string((t * 3 + i) % 10);
        const Object out =
            client.invoke("echoPolygon", {{"p", Object::make(p)}});
        EXPECT_EQ(out.as<Polygon>().name, p.name);
      }
    });
  }
  std::thread decider([&] {
    for (int i = 0; i < 60; ++i) {
      policy->decide_now();
      (void)policy->json();
      std::this_thread::yield();
    }
  });
  for (auto& th : threads) th.join();
  decider.join();

  EXPECT_EQ(policy->operation_count(), 1u);
  EXPECT_GT(policy->explore_stores(), 0u);
  // Probes fed alternative rows without inventing traffic: only the
  // serving representation(s) may carry hit/miss counts.
  for (const obs::CostProfiles::Row& row : policy->profiles()->snapshot()) {
    if (row.hits + row.misses == 0) {
      EXPECT_GT(row.hit_ns.count, 0u) << row.representation;
    }
  }
}

}  // namespace
}  // namespace wsc::cache

// CachingServiceClient middleware behaviour over the in-process transport.
#include "core/client.hpp"

#include <gtest/gtest.h>

#include "reflect/algorithms.hpp"
#include "tests/core/representation_params.hpp"
#include "tests/soap/test_service.hpp"
#include "transport/inproc_transport.hpp"
#include "util/error.hpp"

namespace wsc::cache {
namespace {

using reflect::Object;
using soap::Parameter;
using wsc::soap::testing::make_test_service;
using wsc::soap::testing::Polygon;
using wsc::soap::testing::test_description;

constexpr const char* kEndpoint = "inproc://svc/test";

/// Counts calls that actually reach the service (i.e. cache misses).
class CountingService {
 public:
  CountingService() {
    transport_ = std::make_shared<transport::InProcessTransport>();
    auto service = make_test_service();
    // Wrap echoString to count invocations.
    service->bind("echoString", [this](const std::vector<Parameter>& p) {
      ++calls_;
      return Object::make("echo:" + p.at(0).value.as<std::string>());
    });
    service->bind("echoPolygon", [this](const std::vector<Parameter>& p) {
      ++calls_;
      return Object::make(p.at(0).value.as<Polygon>());
    });
    transport_->bind(kEndpoint, service);
  }

  std::shared_ptr<transport::InProcessTransport> transport() { return transport_; }
  int calls() const { return calls_; }

 private:
  std::shared_ptr<transport::InProcessTransport> transport_;
  int calls_ = 0;
};

CachingServiceClient make_client(CountingService& svc,
                                 CachingServiceClient::Options options,
                                 std::shared_ptr<ResponseCache> cache = nullptr) {
  if (!cache) cache = std::make_shared<ResponseCache>();
  return CachingServiceClient(svc.transport(), test_description(), kEndpoint,
                              std::move(cache), std::move(options));
}

std::vector<Parameter> echo_params(const std::string& s) {
  return {{"s", Object::make(s)}};
}

CachingServiceClient::Options cacheable_options(
    Representation rep = Representation::Auto,
    KeyMethod key = KeyMethod::ToString) {
  CachingServiceClient::Options o;
  o.key_method = key;
  o.policy.cacheable("echoString", std::chrono::hours(1), rep);
  o.policy.cacheable("echoPolygon", std::chrono::hours(1), rep);
  return o;
}

TEST(ClientTest, SecondIdenticalCallServedFromCache) {
  CountingService svc;
  auto client = make_client(svc, cacheable_options());
  EXPECT_EQ(client.invoke("echoString", echo_params("x")).as<std::string>(),
            "echo:x");
  EXPECT_EQ(client.invoke("echoString", echo_params("x")).as<std::string>(),
            "echo:x");
  EXPECT_EQ(svc.calls(), 1);
  EXPECT_EQ(client.cache().stats().hits, 1u);
}

TEST(ClientTest, DifferentParamsMissSeparately) {
  CountingService svc;
  auto client = make_client(svc, cacheable_options());
  client.invoke("echoString", echo_params("x"));
  client.invoke("echoString", echo_params("y"));
  EXPECT_EQ(svc.calls(), 2);
  EXPECT_EQ(client.cache().entry_count(), 2u);
}

TEST(ClientTest, UncacheableOperationAlwaysCallsService) {
  CountingService svc;
  CachingServiceClient::Options options;  // nothing cacheable
  auto client = make_client(svc, options);
  client.invoke("echoString", echo_params("x"));
  client.invoke("echoString", echo_params("x"));
  EXPECT_EQ(svc.calls(), 2);
  EXPECT_EQ(client.cache().stats().uncacheable, 2u);
  EXPECT_EQ(client.cache().entry_count(), 0u);
}

TEST(ClientTest, CachingCanBeDisabledAtRuntime) {
  CountingService svc;
  auto client = make_client(svc, cacheable_options());
  client.invoke("echoString", echo_params("x"));
  client.set_caching_enabled(false);
  client.invoke("echoString", echo_params("x"));
  EXPECT_EQ(svc.calls(), 2);
  client.set_caching_enabled(true);
  client.invoke("echoString", echo_params("x"));
  EXPECT_EQ(svc.calls(), 2);  // entry still present
}

class ClientRepresentations : public ::testing::TestWithParam<Representation> {};

TEST_P(ClientRepresentations, HitReturnsEqualObject) {
  CountingService svc;
  auto client = make_client(svc, cacheable_options(GetParam()));
  Object polygon = Object::make(reflect::testing::sample_polygon());
  Object miss = client.invoke("echoPolygon", {{"p", polygon}});
  Object hit = client.invoke("echoPolygon", {{"p", polygon}});
  EXPECT_EQ(svc.calls(), 1);
  EXPECT_TRUE(reflect::deep_equals(miss, hit));
}

INSTANTIATE_TEST_SUITE_P(
    Representations, ClientRepresentations,
    ::testing::ValuesIn(testing::copying_representations_and_auto()));

TEST(ClientTest, MutatingMissResultDoesNotPoisonCache) {
  CountingService svc;
  auto client =
      make_client(svc, cacheable_options(Representation::ReflectionCopy));
  Object polygon = Object::make(reflect::testing::sample_polygon());
  Object miss = client.invoke("echoPolygon", {{"p", polygon}});
  miss.as<Polygon>().name = "MUTATED AFTER MISS";
  Object hit = client.invoke("echoPolygon", {{"p", polygon}});
  EXPECT_EQ(hit.as<Polygon>().name, "triangle");
}

TEST(ClientTest, ReadOnlyDeclarationEnablesSharing) {
  CountingService svc;
  CachingServiceClient::Options options;
  OperationPolicy p;
  p.cacheable = true;
  p.read_only = true;  // administrator declares the app never mutates
  options.policy.set("echoPolygon", p);
  auto client = make_client(svc, options);

  Object polygon = Object::make(reflect::testing::sample_polygon());
  Object miss = client.invoke("echoPolygon", {{"p", polygon}});
  Object hit = client.invoke("echoPolygon", {{"p", polygon}});
  EXPECT_EQ(miss.data(), hit.data());  // same shared instance
}

TEST(ClientTest, InapplicableExplicitRepresentationThrows) {
  CountingService svc;
  // echoString returns an immutable String: reflection copy is n/a.
  auto client =
      make_client(svc, cacheable_options(Representation::ReflectionCopy));
  EXPECT_THROW(client.invoke("echoString", echo_params("x")),
               SerializationError);
  EXPECT_EQ(svc.calls(), 0);  // detected before going to the wire
}

TEST(ClientTest, ExplicitReferenceOnMutableTypeThrowsWithoutDeclaration) {
  CountingService svc;
  auto client = make_client(svc, cacheable_options(Representation::Reference));
  EXPECT_THROW(client.invoke("echoPolygon",
                             {{"p", Object::make(reflect::testing::sample_polygon())}}),
               SerializationError);
}

TEST(ClientTest, FaultsPropagateAndAreNotCached) {
  CountingService svc;
  CachingServiceClient::Options options;
  options.policy.cacheable("failOp");
  auto client = make_client(svc, options);
  EXPECT_THROW(client.invoke("failOp", {{"msg", Object::make(std::string("m"))}}),
               soap::SoapFault);
  EXPECT_EQ(client.cache().entry_count(), 0u);
  // Second call fails again — nothing poisoned the cache.
  EXPECT_THROW(client.invoke("failOp", {{"msg", Object::make(std::string("m"))}}),
               soap::SoapFault);
}

TEST(ClientTest, VoidOperationsCacheable) {
  CountingService svc;
  CachingServiceClient::Options options;
  options.policy.cacheable("voidOp");
  auto client = make_client(svc, options);
  EXPECT_TRUE(client.invoke("voidOp", {{"x", Object::make(std::int32_t{1})}}).is_null());
  EXPECT_TRUE(client.invoke("voidOp", {{"x", Object::make(std::int32_t{1})}}).is_null());
  EXPECT_EQ(client.cache().stats().hits, 1u);
}

TEST(ClientTest, UnknownOperationRejected) {
  CountingService svc;
  auto client = make_client(svc, cacheable_options());
  EXPECT_THROW(client.invoke("ghost", {}), Error);
}

TEST(ClientTest, WrongArityRejectedLocally) {
  CountingService svc;
  auto client = make_client(svc, cacheable_options());
  EXPECT_THROW(client.invoke("echoString", {}), Error);
  EXPECT_EQ(svc.calls(), 0);
}

TEST(ClientTest, TtlExpiryTriggersRefetch) {
  CountingService svc;
  CachingServiceClient::Options options;
  options.policy.cacheable("echoString", std::chrono::milliseconds(0));
  auto client = make_client(svc, options);
  client.invoke("echoString", echo_params("x"));
  client.invoke("echoString", echo_params("x"));
  EXPECT_EQ(svc.calls(), 2);  // zero TTL: everything expires instantly
}

TEST(ClientTest, ExplicitInvalidation) {
  CountingService svc;
  auto client = make_client(svc, cacheable_options());
  client.invoke("echoString", echo_params("x"));
  EXPECT_TRUE(client.invalidate("echoString", echo_params("x")));
  client.invoke("echoString", echo_params("x"));
  EXPECT_EQ(svc.calls(), 2);
}

TEST(ClientTest, SharedCacheAcrossClients) {
  CountingService svc;
  auto cache = std::make_shared<ResponseCache>();
  auto a = make_client(svc, cacheable_options(), cache);
  auto b = make_client(svc, cacheable_options(), cache);
  a.invoke("echoString", echo_params("x"));
  b.invoke("echoString", echo_params("x"));
  EXPECT_EQ(svc.calls(), 1);  // b hit a's entry
}

TEST(ClientTest, KeyMethodsInteroperateWithinOneClient) {
  for (KeyMethod m : {KeyMethod::XmlMessage, KeyMethod::Serialization,
                      KeyMethod::ToString}) {
    CountingService svc;
    auto client = make_client(svc, cacheable_options(Representation::Auto, m));
    client.invoke("echoString", echo_params("q"));
    client.invoke("echoString", echo_params("q"));
    EXPECT_EQ(svc.calls(), 1) << key_method_name(m);
  }
}

TEST(ClientTest, ServerNoStoreDirectiveSuppressesStoring) {
  CountingService svc;
  http::CacheDirectives no_store;
  no_store.no_store = true;
  // Rebind at a second endpoint that advertises no-store.
  auto service = make_test_service();
  svc.transport()->bind("inproc://svc/nostore", service, no_store);

  CachingServiceClient::Options options = cacheable_options();
  auto cache = std::make_shared<ResponseCache>();
  CachingServiceClient client(svc.transport(), test_description(),
                              "inproc://svc/nostore", cache, options);
  client.invoke("echoString", echo_params("x"));
  EXPECT_EQ(cache->entry_count(), 0u);
}

TEST(ClientTest, NullDependenciesRejected) {
  CountingService svc;
  auto cache = std::make_shared<ResponseCache>();
  EXPECT_THROW(CachingServiceClient(nullptr, test_description(), kEndpoint,
                                    cache, {}),
               Error);
  EXPECT_THROW(CachingServiceClient(svc.transport(), nullptr, kEndpoint, cache, {}),
               Error);
  EXPECT_THROW(CachingServiceClient(svc.transport(), test_description(),
                                    kEndpoint, nullptr, {}),
               Error);
}

}  // namespace
}  // namespace wsc::cache

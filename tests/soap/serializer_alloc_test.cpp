// serialize_response allocates for output growth only.
//
// Every composed string the serializer needs (a struct's xsi:type, an
// array's soapenc:arrayType, the response wrapper's name, a primitive's
// text) is built in one scratch string reused for the whole message, and
// a primitive's xsi:type is its row's static name.  So the allocation
// count must not grow with the number of struct and array values.
//
// The bound, stated before measuring: going from a doGoogleSearch result
// with 1 ResultElement to one with 10 may add no more allocations than the
// output buffer's extra doublings, ceil(log2(size10 / size1)).  Every
// other allocation (the writer's element stack, the scratch string, the
// returned message) is the same for both.  Counted with the binary-wide
// counting operator new (tests/core/alloc_counter.cpp).
#include <gtest/gtest.h>

#include <cmath>

#include "services/google/service.hpp"
#include "soap/serializer.hpp"
#include "tests/core/alloc_counter.hpp"

namespace wsc::soap {
namespace {

using reflect::Object;

struct Measured {
  std::size_t allocations;
  std::size_t size;
};

Measured serialize_counted(const wsdl::OperationInfo& op,
                           const Object& result) {
  serialize_response(op, "urn:GoogleSearch", result);  // warm lazy statics
  wsc::testing::arm_alloc_counter();
  std::string message = serialize_response(op, "urn:GoogleSearch", result);
  std::size_t allocations = wsc::testing::disarm_alloc_counter();
  return {allocations, message.size()};
}

TEST(SerializerAllocTest, ResponseAllocationsDoNotGrowWithValueCount) {
  auto description = services::google::google_description();
  const wsdl::OperationInfo& op =
      description->require_operation("doGoogleSearch");
  services::google::GoogleBackend backend;
  Object one = Object::make(backend.search("web services caching", 0, 1));
  Object ten = Object::make(backend.search("web services caching", 0, 10));
  ASSERT_EQ(one.as<services::google::GoogleSearchResult>()
                .resultElements.size(), 1u);
  ASSERT_EQ(ten.as<services::google::GoogleSearchResult>()
                .resultElements.size(), 10u);

  Measured m1 = serialize_counted(op, one);
  Measured m10 = serialize_counted(op, ten);
  const auto doublings = static_cast<std::size_t>(std::ceil(
      std::log2(static_cast<double>(m10.size) / static_cast<double>(m1.size))));
  EXPECT_LE(m10.allocations, m1.allocations + doublings)
      << "1 result: " << m1.allocations << " allocations for " << m1.size
      << " B; 10 results: " << m10.allocations << " allocations for "
      << m10.size << " B";
}

}  // namespace
}  // namespace wsc::soap

// soapcall — generic dynamic invoker: call any operation of a built-in
// service contract over HTTP, building parameters from the command line
// and rendering the result reflectively.
//
//   build/tools/soapcall <endpoint-url> <google|amazon|quotes|news> \
//                        <operation> [name=value ...] [--xml] [--twice]
//
//   --xml    print the raw response document instead of the decoded object
//   --twice  invoke twice through a response cache and report the hit
//
// Example against a locally served dummy (see examples/quickstart):
//   build/tools/soapcall http://127.0.0.1:8080/soap/google google \
//       doSpellingSuggestion key=k phrase="web servies" --twice
#include <cstdio>
#include <cstring>
#include <string>

#include "core/client.hpp"
#include "reflect/algorithms.hpp"
#include "services/amazon/service.hpp"
#include "services/google/service.hpp"
#include "services/news/service.hpp"
#include "services/quotes/service.hpp"
#include "soap/serializer.hpp"
#include "transport/http_transport.hpp"

using namespace wsc;
using reflect::Object;

namespace {

std::shared_ptr<const wsdl::ServiceDescription> description_for(
    const std::string& name) {
  if (name == "google") return services::google::google_description();
  if (name == "amazon") return services::amazon::amazon_description();
  if (name == "quotes") return services::quotes::quotes_description();
  if (name == "news") return services::news::news_description();
  return nullptr;
}

/// Build a parameter object from its WSDL-declared type and a CLI string.
Object parse_value(const reflect::TypeInfo& type, std::string text) {
  if (!type.ops)
    throw Error("soapcall: cannot build '" + type.name +
                "' parameters from the command line");
  std::shared_ptr<void> value = type.construct();
  type.ops->parse_text(text, value.get());
  return Object(std::move(value), &type);
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <endpoint-url> <google|amazon|quotes|news> "
               "<operation> [name=value ...] [--xml] [--twice]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) return usage(argv[0]);
  std::string endpoint = argv[1];
  auto description = description_for(argv[2]);
  if (!description) return usage(argv[0]);
  std::string operation = argv[3];

  bool want_xml = false, twice = false;
  std::vector<soap::Parameter> params;
  try {
    const wsdl::OperationInfo& op = description->require_operation(operation);
    for (int i = 4; i < argc; ++i) {
      if (std::strcmp(argv[i], "--xml") == 0) {
        want_xml = true;
        continue;
      }
      if (std::strcmp(argv[i], "--twice") == 0) {
        twice = true;
        continue;
      }
      std::string arg = argv[i];
      auto eq = arg.find('=');
      if (eq == std::string::npos) return usage(argv[0]);
      std::string name = arg.substr(0, eq);
      const wsdl::ParamSpec* spec = op.param(name);
      if (!spec) {
        std::fprintf(stderr, "operation '%s' has no parameter '%s'\n",
                     operation.c_str(), name.c_str());
        return 2;
      }
      params.push_back({name, parse_value(*spec->type, arg.substr(eq + 1))});
    }
    if (params.size() != op.params.size()) {
      std::fprintf(stderr, "operation '%s' needs %zu parameters, got %zu\n",
                   operation.c_str(), op.params.size(), params.size());
      return 2;
    }

    if (want_xml) {
      // Raw round trip, no decoding.
      soap::RpcRequest request;
      request.endpoint = endpoint;
      request.ns = description->target_namespace();
      request.operation = operation;
      request.params = params;
      transport::HttpTransport transport;
      transport::WireResponse wire =
          transport.post(util::Uri::parse(endpoint),
                         request.ns + "#" + operation,
                         soap::serialize_request(request));
      std::fwrite(wire.body.data(), 1, wire.body.size(), stdout);
      std::fputc('\n', stdout);
      return 0;
    }

    cache::CachingServiceClient::Options options;
    options.policy.cacheable(operation, std::chrono::hours(1));
    auto response_cache = std::make_shared<cache::ResponseCache>();
    cache::CachingServiceClient client(
        std::make_shared<transport::HttpTransport>(), description, endpoint,
        response_cache, options);

    auto invoke_and_print = [&](const char* label) {
      auto t0 = std::chrono::steady_clock::now();
      Object result = client.invoke(operation, params);
      double ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
      std::string rendered;
      try {
        rendered = reflect::to_string(result);
      } catch (const SerializationError&) {
        rendered = "<" + result.type().name + ", no printable form>";
      }
      std::printf("%s (%.3f ms): %s\n", label, ms, rendered.c_str());
    };
    invoke_and_print("call 1");
    if (twice) {
      invoke_and_print("call 2");
      std::printf("cache: %s\n", response_cache->stats().to_string().c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

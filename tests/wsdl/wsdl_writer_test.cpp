#include "wsdl/wsdl_writer.hpp"

#include <gtest/gtest.h>

#include "services/amazon/service.hpp"
#include "services/google/service.hpp"
#include "tests/reflect/test_types.hpp"
#include "tests/support/dom.hpp"

namespace wsc::wsdl {
namespace {

using reflect::testing::ensure_test_types;

TEST(XsdQnameTest, MapsAllKinds) {
  ensure_test_types();
  EXPECT_EQ(xsd_qname(reflect::type_of<bool>()), "xsd:boolean");
  EXPECT_EQ(xsd_qname(reflect::type_of<std::int32_t>()), "xsd:int");
  EXPECT_EQ(xsd_qname(reflect::type_of<std::int64_t>()), "xsd:long");
  EXPECT_EQ(xsd_qname(reflect::type_of<double>()), "xsd:double");
  EXPECT_EQ(xsd_qname(reflect::type_of<std::string>()), "xsd:string");
  EXPECT_EQ(xsd_qname(reflect::type_of<std::vector<std::uint8_t>>()),
            "xsd:base64Binary");
  EXPECT_EQ(xsd_qname(reflect::type_of<reflect::testing::Point>()),
            "typens:test.Point");
  EXPECT_EQ(xsd_qname(reflect::type_of<reflect::testing::Point>(), "ns1"),
            "ns1:test.Point");
}

TEST(WsdlWriterTest, GoogleWsdlIsWellFormed) {
  std::string doc = to_wsdl_xml(*services::google::google_description(),
                                "http://api.example/soap");
  xml::Document parsed = xml::parse_document(doc);
  EXPECT_EQ(parsed.root->name().local, "definitions");
  EXPECT_EQ(parsed.root->name().uri, "http://schemas.xmlsoap.org/wsdl/");
}

TEST(WsdlWriterTest, GoogleWsdlDeclaresAllSections) {
  std::string doc = to_wsdl_xml(*services::google::google_description(),
                                "http://api.example/soap");
  xml::Document parsed = xml::parse_document(doc);
  EXPECT_NE(parsed.root->child("types"), nullptr);
  EXPECT_EQ(parsed.root->children_named("message").size(), 6u);  // 3 ops x in/out
  EXPECT_NE(parsed.root->child("portType"), nullptr);
  EXPECT_NE(parsed.root->child("binding"), nullptr);
  EXPECT_NE(parsed.root->child("service"), nullptr);
}

TEST(WsdlWriterTest, ComplexTypesIncludeTransitiveClosure) {
  std::string doc = to_wsdl_xml(*services::google::google_description(),
                                "http://api.example/soap");
  // GoogleSearchResult pulls in ResultElement, DirectoryCategory and both
  // array wrappers.
  for (const char* name :
       {"GoogleSearchResult", "ResultElement", "DirectoryCategory",
        "ArrayOfResultElement", "ArrayOfDirectoryCategory"}) {
    EXPECT_NE(doc.find("\"" + std::string(name) + "\""), std::string::npos) << name;
  }
}

TEST(WsdlWriterTest, BindingIsRpcEncoded) {
  std::string doc = to_wsdl_xml(*services::google::google_description(),
                                "http://api.example/soap");
  EXPECT_NE(doc.find("style=\"rpc\""), std::string::npos);
  EXPECT_NE(doc.find("use=\"encoded\""), std::string::npos);
  EXPECT_NE(doc.find("soapAction=\"urn:GoogleSearch#doGoogleSearch\""),
            std::string::npos);
}

TEST(WsdlWriterTest, EndpointAddressEmbedded) {
  std::string doc = to_wsdl_xml(*services::google::google_description(),
                                "http://host:1234/svc");
  EXPECT_NE(doc.find("location=\"http://host:1234/svc\""), std::string::npos);
}

TEST(WsdlWriterTest, AmazonWsdlCoversAllTable1Operations) {
  std::string doc = to_wsdl_xml(*services::amazon::amazon_description(),
                                "http://aws.example/soap");
  xml::Document parsed = xml::parse_document(doc);
  // 20 search + 6 cart operations, each with request+response message.
  EXPECT_EQ(parsed.root->children_named("message").size(), 52u);
  for (const std::string& op : services::amazon::search_operations())
    EXPECT_NE(doc.find(op), std::string::npos) << op;
  for (const std::string& op : services::amazon::cart_operations())
    EXPECT_NE(doc.find(op), std::string::npos) << op;
}

}  // namespace
}  // namespace wsc::wsdl

#include "http/message.hpp"

#include <gtest/gtest.h>

namespace wsc::http {
namespace {

TEST(HeadersTest, SetReplacesCaseInsensitively) {
  Headers h;
  h.set("Content-Type", "text/xml");
  h.set("content-type", "text/html");
  EXPECT_EQ(h.all().size(), 1u);
  EXPECT_EQ(*h.get("CONTENT-TYPE"), "text/html");
}

TEST(HeadersTest, AddAppendsDuplicates) {
  Headers h;
  h.add("Set-Cookie", "a=1");
  h.add("Set-Cookie", "b=2");
  EXPECT_EQ(h.all().size(), 2u);
  EXPECT_EQ(*h.get("set-cookie"), "a=1");  // first match
}

TEST(HeadersTest, GetMissingReturnsNullopt) {
  Headers h;
  EXPECT_FALSE(h.get("X-Missing").has_value());
  EXPECT_FALSE(h.contains("X-Missing"));
}

TEST(RequestTest, ToBytesAddsContentLength) {
  Request r;
  r.method = "POST";
  r.target = "/soap";
  r.headers.set("Host", "h");
  r.body = "12345";
  std::string bytes = r.to_bytes();
  EXPECT_EQ(bytes.find("POST /soap HTTP/1.1\r\n"), 0u);
  EXPECT_NE(bytes.find("Content-Length: 5\r\n"), std::string::npos);
  EXPECT_NE(bytes.find("\r\n\r\n12345"), std::string::npos);
}

TEST(RequestTest, ExplicitContentLengthNotDuplicated) {
  Request r;
  r.headers.set("Content-Length", "0");
  std::string bytes = r.to_bytes();
  EXPECT_EQ(bytes.find("Content-Length"), bytes.rfind("Content-Length"));
}

// to_bytes() is pinned byte for byte, with and without a Content-Length
// header of the caller's.
TEST(RequestTest, ToBytesPinnedWithoutContentLength) {
  Request r;
  r.method = "POST";
  r.target = "/soap/google";
  r.headers.set("Host", "127.0.0.1:8080");
  r.headers.set("Content-Type", "text/xml; charset=utf-8");
  r.headers.set("SOAPAction", "\"urn:GoogleSearchAction\"");
  r.body = "<x/>";
  EXPECT_EQ(r.to_bytes(),
            "POST /soap/google HTTP/1.1\r\n"
            "Host: 127.0.0.1:8080\r\n"
            "Content-Type: text/xml; charset=utf-8\r\n"
            "SOAPAction: \"urn:GoogleSearchAction\"\r\n"
            "Content-Length: 4\r\n"
            "\r\n"
            "<x/>");
  EXPECT_EQ(Request{}.to_bytes(),
            "GET / HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
}

TEST(RequestTest, ToBytesPinnedWithContentLength) {
  Request r;
  r.method = "PUT";
  r.target = "/a?b=c";
  r.headers.set("Host", "h");
  r.headers.set("content-length", "3");
  r.headers.add("X-Tag", "1");
  r.body = "abc";
  EXPECT_EQ(r.to_bytes(),
            "PUT /a?b=c HTTP/1.1\r\n"
            "Host: h\r\n"
            "content-length: 3\r\n"
            "X-Tag: 1\r\n"
            "\r\n"
            "abc");
}

TEST(ResponseTest, ToBytesPinnedWithoutContentLength) {
  Response r;
  r.headers.set("Content-Type", "text/html");
  r.headers.set("Connection", "keep-alive");
  r.body = "<p>hi</p>";
  EXPECT_EQ(r.to_bytes(),
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/html\r\n"
            "Connection: keep-alive\r\n"
            "Content-Length: 9\r\n"
            "\r\n"
            "<p>hi</p>");
}

TEST(ResponseTest, ToBytesPinnedWithContentLength) {
  Response r;
  r.status = 503;
  r.headers.set("Content-Length", "0");
  r.headers.set("Retry-After", "1");
  EXPECT_EQ(r.to_bytes(),
            "HTTP/1.1 503 Service Unavailable\r\n"
            "Content-Length: 0\r\n"
            "Retry-After: 1\r\n"
            "\r\n");
  r.status = 299;
  r.reason = "Fine";
  r.body = "xy";
  EXPECT_EQ(r.to_bytes(),
            "HTTP/1.1 299 Fine\r\n"
            "Content-Length: 0\r\n"
            "Retry-After: 1\r\n"
            "\r\n"
            "xy");
}

TEST(ResponseTest, ToBytesUsesStandardReason) {
  Response r;
  r.status = 404;
  EXPECT_EQ(r.to_bytes().find("HTTP/1.1 404 Not Found\r\n"), 0u);
}

TEST(ResponseTest, CustomReasonPreserved) {
  Response r;
  r.status = 200;
  r.reason = "Totally Fine";
  EXPECT_EQ(r.to_bytes().find("HTTP/1.1 200 Totally Fine\r\n"), 0u);
}

TEST(ReasonPhraseTest, CoversCommonStatuses) {
  EXPECT_EQ(reason_phrase(200), "OK");
  EXPECT_EQ(reason_phrase(304), "Not Modified");
  EXPECT_EQ(reason_phrase(500), "Internal Server Error");
  EXPECT_EQ(reason_phrase(999), "Unknown");
}

}  // namespace
}  // namespace wsc::http

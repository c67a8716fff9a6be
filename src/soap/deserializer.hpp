// Envelope-level deserialization: SAX handlers that walk
// Envelope/Body/{wrapper} and delegate the payload to ValueReader.
//
// `ResponseReader` is the handler a *client* attaches to either the live
// parser (cache miss) or a replayed CompactEventSequence (cache hit on the
// SAX-events representation) — one code path, two event sources, exactly
// the Axis arrangement the paper instruments.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "soap/message.hpp"
#include "soap/value_reader.hpp"
#include "wsdl/description.hpp"
#include "xml/compact_event_sequence.hpp"
#include "xml/sax.hpp"

namespace wsc::soap {

/// Client side: reads a response (or fault) for a known operation.
/// Understands both inline values and Axis-style multiRef encoding
/// (href="#id" sites resolved against multiRef elements in the Body).
class ResponseReader final : public xml::ContentHandler {
 public:
  explicit ResponseReader(const wsdl::OperationInfo& op) : op_(&op) {}

  void start_element(const xml::QName& name, const xml::Attributes& attrs) override;
  void end_element(const xml::QName& name) override;
  void characters(std::string_view text) override;

  /// The result object (null for void ops).  Throws SoapFault if the body
  /// carried a fault, ParseError if the document was not a valid response.
  reflect::Object take();

 private:
  enum class State {
    Start, InEnvelope, InBody, InWrapper, InValue, InMultiRef, InFault, Done
  };

  const wsdl::OperationInfo* op_;
  State state_ = State::Start;
  std::optional<ValueReader> value_;
  bool value_done_ = false;

  // multiRef capture: id -> recorded children events (compact arena form —
  // href graphs repeat the same element names per entry, and the capture
  // lives only for the parse, so cheap recording matters more than reuse).
  std::map<std::string, xml::CompactEventSequence> multirefs_;
  std::optional<xml::CompactEventRecorder> mr_recorder_;
  std::string mr_id_;
  int mr_depth_ = 0;

  // Fault collection; the same depth counter also skips soapenv:Header
  // subtrees (skipping_header_ distinguishes the two uses).
  bool skipping_header_ = false;
  int fault_depth_ = 0;
  std::string fault_field_;
  std::string faultcode_, faultstring_;
};

/// Server side: reads an incoming request against a service contract.
class RequestReader final : public xml::ContentHandler {
 public:
  explicit RequestReader(const wsdl::ServiceDescription& service)
      : service_(&service) {}

  void start_element(const xml::QName& name, const xml::Attributes& attrs) override;
  void end_element(const xml::QName& name) override;
  void characters(std::string_view text) override;

  /// The decoded request.  Throws ParseError on malformed input or unknown
  /// operations/parameters.
  RpcRequest take();

 private:
  enum class State { Start, InEnvelope, InBody, InOperation, InParam, Done };

  const wsdl::ServiceDescription* service_;
  const wsdl::OperationInfo* op_ = nullptr;
  State state_ = State::Start;
  std::optional<ValueReader> value_;
  std::string pending_param_;
  RpcRequest request_;
};

/// Parse a response delivered by any event source (live XML text or a
/// recorded sequence).  This is THE cache-hit retrieval path for the
/// XML-message and SAX-events representations.
reflect::Object read_response(const xml::EventSource& source,
                              const wsdl::OperationInfo& op);

/// Parse a request document (server dispatch).
RpcRequest read_request(std::string_view xml_text,
                        const wsdl::ServiceDescription& service);

}  // namespace wsc::soap

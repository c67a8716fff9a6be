// Render a ServiceDescription back to a WSDL 1.1 document.
//
// Interoperability is the paper's first design priority: the cache must not
// extend XML/SOAP/WSDL.  Publishing a standard WSDL for our dummy services
// demonstrates that the contract the cache middleware consumes is plain
// WSDL 1.1 (rpc/encoded, like the real Google Web APIs of 2004).
#pragma once

#include <string>
#include <string_view>

#include "wsdl/description.hpp"

namespace wsc::wsdl {

/// Produce a WSDL 1.1 document (types / messages / portType / binding /
/// service) for a service bound at `endpoint_url`.
std::string to_wsdl_xml(const ServiceDescription& service,
                        const std::string& endpoint_url);

/// XSD QName (e.g. "xsd:string", "typens:GoogleSearchResult") for a
/// registered type, matching the serializer's xsi:type values.
std::string xsd_qname(const reflect::TypeInfo& type,
                      const std::string& type_ns_prefix = "typens");

/// xsd_qname() appended to `out`, for writers that reuse one buffer.
void append_xsd_qname(std::string& out, const reflect::TypeInfo& type,
                      std::string_view type_ns_prefix);

}  // namespace wsc::wsdl

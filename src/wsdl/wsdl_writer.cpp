#include "wsdl/wsdl_writer.hpp"

#include <set>

#include "xml/writer.hpp"

namespace wsc::wsdl {

using reflect::TypeInfo;

void append_xsd_qname(std::string& out, const TypeInfo& type,
                      std::string_view prefix) {
  if (type.ops) {
    out += type.ops->xsd_name;
    return;
  }
  out += prefix;
  out += ':';
  out += type.name;
}

std::string xsd_qname(const TypeInfo& type, const std::string& prefix) {
  std::string out;
  append_xsd_qname(out, type, prefix);
  return out;
}

namespace {

/// Collect every struct/array type reachable from the service signatures.
void collect_types(const TypeInfo& t, std::set<const TypeInfo*>& out) {
  if (t.is_primitive()) return;
  if (!out.insert(&t).second) return;
  if (t.is_array()) {
    collect_types(*t.element, out);
  } else {
    for (const auto& f : t.fields) collect_types(*f.type, out);
  }
}

void write_complex_type(xml::Writer& w, const TypeInfo& t) {
  if (t.is_array()) {
    // SOAP-encoded array restriction, as Axis emits for rpc/encoded.
    w.start_element("complexType").attribute("name", t.name);
    w.start_element("complexContent");
    w.start_element("restriction").attribute("base", "soapenc:Array");
    w.start_element("attribute")
        .attribute("ref", "soapenc:arrayType")
        .attribute("wsdl:arrayType", xsd_qname(*t.element) + "[]")
        .end_element();
    w.end_element().end_element().end_element();
    return;
  }
  w.start_element("complexType").attribute("name", t.name);
  w.start_element("all");
  for (const auto& f : t.fields) {
    w.start_element("element")
        .attribute("name", f.name)
        .attribute("type", xsd_qname(*f.type))
        .end_element();
  }
  w.end_element().end_element();
}

}  // namespace

std::string to_wsdl_xml(const ServiceDescription& service,
                        const std::string& endpoint_url) {
  const std::string& tns = service.target_namespace();
  xml::Writer w;
  w.start_element("wsdl:definitions")
      .attribute("targetNamespace", tns)
      .attribute("xmlns:wsdl", "http://schemas.xmlsoap.org/wsdl/")
      .attribute("xmlns:soap", "http://schemas.xmlsoap.org/wsdl/soap/")
      .attribute("xmlns:xsd", "http://www.w3.org/2001/XMLSchema")
      .attribute("xmlns:soapenc", "http://schemas.xmlsoap.org/soap/encoding/")
      .attribute("xmlns:tns", tns)
      .attribute("xmlns:typens", tns);

  // <types>
  std::set<const TypeInfo*> complex;
  for (const auto& op : service.operations()) {
    for (const auto& p : op.params) collect_types(*p.type, complex);
    if (op.result_type) collect_types(*op.result_type, complex);
  }
  if (!complex.empty()) {
    w.start_element("wsdl:types");
    w.start_element("xsd:schema").attribute("targetNamespace", tns);
    for (const TypeInfo* t : complex) write_complex_type(w, *t);
    w.end_element().end_element();
  }

  // <message> pairs
  for (const auto& op : service.operations()) {
    w.start_element("wsdl:message").attribute("name", op.name + "Request");
    for (const auto& p : op.params) {
      w.start_element("wsdl:part")
          .attribute("name", p.name)
          .attribute("type", xsd_qname(*p.type))
          .end_element();
    }
    w.end_element();
    w.start_element("wsdl:message").attribute("name", op.name + "Response");
    if (op.result_type) {
      w.start_element("wsdl:part")
          .attribute("name", op.result_name)
          .attribute("type", xsd_qname(*op.result_type))
          .end_element();
    }
    w.end_element();
  }

  // <portType>
  w.start_element("wsdl:portType").attribute("name", service.name() + "Port");
  for (const auto& op : service.operations()) {
    w.start_element("wsdl:operation").attribute("name", op.name);
    w.start_element("wsdl:input")
        .attribute("message", "tns:" + op.name + "Request")
        .end_element();
    w.start_element("wsdl:output")
        .attribute("message", "tns:" + op.name + "Response")
        .end_element();
    w.end_element();
  }
  w.end_element();

  // <binding> rpc/encoded over HTTP, as the 2004 Google WSDL declared.
  w.start_element("wsdl:binding")
      .attribute("name", service.name() + "Binding")
      .attribute("type", "tns:" + service.name() + "Port");
  w.start_element("soap:binding")
      .attribute("style", "rpc")
      .attribute("transport", "http://schemas.xmlsoap.org/soap/http")
      .end_element();
  for (const auto& op : service.operations()) {
    w.start_element("wsdl:operation").attribute("name", op.name);
    w.start_element("soap:operation")
        .attribute("soapAction", tns + "#" + op.name)
        .end_element();
    for (const char* dir : {"wsdl:input", "wsdl:output"}) {
      w.start_element(dir);
      w.start_element("soap:body")
          .attribute("use", "encoded")
          .attribute("namespace", tns)
          .attribute("encodingStyle", "http://schemas.xmlsoap.org/soap/encoding/")
          .end_element();
      w.end_element();
    }
    w.end_element();
  }
  w.end_element();

  // <service>
  w.start_element("wsdl:service").attribute("name", service.name());
  w.start_element("wsdl:port")
      .attribute("name", service.name() + "Port")
      .attribute("binding", "tns:" + service.name() + "Binding");
  w.start_element("soap:address")
      .attribute("location", endpoint_url)
      .end_element();
  w.end_element().end_element();

  w.end_element();  // definitions
  return w.finish();
}

}  // namespace wsc::wsdl

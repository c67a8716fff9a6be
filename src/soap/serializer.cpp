#include "soap/serializer.hpp"

#include <cstdint>
#include <deque>
#include <vector>

#include "util/base64.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "wsdl/wsdl_writer.hpp"

namespace wsc::soap {

using reflect::Kind;
using reflect::TypeInfo;

namespace {

std::string primitive_text(const TypeInfo& t, const void* v) {
  switch (t.kind) {
    case Kind::Bool:
      return *static_cast<const bool*>(v) ? "true" : "false";
    case Kind::Int32:
      return std::to_string(*static_cast<const std::int32_t*>(v));
    case Kind::Int64:
      return std::to_string(*static_cast<const std::int64_t*>(v));
    case Kind::Double:
      return util::format_double(*static_cast<const double*>(v));
    default:
      throw ReflectionError("primitive_text on non-primitive");
  }
}

/// A primitive value's content: strings escaped straight from the field,
/// byte arrays as Base64 (which never needs escaping), numbers and
/// booleans through primitive_text().
void write_primitive(xml::Writer& w, const TypeInfo& t, const void* v) {
  switch (t.kind) {
    case Kind::String:
      w.text(*static_cast<const std::string*>(v));
      return;
    case Kind::Bytes:
      w.raw(util::base64_encode(
          *static_cast<const std::vector<std::uint8_t>*>(v)));
      return;
    default:
      w.text(primitive_text(t, v));
  }
}

void open_envelope(xml::Writer& w) {
  w.start_element("soapenv:Envelope")
      .attribute("xmlns:soapenv", kEnvelopeNs)
      .attribute("xmlns:xsd", kXsdNs)
      .attribute("xmlns:xsi", kXsiNs)
      .attribute("xmlns:soapenc", kEncodingNs);
  w.start_element("soapenv:Body");
}

std::string close_envelope(xml::Writer& w) {
  w.end_element();  // Body
  w.end_element();  // Envelope
  return w.finish();
}

}  // namespace

namespace {

/// Encode one value.  `typed` controls the xsi:type attribute: top-level
/// parameters/results and polymorphic positions (array items, nested
/// structs) carry it; primitive struct members rely on the schema, which
/// keeps message sizes near the paper's Table 8/9 measurements.
void write_value_impl(xml::Writer& w, const std::string& elem_name,
                      const TypeInfo& t, const void* value, bool typed) {
  w.start_element(elem_name);
  switch (t.kind) {
    case Kind::Struct:
      w.attribute("xsi:type", "ns1:" + t.name);
      for (const reflect::FieldInfo& f : t.fields)
        write_value_impl(w, f.name, *f.type, f.at(value),
                         /*typed=*/!f.type->is_primitive());
      break;
    case Kind::Array: {
      std::size_t n = t.array_size(value);
      w.attribute("xsi:type", "soapenc:Array");
      w.attribute("soapenc:arrayType",
                  wsdl::xsd_qname(*t.element, "ns1") + "[" + std::to_string(n) + "]");
      for (std::size_t i = 0; i < n; ++i) {
        write_value_impl(w, "item", *t.element,
                         t.array_at(const_cast<void*>(value), i),
                         /*typed=*/true);
      }
      break;
    }
    default:
      if (typed) w.attribute("xsi:type", wsdl::xsd_qname(t));
      write_primitive(w, t, value);
      break;
  }
  w.end_element();
}

}  // namespace

void write_value(xml::Writer& w, const std::string& elem_name,
                 const TypeInfo& t, const void* value) {
  write_value_impl(w, elem_name, t, value, /*typed=*/true);
}

std::string serialize_request(const RpcRequest& request) {
  xml::Writer w;
  open_envelope(w);
  w.start_element("ns1:" + request.operation)
      .attribute("soapenv:encodingStyle", kEncodingNs)
      .attribute("xmlns:ns1", request.ns);
  for (const Parameter& p : request.params) {
    if (p.value.is_null())
      throw SerializationError("parameter '" + p.name + "' is null");
    write_value(w, p.name, p.value.type(), p.value.data());
  }
  w.end_element();
  return close_envelope(w);
}

std::string serialize_response(const wsdl::OperationInfo& op,
                               const std::string& service_ns,
                               const reflect::Object& result) {
  xml::Writer w;
  open_envelope(w);
  w.start_element("ns1:" + op.response_element())
      .attribute("soapenv:encodingStyle", kEncodingNs)
      .attribute("xmlns:ns1", service_ns);
  if (op.result_type) {
    if (result.is_null())
      throw SerializationError("operation '" + op.name +
                               "': null result for non-void operation");
    if (&result.type() != op.result_type)
      throw SerializationError("operation '" + op.name + "': result type '" +
                               result.type().name + "' does not match WSDL '" +
                               op.result_type->name + "'");
    write_value(w, op.result_name, result.type(), result.data());
  }
  w.end_element();
  return close_envelope(w);
}

namespace {

/// Work queue entry for multiRef emission.
struct MultirefJob {
  const TypeInfo* type;
  const void* value;
  int id;
};

class MultirefWriter {
 public:
  explicit MultirefWriter(xml::Writer& w) : w_(w) {}

  /// Emit one value element: primitives inline, everything else as an
  /// href site whose target is queued.
  void write_site(const std::string& elem_name, const TypeInfo& t,
                  const void* value, bool typed) {
    if (t.is_primitive()) {
      w_.start_element(elem_name);
      if (typed) w_.attribute("xsi:type", wsdl::xsd_qname(t));
      write_primitive(w_, t, value);
      w_.end_element();
      return;
    }
    int id = next_id_++;
    queue_.push_back({&t, value, id});
    w_.start_element(elem_name)
        .attribute("href", "#id" + std::to_string(id))
        .end_element();
  }

  /// Drain the queue as Body-level multiRef elements (Axis order: after
  /// the RPC wrapper).  Nested non-primitive members enqueue more jobs.
  void emit_multirefs() {
    while (!queue_.empty()) {
      MultirefJob job = queue_.front();
      queue_.pop_front();
      w_.start_element("multiRef")
          .attribute("id", "id" + std::to_string(job.id))
          .attribute("soapenc:root", "0")
          .attribute("soapenv:encodingStyle", kEncodingNs);
      const TypeInfo& t = *job.type;
      if (t.is_struct()) {
        w_.attribute("xsi:type", "ns1:" + t.name);
        for (const reflect::FieldInfo& f : t.fields)
          write_site(f.name, *f.type, f.at(job.value),
                     /*typed=*/false);
      } else {  // array
        std::size_t n = t.array_size(job.value);
        w_.attribute("xsi:type", "soapenc:Array");
        w_.attribute("soapenc:arrayType", wsdl::xsd_qname(*t.element, "ns1") +
                                              "[" + std::to_string(n) + "]");
        for (std::size_t i = 0; i < n; ++i) {
          write_site("item", *t.element,
                     t.array_at(const_cast<void*>(job.value), i),
                     /*typed=*/true);
        }
      }
      w_.end_element();
    }
  }

 private:
  xml::Writer& w_;
  std::deque<MultirefJob> queue_;
  int next_id_ = 0;
};

}  // namespace

std::string serialize_response_multiref(const wsdl::OperationInfo& op,
                                        const std::string& service_ns,
                                        const reflect::Object& result) {
  xml::Writer w;
  open_envelope(w);
  MultirefWriter multiref(w);
  w.start_element("ns1:" + op.response_element())
      .attribute("soapenv:encodingStyle", kEncodingNs)
      .attribute("xmlns:ns1", service_ns);
  if (op.result_type) {
    if (result.is_null())
      throw SerializationError("operation '" + op.name +
                               "': null result for non-void operation");
    if (&result.type() != op.result_type)
      throw SerializationError("operation '" + op.name + "': result type '" +
                               result.type().name + "' does not match WSDL '" +
                               op.result_type->name + "'");
    multiref.write_site(op.result_name, result.type(), result.data(),
                        /*typed=*/true);
  }
  w.end_element();          // wrapper
  multiref.emit_multirefs();  // Body-level multiRef elements
  return close_envelope(w);
}

std::string serialize_fault(const std::string& faultcode,
                            const std::string& faultstring) {
  xml::Writer w;
  open_envelope(w);
  w.start_element("soapenv:Fault");
  w.text_element("faultcode", "soapenv:" + faultcode);
  w.text_element("faultstring", faultstring);
  w.end_element();
  return close_envelope(w);
}

}  // namespace wsc::soap

#include "soap/serializer.hpp"

#include <deque>

#include "util/error.hpp"
#include "util/strings.hpp"
#include "wsdl/wsdl_writer.hpp"

namespace wsc::soap {

using reflect::TypeInfo;

namespace {

/// Writes values into one xml::Writer.  Every composed string (xsi:type
/// and soapenc:arrayType values, the wrapper's name, a primitive's text)
/// is built in one scratch string reused for the whole message, so a
/// serialization allocates only for output growth.
class ValueWriter {
 public:
  explicit ValueWriter(xml::Writer& w) : w(w) {}

  /// `a` + `b` in the scratch string; valid until the next scratch use.
  std::string_view concat(std::string_view a, std::string_view b) {
    scratch_.assign(a);
    scratch_ += b;
    return scratch_;
  }

  void open_envelope() {
    w.start_element("soapenv:Envelope")
        .attribute("xmlns:soapenv", kEnvelopeNs)
        .attribute("xmlns:xsd", kXsdNs)
        .attribute("xmlns:xsi", kXsiNs)
        .attribute("xmlns:soapenc", kEncodingNs);
    w.start_element("soapenv:Body");
  }

  /// <ns1:{operation}{suffix}> bound to `ns`, the rpc wrapper element.
  void open_wrapper(std::string_view operation, std::string_view suffix,
                    std::string_view ns) {
    concat("ns1:", operation);
    scratch_ += suffix;
    w.start_element(scratch_)
        .attribute("soapenv:encodingStyle", kEncodingNs)
        .attribute("xmlns:ns1", ns);
  }

  std::string close_envelope() {
    w.end_element();  // Body
    w.end_element();  // Envelope
    return w.finish();
  }

  void struct_type(const TypeInfo& t) {
    w.attribute("xsi:type", concat("ns1:", t.name));
  }

  void array_type(const TypeInfo& t, std::size_t n) {
    w.attribute("xsi:type", "soapenc:Array");
    scratch_.clear();
    wsdl::append_xsd_qname(scratch_, *t.element, "ns1");
    scratch_ += '[';
    util::append_i64(scratch_, static_cast<std::int64_t>(n));
    scratch_ += ']';
    w.attribute("soapenc:arrayType", scratch_);
  }

  /// A primitive's content: the row's text (strings verbatim, numbers as
  /// toString formats them, Base64 for bytes), escaped if it may need it.
  void primitive(const TypeInfo& t, const void* v, bool typed) {
    if (typed) w.attribute("xsi:type", t.ops->xsd_name);
    scratch_.clear();
    t.ops->append_text(v, scratch_);
    if (t.ops->needs_escaping)
      w.text(scratch_);
    else
      w.raw(scratch_);
  }

  /// Encode one value inline.  `typed` controls the xsi:type attribute:
  /// top-level parameters/results and polymorphic positions (array items,
  /// nested structs) carry it; primitive struct members rely on the
  /// schema, which keeps message sizes near the paper's Table 8/9
  /// measurements.
  void value(std::string_view elem_name, const TypeInfo& t, const void* v,
             bool typed) {
    w.start_element(elem_name);
    if (t.ops) {
      primitive(t, v, typed);
    } else if (t.is_array()) {
      std::size_t n = t.array_size(v);
      array_type(t, n);
      for (std::size_t i = 0; i < n; ++i)
        value("item", *t.element, t.array_at(const_cast<void*>(v), i), true);
    } else {
      struct_type(t);
      for (const reflect::FieldInfo& f : t.fields)
        value(f.name, *f.type, f.at(v), /*typed=*/!f.type->is_primitive());
    }
    w.end_element();
  }

  xml::Writer& w;

 private:
  std::string scratch_;
};

/// Opens the envelope and the response wrapper.  For a non-void operation
/// the result must be non-null and of the WSDL-declared type; returns
/// whether there is a result to write.
bool open_response(ValueWriter& out, const wsdl::OperationInfo& op,
                   const std::string& service_ns,
                   const reflect::Object& result) {
  out.open_envelope();
  out.open_wrapper(op.name, "Response", service_ns);
  if (!op.result_type) return false;
  if (result.is_null())
    throw SerializationError("operation '" + op.name +
                             "': null result for non-void operation");
  if (&result.type() != op.result_type)
    throw SerializationError("operation '" + op.name + "': result type '" +
                             result.type().name + "' does not match WSDL '" +
                             op.result_type->name + "'");
  return true;
}

}  // namespace

void write_value(xml::Writer& w, const std::string& elem_name,
                 const TypeInfo& t, const void* value) {
  ValueWriter(w).value(elem_name, t, value, /*typed=*/true);
}

std::string serialize_request(const RpcRequest& request) {
  xml::Writer w;
  ValueWriter out(w);
  out.open_envelope();
  out.open_wrapper(request.operation, "", request.ns);
  for (const Parameter& p : request.params) {
    if (p.value.is_null())
      throw SerializationError("parameter '" + p.name + "' is null");
    out.value(p.name, p.value.type(), p.value.data(), /*typed=*/true);
  }
  w.end_element();
  return out.close_envelope();
}

std::string serialize_response(const wsdl::OperationInfo& op,
                               const std::string& service_ns,
                               const reflect::Object& result) {
  xml::Writer w;
  ValueWriter out(w);
  if (open_response(out, op, service_ns, result))
    out.value(op.result_name, result.type(), result.data(), /*typed=*/true);
  w.end_element();
  return out.close_envelope();
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
  explicit MultirefWriter(ValueWriter& out) : out_(out), w_(out.w) {}

  /// Emit one value element: primitives inline, everything else as an
  /// href site whose target is queued.
  void write_site(const std::string& elem_name, const TypeInfo& t,
                  const void* value, bool typed) {
    w_.start_element(elem_name);
    if (t.ops) {
      out_.primitive(t, value, typed);
    } else {
      int id = next_id_++;
      queue_.push_back({&t, value, id});
      w_.attribute("href", "#id" + std::to_string(id));
    }
    w_.end_element();
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
        out_.struct_type(t);
        for (const reflect::FieldInfo& f : t.fields)
          write_site(f.name, *f.type, f.at(job.value),
                     /*typed=*/false);
      } else {  // array
        std::size_t n = t.array_size(job.value);
        out_.array_type(t, n);
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
  ValueWriter& out_;
  xml::Writer& w_;
  std::deque<MultirefJob> queue_;
  int next_id_ = 0;
};

}  // namespace

std::string serialize_response_multiref(const wsdl::OperationInfo& op,
                                        const std::string& service_ns,
                                        const reflect::Object& result) {
  xml::Writer w;
  ValueWriter out(w);
  MultirefWriter multiref(out);
  if (open_response(out, op, service_ns, result))
    multiref.write_site(op.result_name, result.type(), result.data(),
                        /*typed=*/true);
  w.end_element();            // wrapper
  multiref.emit_multirefs();  // Body-level multiRef elements
  return out.close_envelope();
}

std::string serialize_fault(const std::string& faultcode,
                            const std::string& faultstring) {
  xml::Writer w;
  ValueWriter out(w);
  out.open_envelope();
  w.start_element("soapenv:Fault");
  w.text_element("faultcode", out.concat("soapenv:", faultcode));
  w.text_element("faultstring", faultstring);
  w.end_element();
  return out.close_envelope();
}

}  // namespace wsc::soap

#include "soap/deserializer.hpp"

#include <set>
#include <type_traits>

#include "reflect/algorithms.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "xml/sax_parser.hpp"

namespace wsc::soap {

namespace {

/// Routes SAX events into a ValueReader (which is not itself a handler so
/// it can signal completion through end_element's return value).
class ValueReaderHandler final : public xml::ContentHandler {
 public:
  explicit ValueReaderHandler(ValueReader& reader) : reader_(reader) {}
  void start_element(const xml::QName& n, const xml::Attributes& a) override {
    reader_.start_element(n, a);
  }
  void end_element(const xml::QName& n) override { reader_.end_element(n); }
  void characters(std::string_view t) override { reader_.characters(t); }

 private:
  ValueReader& reader_;
};

/// Resolves href ids against the captured multiRef subtrees, recursively.
class MultirefResolver final : public RefResolver {
 public:
  explicit MultirefResolver(
      const std::map<std::string, xml::CompactEventSequence>& refs)
      : refs_(refs) {}

  void fill(const reflect::TypeInfo& type, void* target,
            std::string_view id) override {
    auto it = refs_.find(std::string(id));
    if (it == refs_.end())
      throw ParseError("SOAP: unresolved multiRef id '#" + std::string(id) + "'");
    if (!in_progress_.insert(std::string(id)).second)
      throw ParseError("SOAP: multiRef reference cycle at '#" +
                       std::string(id) + "'");
    ValueReader reader(type);
    ValueReaderHandler handler(reader);
    it->second.deliver(handler);
    reader.finish_root();
    reader.resolve_pending(*this);  // nested hrefs recurse through here
    reflect::Object obj = reader.take();
    reflect::deep_assign(type, obj.data(), target);
    in_progress_.erase(std::string(id));
  }

 private:
  const std::map<std::string, xml::CompactEventSequence>& refs_;
  std::set<std::string> in_progress_;
};

bool is_multiref_element(const xml::QName& n) {
  return n.local == "multiRef" || n.local == "multiref";
}

std::string multiref_id(const xml::Attributes& attrs) {
  for (const xml::Attribute& a : attrs) {
    if (a.name.local == "id") return a.value;
  }
  throw ParseError("SOAP: multiRef element without id attribute");
}

bool is_envelope_ns(const xml::QName& n) { return n.uri == kEnvelopeNs; }

/// Throws ParseError("SOAP: " + message) unless `cond`.  `message` is a
/// string literal or a callable building the string, so a passing check
/// builds no string.
template <typename Message>
void require(bool cond, const Message& message) {
  if (cond) return;
  if constexpr (std::is_invocable_v<const Message&>)
    throw ParseError("SOAP: " + message());
  else
    throw ParseError(std::string("SOAP: ") + message);
}

/// name == op.response_element(), without building that string.
bool is_response_element(std::string_view name, const wsdl::OperationInfo& op) {
  constexpr std::string_view kSuffix = "Response";
  return name.size() == op.name.size() + kSuffix.size() &&
         name.starts_with(op.name) && name.ends_with(kSuffix);
}

}  // namespace

// --- ResponseReader ---------------------------------------------------------

void ResponseReader::start_element(const xml::QName& name,
                                   const xml::Attributes& attrs) {
  switch (state_) {
    case State::Start:
      require(is_envelope_ns(name) && name.local == "Envelope",
              [&] { return "expected soapenv:Envelope, got <" + name.raw + ">"; });
      state_ = State::InEnvelope;
      return;
    case State::InEnvelope:
      if (is_envelope_ns(name) && name.local == "Header") {
        // Headers are allowed; we have none to process.  Treat like a value
        // subtree we skip by counting depth via the fault machinery.
        state_ = State::InFault;  // reuse the depth-skip; fields ignored
        fault_depth_ = 1;
        fault_field_.clear();
        skipping_header_ = true;
        return;
      }
      require(is_envelope_ns(name) && name.local == "Body",
              [&] { return "expected soapenv:Body, got <" + name.raw + ">"; });
      state_ = State::InBody;
      return;
    case State::InBody:
      if (is_envelope_ns(name) && name.local == "Fault") {
        state_ = State::InFault;
        fault_depth_ = 1;
        skipping_header_ = false;
        return;
      }
      if (is_multiref_element(name)) {
        mr_id_ = multiref_id(attrs);
        mr_recorder_.emplace();
        mr_depth_ = 1;
        state_ = State::InMultiRef;
        return;
      }
      require(is_response_element(name.local, *op_), [&] {
        return "expected <" + op_->response_element() + ">, got <" + name.raw +
               ">";
      });
      state_ = State::InWrapper;
      return;
    case State::InWrapper:
      require(op_->result_type != nullptr, [&] {
        return "unexpected result element for void operation '" + op_->name +
               "'";
      });
      require(!value_done_ && !value_,
              "multiple result elements in response");
      // Axis accepts any element name here ("return" by convention).
      value_.emplace(*op_->result_type);
      value_->begin(attrs);
      state_ = State::InValue;
      return;
    case State::InValue:
      value_->start_element(name, attrs);
      return;
    case State::InMultiRef:
      ++mr_depth_;
      mr_recorder_->start_element(name, attrs);
      return;
    case State::InFault:
      ++fault_depth_;
      fault_field_ = name.local;
      return;
    case State::Done:
      throw ParseError("SOAP: element after envelope end");
  }
}

void ResponseReader::end_element(const xml::QName& name) {
  switch (state_) {
    case State::InValue:
      if (value_->end_element(name)) {
        value_done_ = true;  // take()/resolution deferred until take()
        state_ = State::InWrapper;
      }
      return;
    case State::InMultiRef:
      --mr_depth_;
      if (mr_depth_ == 0) {
        multirefs_[mr_id_] = mr_recorder_->take();
        mr_recorder_.reset();
        state_ = State::InBody;
      } else {
        mr_recorder_->end_element(name);
      }
      return;
    case State::InWrapper:
      state_ = State::InBody;
      return;
    case State::InBody:
      state_ = State::InEnvelope;
      return;
    case State::InEnvelope:
      state_ = State::Done;
      return;
    case State::InFault:
      --fault_depth_;
      fault_field_.clear();
      if (fault_depth_ == 0)
        state_ = skipping_header_ ? State::InEnvelope : State::InBody;
      return;
    default:
      throw ParseError("SOAP: unbalanced end element </" + name.raw + ">");
  }
}

void ResponseReader::characters(std::string_view text) {
  switch (state_) {
    case State::InValue:
      value_->characters(text);
      return;
    case State::InMultiRef:
      mr_recorder_->characters(text);
      return;
    case State::InFault:
      if (skipping_header_) return;
      if (fault_field_ == "faultcode") faultcode_.append(text);
      else if (fault_field_ == "faultstring") faultstring_.append(text);
      return;
    default:
      require(util::trim(text).empty(),
              "unexpected character data in envelope");
  }
}

reflect::Object ResponseReader::take() {
  require(state_ == State::Done, "incomplete SOAP response document");
  if (!faultcode_.empty() || !faultstring_.empty())
    throw SoapFault(std::string(util::trim(faultcode_)),
                    std::string(util::trim(faultstring_)));
  if (op_->result_type && !value_done_)
    throw ParseError("SOAP: response for '" + op_->name + "' carried no result");
  if (!value_) return {};  // void operation
  if (value_->has_pending()) {
    MultirefResolver resolver(multirefs_);
    value_->resolve_pending(resolver);
  }
  reflect::Object result = value_->take();
  value_.reset();
  return result;
}

// --- RequestReader -----------------------------------------------------------

void RequestReader::start_element(const xml::QName& name,
                                  const xml::Attributes& attrs) {
  switch (state_) {
    case State::Start:
      require(is_envelope_ns(name) && name.local == "Envelope",
              [&] { return "expected soapenv:Envelope, got <" + name.raw + ">"; });
      state_ = State::InEnvelope;
      return;
    case State::InEnvelope:
      require(is_envelope_ns(name) && name.local == "Body",
              [&] { return "expected soapenv:Body, got <" + name.raw + ">"; });
      state_ = State::InBody;
      return;
    case State::InBody: {
      op_ = service_->operation(name.local);
      require(op_ != nullptr,
              [&] { return "unknown operation '" + name.local + "'"; });
      request_.operation = name.local;
      request_.ns = name.uri;
      state_ = State::InOperation;
      return;
    }
    case State::InOperation: {
      const wsdl::ParamSpec* spec = op_->param(name.local);
      require(spec != nullptr, [&] {
        return "operation '" + op_->name + "' has no parameter '" +
               name.local + "'";
      });
      for (const Parameter& p : request_.params)
        require(p.name != name.local,
                [&] { return "duplicate parameter '" + name.local + "'"; });
      pending_param_ = name.local;
      value_.emplace(*spec->type);
      value_->begin(attrs);
      state_ = State::InParam;
      return;
    }
    case State::InParam:
      value_->start_element(name, attrs);
      return;
    case State::Done:
      throw ParseError("SOAP: element after envelope end");
  }
}

void RequestReader::end_element(const xml::QName& name) {
  switch (state_) {
    case State::InParam:
      if (value_->end_element(name)) {
        // Server-side decoding keeps the common inline form only.
        if (value_->has_pending())
          throw ParseError(
              "SOAP: multiRef-encoded requests are not supported");
        request_.params.push_back({pending_param_, value_->take()});
        value_.reset();
        state_ = State::InOperation;
      }
      return;
    case State::InOperation:
      state_ = State::InBody;
      return;
    case State::InBody:
      state_ = State::InEnvelope;
      return;
    case State::InEnvelope:
      state_ = State::Done;
      return;
    default:
      throw ParseError("SOAP: unbalanced end element </" + name.raw + ">");
  }
}

void RequestReader::characters(std::string_view text) {
  if (state_ == State::InParam) {
    value_->characters(text);
    return;
  }
  require(util::trim(text).empty(),
          "unexpected character data in envelope");
}

RpcRequest RequestReader::take() {
  require(state_ == State::Done, "incomplete SOAP request document");
  require(op_ != nullptr, "request carried no operation element");
  require(request_.params.size() == op_->params.size(), [&] {
    return "operation '" + op_->name + "' expects " +
           std::to_string(op_->params.size()) + " parameters, got " +
           std::to_string(request_.params.size());
  });
  return std::move(request_);
}

// --- conveniences ------------------------------------------------------------

reflect::Object read_response(const xml::EventSource& source,
                              const wsdl::OperationInfo& op) {
  ResponseReader reader(op);
  source.deliver(reader);
  return reader.take();
}

RpcRequest read_request(std::string_view xml_text,
                        const wsdl::ServiceDescription& service) {
  RequestReader reader(service);
  xml::SaxParser{}.parse(xml_text, reader);
  return reader.take();
}

}  // namespace wsc::soap

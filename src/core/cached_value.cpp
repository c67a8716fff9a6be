#include "core/cached_value.hpp"

#include "reflect/algorithms.hpp"
#include "reflect/serialize.hpp"
#include "soap/deserializer.hpp"
#include "util/error.hpp"
#include "util/mem_footprint.hpp"

namespace wsc::cache {

// --- XmlMessageValue ---------------------------------------------------------

reflect::Object XmlMessageValue::retrieve() const {
  // Full pipeline on every hit: tokenize + namespace-process + deserialize.
  return soap::read_response(source_, *op_);
}

std::size_t XmlMessageValue::memory_size() const {
  return util::heap_block(sizeof(*this)) +
         util::heap_footprint(source_.text());
}

// --- SaxEventsValue ----------------------------------------------------------

reflect::Object SaxEventsValue::retrieve() const {
  // Replay events into the same ResponseReader the live parser feeds; only
  // the tokenizer is skipped (§4.2.2).  The walk is over flat records and
  // the views it hands out point into the arena: zero allocations per event.
  return soap::read_response(events_, *op_);
}

std::size_t SaxEventsValue::memory_size() const {
  return util::heap_block(sizeof(*this)) - sizeof(events_) +
         events_.memory_size();
}

// --- SerializedValue ---------------------------------------------------------

SerializedValue::SerializedValue(const reflect::Object& response)
    : bytes_(reflect::serialize(response)) {
  bytes_.shrink_to_fit();  // drop the serializer's growth slack
}

reflect::Object SerializedValue::retrieve() const {
  return reflect::deserialize(bytes_);
}

std::size_t SerializedValue::memory_size() const {
  return util::heap_block(sizeof(*this)) + util::heap_footprint(bytes_);
}

// --- ReflectionCopyValue -----------------------------------------------------

ReflectionCopyValue::ReflectionCopyValue(const reflect::Object& response) {
  if (response && !reflect::supports_reflection_copy(response.type()))
    throw SerializationError("copy by reflection: type '" +
                             response.type().name +
                             "' is neither bean-type nor array-type");
  stored_ = reflect::deep_copy(response);  // copy on store (§3.1)
}

reflect::Object ReflectionCopyValue::retrieve() const {
  // Copy on every hit (§3.1).  The constructor already proved the type
  // reflectable, so the hit skips deep_copy's gatekeeping walk.
  if (!stored_) return {};
  const reflect::TypeInfo& t = stored_.type();
  std::shared_ptr<void> fresh = t.construct();
  reflect::deep_assign(t, stored_.data(), fresh.get());
  return reflect::Object(std::move(fresh), &t);
}

std::size_t ReflectionCopyValue::memory_size() const {
  return util::heap_block(sizeof(*this)) + reflect::memory_size(stored_);
}

// --- CloneCopyValue ----------------------------------------------------------

CloneCopyValue::CloneCopyValue(const reflect::Object& response)
    : stored_(reflect::clone(response)) {}

reflect::Object CloneCopyValue::retrieve() const {
  return reflect::clone(stored_);
}

std::size_t CloneCopyValue::memory_size() const {
  return util::heap_block(sizeof(*this)) + reflect::memory_size(stored_);
}

// --- ReferenceValue ----------------------------------------------------------

std::size_t ReferenceValue::memory_size() const {
  return util::heap_block(sizeof(*this)) + reflect::memory_size(stored_);
}

// --- factory -----------------------------------------------------------------

std::unique_ptr<CachedValue> make_cached_value(Representation representation,
                                               ResponseCapture& capture) {
  switch (representation) {
    case Representation::XmlMessage:
      if (!capture.response_xml || !capture.op)
        throw Error("XmlMessageValue needs the response document");
      return std::make_unique<XmlMessageValue>(*capture.response_xml,
                                               capture.op);
    case Representation::SaxEvents:
      if (!capture.events || !capture.op)
        throw Error("SaxEventsValue needs recorded parse events");
      return std::make_unique<SaxEventsValue>(std::move(*capture.events),
                                              capture.op);
    case Representation::Serialized:
      return std::make_unique<SerializedValue>(capture.object);
    case Representation::ReflectionCopy:
      return std::make_unique<ReflectionCopyValue>(capture.object);
    case Representation::CloneCopy:
      return std::make_unique<CloneCopyValue>(capture.object);
    case Representation::Reference:
      return std::make_unique<ReferenceValue>(capture.object);
    case Representation::Auto:
      throw Error("make_cached_value: Auto must be resolved by the caller");
  }
  throw Error("make_cached_value: bad representation");
}

}  // namespace wsc::cache

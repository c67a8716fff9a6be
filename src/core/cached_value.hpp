// Cache value representations (paper section 4.2, Tables 3/7/9).
//
// A CachedValue stores one response in one representation and can
// `retrieve()` a fresh application object from it on every hit.  The
// side-effect discipline of §3.1 is enforced here:
//
//   XmlMessage / SaxEvents / Serialized - retrieval *constructs* a new
//     object, so the stored form is naturally isolated from the client.
//   ReflectionCopy / CloneCopy - the object is deep-copied INTO the store
//     and deep-copied OUT on every hit ("the copy is required at the time
//     of a cache hit and at the time when the response application objects
//     from the server are stored").
//   Reference - the stored object is shared with every caller; only legal
//     for immutable or administrator-declared read-only data.
//
// retrieve() is const and thread-safe: concurrent hits on the same entry
// are the normal case in the Figure-4 experiment.
#pragma once

#include <memory>

#include "core/representation.hpp"
#include "reflect/object.hpp"
#include "wsdl/description.hpp"
#include "xml/compact_event_sequence.hpp"
#include "xml/sax_parser.hpp"

namespace wsc::cache {

class CachedValue {
 public:
  virtual ~CachedValue() = default;

  /// Produce the application object for a cache hit.
  virtual reflect::Object retrieve() const = 0;

  virtual Representation representation() const = 0;

  /// Bytes this value holds, its own heap block included, under
  /// util/mem_footprint.hpp's rule (Table 9 and the eviction budget).
  virtual std::size_t memory_size() const = 0;
};

/// Stores the response XML document itself.
class XmlMessageValue final : public CachedValue {
 public:
  XmlMessageValue(std::string response_xml,
                  std::shared_ptr<const wsdl::OperationInfo> op)
      : source_(std::move(response_xml)), op_(std::move(op)) {}

  reflect::Object retrieve() const override;
  Representation representation() const override {
    return Representation::XmlMessage;
  }
  std::size_t memory_size() const override;

 private:
  xml::XmlTextSource source_;
  std::shared_ptr<const wsdl::OperationInfo> op_;
};

/// Stores the recorded parse events in the compact arena form: interned
/// names/attribute lists, one contiguous text arena, flat event records.
/// A hit replays them into the deserializer with zero allocations per
/// event (§4.2.2).
class SaxEventsValue final : public CachedValue {
 public:
  SaxEventsValue(xml::CompactEventSequence events,
                 std::shared_ptr<const wsdl::OperationInfo> op)
      : events_(std::move(events)), op_(std::move(op)) {}

  reflect::Object retrieve() const override;
  Representation representation() const override {
    return Representation::SaxEvents;
  }
  std::size_t memory_size() const override;

 private:
  xml::CompactEventSequence events_;
  std::shared_ptr<const wsdl::OperationInfo> op_;
};

/// Stores the binary-serialized object.
class SerializedValue final : public CachedValue {
 public:
  /// Serializes here; throws wsc::SerializationError for non-serializable
  /// types (the automatic detection hook).
  explicit SerializedValue(const reflect::Object& response);

  reflect::Object retrieve() const override;
  Representation representation() const override {
    return Representation::Serialized;
  }
  std::size_t memory_size() const override;

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Stores a reflective deep copy; hits get another reflective deep copy.
class ReflectionCopyValue final : public CachedValue {
 public:
  explicit ReflectionCopyValue(const reflect::Object& response);

  reflect::Object retrieve() const override;
  Representation representation() const override {
    return Representation::ReflectionCopy;
  }
  std::size_t memory_size() const override;

 private:
  reflect::Object stored_;
};

/// Stores a generated deep clone; hits get another clone.
class CloneCopyValue final : public CachedValue {
 public:
  explicit CloneCopyValue(const reflect::Object& response);

  reflect::Object retrieve() const override;
  Representation representation() const override {
    return Representation::CloneCopy;
  }
  std::size_t memory_size() const override;

 private:
  reflect::Object stored_;
};

/// Stores the object itself and hands the same reference to every caller.
class ReferenceValue final : public CachedValue {
 public:
  explicit ReferenceValue(reflect::Object response)
      : stored_(std::move(response)) {}

  reflect::Object retrieve() const override { return stored_; }
  Representation representation() const override {
    return Representation::Reference;
  }
  std::size_t memory_size() const override;

 private:
  reflect::Object stored_;
};

/// Everything a representation might need when capturing a fresh response.
/// The middleware fills `response_xml` always, `events` only when it teed
/// the parse, and `object` with the deserialized result.
struct ResponseCapture {
  const std::string* response_xml = nullptr;
  xml::CompactEventSequence* events = nullptr;  // consumed (moved from)
  reflect::Object object;
  /// Co-owned so cache entries outlive any one client stub (aliased into
  /// the owning ServiceDescription).
  std::shared_ptr<const wsdl::OperationInfo> op;
};

/// Build the CachedValue for a *resolved* representation (not Auto).
/// Throws wsc::SerializationError when the representation cannot handle
/// the object's type, wsc::Error on missing capture ingredients.
std::unique_ptr<CachedValue> make_cached_value(Representation representation,
                                               ResponseCapture& capture);

}  // namespace wsc::cache

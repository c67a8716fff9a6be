// The six cache-value representations of Table 3 and the three key methods
// of Table 2, plus applicability rules and the section-6 auto-selector.
#pragma once

#include <array>
#include <optional>
#include <string_view>
#include <vector>

#include "reflect/type_info.hpp"

namespace wsc::cache {

/// How a response is stored in the cache (Table 3, fastest-retrieval last).
enum class Representation : std::uint8_t {
  XmlMessage,      // the response XML document; reparse on every hit
  SaxEvents,       // recorded parse events; replay into the deserializer
  Serialized,      // binary-serialized object; deserialize on hit
  ReflectionCopy,  // deep copy via metadata, copy again on hit
  CloneCopy,       // generated deep clone, clone again on hit
  Reference,       // share the object (read-only / immutable only)
  Auto,            // let the middleware pick per section 6
};

/// Every concrete (storable) representation, in enum order — every value
/// except the Auto sentinel, which resolves to one of these.  The one list
/// benches, tests and the adaptive policy iterate.
inline constexpr std::array kConcreteRepresentations = {
    Representation::XmlMessage,     Representation::SaxEvents,
    Representation::Serialized,     Representation::ReflectionCopy,
    Representation::CloneCopy,      Representation::Reference,
};
inline constexpr std::size_t kConcreteRepresentationCount =
    kConcreteRepresentations.size();

// AdaptivePolicy indexes per-representation arrays by enum value.
static_assert([] {
  for (std::size_t i = 0; i < kConcreteRepresentationCount; ++i)
    if (static_cast<std::size_t>(kConcreteRepresentations[i]) != i)
      return false;
  return true;
}(), "kConcreteRepresentations[i] must have enum value i");
static_assert(static_cast<std::size_t>(Representation::Auto) ==
                  kConcreteRepresentationCount,
              "Auto must follow the last concrete representation");

/// How cache keys are generated from requests (Table 2).
enum class KeyMethod : std::uint8_t {
  XmlMessage,     // serialize the request to XML each lookup
  Serialization,  // binary-serialize the parameter objects
  ToString,       // concatenate endpoint/operation/parameter strings
};

std::string_view representation_name(Representation r);
std::string_view key_method_name(KeyMethod m);

/// Inverse of representation_name(): parse a representation from its
/// display name (exact match, every enum value round-trips).  nullopt for
/// anything else, so portal/bench/config surfaces can reject typos instead
/// of silently defaulting.
std::optional<Representation> representation_from_name(std::string_view name);

/// Can `r` store a response of static type `type`?  `read_only` is the
/// client administrator's §4.2.4 declaration that the application will not
/// mutate returned objects.  Mirrors Table 3's "Limitation" column.
bool applicable(Representation r, const reflect::TypeInfo& type,
                bool read_only);

/// Section 6 optimal configuration:
///   a) immutable (or declared read-only)     -> Reference
///   b) bean-type / array-type                -> ReflectionCopy
///   c) serializable                          -> Serialized
///   d) anything else                         -> SaxEvents
/// With `prefer_clone`, cloneable types take CloneCopy before rule (b) —
/// the paper's "should be easy for the WSDL compiler to add a proper deep
/// clone" extension, measured in the ablation bench.
Representation auto_select(const reflect::TypeInfo& type, bool read_only,
                           bool prefer_clone = false);

/// Every concrete representation applicable to `type` (Table 3's
/// Limitation column), in enum order — the candidate set the adaptive
/// policy samples from.  Never contains Auto; never empty (XML and SAX
/// have no limitation).
std::vector<Representation> applicable_representations(
    const reflect::TypeInfo& type, bool read_only);

}  // namespace wsc::cache

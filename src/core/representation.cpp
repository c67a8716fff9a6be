#include "core/representation.hpp"

#include "reflect/algorithms.hpp"
#include "reflect/serialize.hpp"
#include "util/error.hpp"

namespace wsc::cache {

std::string_view representation_name(Representation r) {
  switch (r) {
    case Representation::XmlMessage: return "XML message";
    case Representation::SaxEvents: return "SAX events sequence";
    case Representation::Serialized: return "Java serialization";
    case Representation::ReflectionCopy: return "Copy by reflection";
    case Representation::CloneCopy: return "Copy by clone";
    case Representation::Reference: return "Pass by reference";
    case Representation::Auto: return "Auto";
  }
  return "?";
}

std::optional<Representation> representation_from_name(std::string_view name) {
  for (Representation r : kConcreteRepresentations)
    if (representation_name(r) == name) return r;
  if (representation_name(Representation::Auto) == name)
    return Representation::Auto;
  return std::nullopt;
}

std::string_view key_method_name(KeyMethod m) {
  switch (m) {
    case KeyMethod::XmlMessage: return "XML message";
    case KeyMethod::Serialization: return "Java serialization";
    case KeyMethod::ToString: return "toString method";
  }
  return "?";
}

bool applicable(Representation r, const reflect::TypeInfo& type,
                bool read_only) {
  switch (r) {
    case Representation::XmlMessage:
    case Representation::SaxEvents:
      return true;  // "Limitation: None"
    case Representation::Serialized:
      return type.is_deeply_serializable();
    case Representation::ReflectionCopy:
      return reflect::supports_reflection_copy(type);
    case Representation::CloneCopy:
      return static_cast<bool>(type.clone_fn);
    case Representation::Reference:
      return type.traits.immutable || read_only;
    case Representation::Auto:
      return true;  // always resolvable via auto_select
  }
  return false;
}

Representation auto_select(const reflect::TypeInfo& type, bool read_only,
                           bool prefer_clone) {
  if (type.traits.immutable || read_only) return Representation::Reference;
  if (prefer_clone && type.clone_fn) return Representation::CloneCopy;
  if (reflect::supports_reflection_copy(type))
    return Representation::ReflectionCopy;
  if (type.is_deeply_serializable()) return Representation::Serialized;
  return Representation::SaxEvents;
}

std::vector<Representation> applicable_representations(
    const reflect::TypeInfo& type, bool read_only) {
  std::vector<Representation> out;
  out.reserve(kConcreteRepresentationCount);
  for (Representation r : kConcreteRepresentations)
    if (applicable(r, type, read_only)) out.push_back(r);
  return out;
}

}  // namespace wsc::cache

// Generic reflective algorithms over registered types: deep copy, deep
// equality, reflective toString, and deep memory accounting.
//
// `deep_copy` IS the paper's "copy by reflection" (4.2.3B): a field walk
// driven entirely by metadata, creating a new instance and recursively
// copying mutable parts.  `clone` dispatches to the generated clone
// function (4.2.3C).  `memory_size` produces the "Java object" rows of
// Table 9.
#pragma once

#include <cstddef>
#include <string>

#include "reflect/object.hpp"
#include "reflect/type_info.hpp"

namespace wsc::reflect {

/// Deep copy via reflection metadata.  Supports bean structs, arrays, Bytes
/// and primitive leaves; throws SerializationError for non-bean structs
/// (paper: "for the user-defined application-specific objects, it is
/// difficult to develop deep copy method by using the reflection API").
Object deep_copy(const Object& obj);

/// Field-wise deep assignment of `src` into `dst` (both of type `t`).
/// Unlike deep_copy this performs no bean-trait gatekeeping — it is the
/// raw machinery, also used by the SOAP decoder to plant resolved multiRef
/// values into their slots.
void deep_assign(const TypeInfo& t, const void* src, void* dst);

/// True if `deep_copy` can handle this type when it appears as the
/// top-level cached value: an array/Bytes ("array-type") or a bean struct.
/// Plain immutable primitives are excluded — the paper marks reflection
/// n/a for String responses (Table 7) because sharing suffices.
bool supports_reflection_copy(const TypeInfo& type);

/// Deep copy via the generated clone function.  Throws SerializationError
/// if the type has no clone (Table 3's "Cloneable object" limitation).
Object clone(const Object& obj);

/// Structural equality (deep).  Null equals null.
bool deep_equals(const Object& a, const Object& b);

/// Reflective toString used for cache keys (4.1.2B): primitives render
/// their value; bean structs render "Type{field=value,...}"; arrays render
/// "[v1,v2,...]".  Structs with a custom to_string_fn use it.  Throws
/// SerializationError when a type has no usable toString (the Java
/// Object.toString address fallback, unsuitable for keys).
std::string to_string(const Object& obj);
std::string to_string(const TypeInfo& type, const void* value);

/// Append-style reflective toString: writes the SAME bytes as to_string()
/// directly into `out`, formatting primitives with to_chars — the
/// zero-allocation cache-key path (ToStringKeyGenerator::generate_into).
/// to_string() itself is implemented on top of this, so the two can never
/// disagree.  A null Object appends "null".
void to_string_append(const Object& obj, std::string& out);
void to_string_append(const TypeInfo& type, const void* value,
                      std::string& out);

/// Deep in-memory footprint in bytes under util/mem_footprint.hpp's rule:
/// the root's own make_shared block plus every heap block it owns,
/// recursively.
std::size_t memory_size(const Object& obj);

}  // namespace wsc::reflect

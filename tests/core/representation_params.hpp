// Parameter lists for representation-parameterized suites, derived from
// the one list of concrete representations in core/representation.hpp.
#pragma once

#include <vector>

#include "core/representation.hpp"

namespace wsc::cache::testing {

/// Every concrete representation except Reference: the ones whose hits
/// hand each caller its own object.
inline std::vector<Representation> copying_representations() {
  std::vector<Representation> out;
  for (Representation r : kConcreteRepresentations)
    if (r != Representation::Reference) out.push_back(r);
  return out;
}

/// copying_representations() followed by Auto, which resolves to one of
/// them per the section-6 rules.
inline std::vector<Representation> copying_representations_and_auto() {
  std::vector<Representation> out = copying_representations();
  out.push_back(Representation::Auto);
  return out;
}

}  // namespace wsc::cache::testing

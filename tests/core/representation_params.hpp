// Parameter lists for representation-parameterized suites, derived from
// the one list of concrete representations in core/representation.hpp,
// and the test-name generator that names their instances.
#pragma once

#include <gtest/gtest.h>

#include <cctype>
#include <string>
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

/// gtest name generator: the representation's display name with every
/// non-alphanumeric character replaced by '_' ("Copy_by_clone").
inline std::string representation_test_name(
    const ::testing::TestParamInfo<Representation>& info) {
  std::string name(representation_name(info.param));
  for (char& ch : name)
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  return name;
}

}  // namespace wsc::cache::testing

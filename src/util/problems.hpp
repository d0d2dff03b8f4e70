#pragma once

/// \file problems.hpp
/// The one format for a validation failure: a heading, then one
/// "\n  - <problem>" line per problem. Every validate()-then-throw site
/// builds its message here and keeps its own exception type.

#include <string>
#include <string_view>
#include <vector>

namespace rumr::util {

/// `heading` followed by each problem on its own "  - " line.
[[nodiscard]] inline std::string join_problems(std::string_view heading,
                                               const std::vector<std::string>& problems) {
  std::string joined(heading);
  for (const std::string& problem : problems) {
    joined += "\n  - ";
    joined += problem;
  }
  return joined;
}

}  // namespace rumr::util

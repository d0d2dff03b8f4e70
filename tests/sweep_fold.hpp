#pragma once

/// \file sweep_fold.hpp
/// Folds the cells rumr::Sweep::execute() returns into a sweep::SweepResult,
/// taking the fold's shape (platform count, error axis, line-up names) from
/// the cells themselves.

#include <algorithm>
#include <string>
#include <vector>

#include "sweep/runner.hpp"

namespace rumr::sweep {

inline SweepResult fold(const std::vector<SweepCell>& cells) {
  std::size_t platforms = 0;
  std::vector<double> errors;
  std::vector<std::string> algorithms;
  for (const SweepCell& cell : cells) {
    platforms = std::max(platforms, cell.platform_index + 1);
    errors.resize(std::max(errors.size(), cell.error_index + 1));
    errors[cell.error_index] = cell.error;
    algorithms.resize(std::max(algorithms.size(), cell.algorithm_index + 1));
    algorithms[cell.algorithm_index] = cell.algorithm;
  }
  SweepResult result(platforms, std::move(errors), std::move(algorithms));
  for (const SweepCell& cell : cells) result.add(cell);
  return result;
}

}  // namespace rumr::sweep

#pragma once

/// \file metrics_io.hpp
/// Machine-readable exporters for observability data.
///
/// Two layers:
///   - one run:   obs::RunMetrics already serializes itself (obs/metrics.hpp);
///   - one sweep: the per-cell aggregates (mean/stddev over repetitions of
///     makespan, uplink/worker utilization, DES event counts, head-of-line
///     blocking, re-dispatched work) exported here as long-form CSV — one row
///     per (configuration, error, algorithm) cell — or as a JSON array of
///     cell objects. Both formats carry identical data; CSV feeds plotting
///     scripts, JSON feeds dashboards and regression tooling.

#include <iosfwd>
#include <string>
#include <vector>

#include "sweep/runner.hpp"

namespace rumr::report {

/// CSV header + one row per sweep cell, in the order given (rumr::Sweep's
/// execute() returns them in (platform, error, algorithm) order):
/// config,error,algorithm,reps,<metric>_mean,<metric>_stddev,...
void write_sweep_metrics_csv(std::ostream& out, const std::vector<sweep::SweepCell>& cells);

/// Same, to a string.
[[nodiscard]] std::string sweep_metrics_csv(const std::vector<sweep::SweepCell>& cells);

/// JSON array of cell objects with the same fields as the CSV (stable key
/// order, full precision, non-finite values as null).
void write_sweep_metrics_json(std::ostream& out, const std::vector<sweep::SweepCell>& cells);

/// Same, to a string.
[[nodiscard]] std::string sweep_metrics_json(const std::vector<sweep::SweepCell>& cells);

}  // namespace rumr::report

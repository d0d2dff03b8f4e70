#pragma once

/// \file trace_audit.hpp
/// Post-hoc work-conservation auditor for master-worker simulation results.
///
/// Consumes a sim::SimResult (and its recorded Trace, when present) and
/// verifies the physical invariants of the star-platform model:
///
///   - work conservation: dispatched == computed == the workload total;
///   - per-worker busy time fits inside the makespan;
///   - compute spans on one worker never overlap (one CPU per worker);
///   - uplink spans never overlap when the master has a single channel
///     (the paper's serial-uplink model);
///   - trace spans are well-formed and consistent with the aggregate
///     counters (busy times, per-worker work, chunk counts);
///   - under fault injection: no completed computation overlaps the worker's
///     outage intervals (a dead worker produces nothing), and every chunk
///     reclaimed from a fenced worker was re-dispatched exactly once;
///   - under partial-work checkpointing: banked + computed work reproduces
///     the workload total (banked fractions are final, never recomputed);
///   - observability identities: uplink busy + idle time tiles the makespan,
///     each worker's {compute, aborted, idle, down} spans partition
///     [0, makespan], the DES kernel conserved events (scheduled == executed
///     + cancelled), and the metrics record agrees with the legacy result
///     counters everywhere they overlap.
///
/// The span-level checks only run when the result carries a trace
/// (SimOptions::record_trace); the metrics checks only when it carries a
/// populated RunMetrics (a hand-assembled SimResult does not); the aggregate
/// checks always run.

#include <cstddef>

#include "check/des_audit.hpp"
#include "platform/platform.hpp"
#include "sim/master_worker.hpp"

namespace rumr::check {

/// Tolerances for the floating-point comparisons.
struct TraceAuditOptions {
  /// Relative tolerance for work-conservation sums.
  double work_tolerance = 1e-6;
  /// Absolute slack for time comparisons (span overlap, busy vs makespan).
  double time_tolerance = 1e-9;
  /// Uplink channel count the run was configured with; overlap of uplink
  /// spans is only a violation when this is 1.
  std::size_t uplink_channels = 1;
};

/// Audits one finished run against the workload total it was meant to
/// process. Returns the collected violations; empty means the run conserved
/// work and respected the platform's resource constraints.
[[nodiscard]] AuditReport audit_sim_result(const sim::SimResult& result,
                                           const platform::StarPlatform& platform, double w_total,
                                           const TraceAuditOptions& options = {});

/// audit_sim_result with the tolerances the run was configured with
/// (SimOptions::work_tolerance and uplink_channels): how every engine and
/// tool audits a run it made.
[[nodiscard]] AuditReport audit_run(const sim::SimResult& result,
                                    const platform::StarPlatform& platform, double w_total,
                                    const sim::SimOptions& options);

}  // namespace rumr::check

#pragma once

/// \file merge_audit.hpp
/// Merge-consistency audit primitives for sharded aggregation.
///
/// The sharded sweep engine folds observations into per-shard accumulators
/// and reduces them with merge(); its headline guarantee is that the sharded
/// aggregate equals the serial (single-pass) aggregate. These helpers verify
/// that claim accumulator by accumulator: integer state (counts, totals,
/// bucket occupancies) must match *exactly*, floating state (sums, Welford
/// moments, min/max) to a relative tolerance of 1e-9 — merge re-associates
/// FP additions, so the last few ulps may legitimately move even though a
/// fixed merge order keeps any one sharded run byte-stable.
///
/// The sweep layer (which check cannot depend on — sweep links check, not
/// the reverse) assembles these primitives into its per-cell audit; tests
/// call them directly.

#include <string>

#include "check/des_audit.hpp"
#include "obs/accumulators.hpp"
#include "obs/metrics.hpp"
#include "stats/summary.hpp"

namespace rumr::check {

/// Tolerance for the floating-point halves of the comparisons below.
struct MergeAuditOptions {
  double rel_tolerance = 1e-9;
};

/// Appends a violation to `report` for every way `merged` disagrees with
/// `serial`. `label` prefixes each message ("cell[3].makespan: ..."). Counts
/// compare exactly; means/sums/extrema within options.rel_tolerance.
void audit_accumulator_merge(const std::string& label, const stats::Accumulator& merged,
                             const stats::Accumulator& serial, AuditReport& report,
                             const MergeAuditOptions& options = {});

/// Same for counters: a pure integer sum, so the comparison is exact.
void audit_counter_merge(const std::string& label, const obs::Counter& merged,
                         const obs::Counter& serial, AuditReport& report);

/// Same for histograms: identical edges, exact bucket counts and totals,
/// toleranced sum/min/max.
void audit_histogram_merge(const std::string& label, const obs::Histogram& merged,
                           const obs::Histogram& serial, AuditReport& report,
                           const MergeAuditOptions& options = {});

/// Same for quantile sketches: identical comb, exact bucket counts and
/// totals, toleranced sum/min/max.
void audit_sketch_merge(const std::string& label, const obs::QuantileSketch& merged,
                        const obs::QuantileSketch& serial, AuditReport& report,
                        const MergeAuditOptions& options = {});

}  // namespace rumr::check
